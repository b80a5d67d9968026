#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "netlist/builder.h"
#include "sim/compiled.h"
#include "sim/levelizer.h"
#include "sim/logic3.h"
#include "sim/parallel.h"
#include "sim/simd.h"
#include "sim/simulator.h"
#include "tests/random_circuits.h"

namespace retest::sim {
namespace {

using netlist::Builder;
using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;

TEST(Logic3, TruthTables) {
  EXPECT_EQ(And3(V3::k1, V3::k1), V3::k1);
  EXPECT_EQ(And3(V3::k0, V3::kX), V3::k0);
  EXPECT_EQ(And3(V3::k1, V3::kX), V3::kX);
  EXPECT_EQ(Or3(V3::k1, V3::kX), V3::k1);
  EXPECT_EQ(Or3(V3::k0, V3::kX), V3::kX);
  EXPECT_EQ(Or3(V3::k0, V3::k0), V3::k0);
  EXPECT_EQ(Xor3(V3::k1, V3::k0), V3::k1);
  EXPECT_EQ(Xor3(V3::k1, V3::kX), V3::kX);
  EXPECT_EQ(Not3(V3::kX), V3::kX);
  EXPECT_EQ(Not3(V3::k0), V3::k1);
}

TEST(Logic3, Strings) {
  const auto values = FromString("01x");
  EXPECT_EQ(values.size(), 3u);
  EXPECT_EQ(values[0], V3::k0);
  EXPECT_EQ(values[2], V3::kX);
  EXPECT_EQ(ToString(values), "01x");
}

TEST(Logic3, GateEval) {
  const std::vector<V3> v{V3::k1, V3::k1, V3::k0};
  EXPECT_EQ(EvalGate3(NodeKind::kAnd, v), V3::k0);
  EXPECT_EQ(EvalGate3(NodeKind::kNand, v), V3::k1);
  EXPECT_EQ(EvalGate3(NodeKind::kOr, v), V3::k1);
  EXPECT_EQ(EvalGate3(NodeKind::kNor, v), V3::k0);
  EXPECT_EQ(EvalGate3(NodeKind::kXor, v), V3::k0);
  EXPECT_EQ(EvalGate3(NodeKind::kXnor, v), V3::k1);
  EXPECT_EQ(EvalGate3(NodeKind::kConst1, {}), V3::k1);
}

Circuit ToggleCircuit() {
  Builder builder("toggle");
  builder.Input("en").Dff("q");
  builder.Xor("d", {"en", "q"}).SetDffInput("q", "d").Output("z", "q");
  return builder.Build();
}

TEST(Levelizer, OrdersAndDepth) {
  Builder builder("lvl");
  builder.Input("a").Input("b");
  builder.And("g1", {"a", "b"}).Not("g2", "g1").Or("g3", {"g2", "a"});
  builder.Output("z", "g3");
  const Circuit circuit = builder.Build();
  const Levelization levels = Levelize(circuit);
  EXPECT_EQ(levels.order.size(), static_cast<size_t>(circuit.size()));
  EXPECT_EQ(levels.level[static_cast<size_t>(circuit.Find("g3"))], 3);
  EXPECT_EQ(levels.depth, 4);  // output pin adds one level
}

TEST(Levelizer, DffBreaksCycle) {
  const Circuit circuit = ToggleCircuit();
  EXPECT_NO_THROW(Levelize(circuit));
}

TEST(Simulator, UnknownInitialState) {
  const Circuit circuit = ToggleCircuit();
  Simulator simulator(circuit);
  simulator.Reset();
  EXPECT_FALSE(simulator.StateIsBinary());
  const auto out = simulator.Step(FromString("1"));
  EXPECT_EQ(out[0], V3::kX);  // output observes the unknown state
}

TEST(Simulator, ToggleBehaviour) {
  const Circuit circuit = ToggleCircuit();
  Simulator simulator(circuit);
  simulator.SetState(FromString("0"));
  EXPECT_EQ(simulator.Step(FromString("1"))[0], V3::k0);  // Mealy: pre-clock
  EXPECT_EQ(simulator.State(), FromString("1"));
  EXPECT_EQ(simulator.Step(FromString("1"))[0], V3::k1);
  EXPECT_EQ(simulator.State(), FromString("0"));
  EXPECT_EQ(simulator.Step(FromString("0"))[0], V3::k0);
  EXPECT_EQ(simulator.State(), FromString("0"));
}

TEST(Simulator, RunMatchesRepeatedStep) {
  const Circuit circuit = ToggleCircuit();
  Simulator a(circuit);
  Simulator b(circuit);
  a.SetState(FromString("0"));
  b.SetState(FromString("0"));
  InputSequence sequence{FromString("1"), FromString("0"), FromString("1")};
  const auto outputs = a.Run(sequence);
  for (size_t t = 0; t < sequence.size(); ++t) {
    EXPECT_EQ(outputs[t], b.Step(sequence[t]));
  }
}

TEST(Simulator, RejectsWrongWidths) {
  const Circuit circuit = ToggleCircuit();
  Simulator simulator(circuit);
  EXPECT_THROW(simulator.Step(FromString("10")), std::invalid_argument);
  EXPECT_THROW(simulator.SetState(FromString("00")), std::invalid_argument);
}

TEST(Word3, BroadcastAndLanes) {
  Word3 w = Word3::Broadcast(V3::k1);
  EXPECT_EQ(w.Lane(0), V3::k1);
  EXPECT_EQ(w.Lane(63), V3::k1);
  w.SetLane(5, false);
  EXPECT_EQ(w.Lane(5), V3::k0);
  EXPECT_EQ(w.Lane(6), V3::k1);
  const Word3 x = Word3::Broadcast(V3::kX);
  EXPECT_EQ(x.Lane(17), V3::kX);
}

TEST(Word3, MatchesScalarAlgebra) {
  const V3 values[] = {V3::k0, V3::k1, V3::kX};
  for (V3 a : values) {
    for (V3 b : values) {
      const Word3 wa = Word3::Broadcast(a);
      const Word3 wb = Word3::Broadcast(b);
      EXPECT_EQ(And64(wa, wb).Lane(7), And3(a, b));
      EXPECT_EQ(Or64(wa, wb).Lane(7), Or3(a, b));
      EXPECT_EQ(Xor64(wa, wb).Lane(7), Xor3(a, b));
      EXPECT_EQ(Not64(wa).Lane(7), Not3(a));
    }
  }
}

TEST(ParallelFrame, MatchesScalarSimulator) {
  const Circuit circuit = ToggleCircuit();
  Simulator scalar(circuit);
  scalar.Reset();
  ParallelFrame frame(circuit);
  std::vector<Word3> state(1, Word3::Broadcast(V3::kX));

  const InputSequence sequence{FromString("1"), FromString("0"),
                               FromString("1"), FromString("1")};
  for (const auto& vector : sequence) {
    const auto scalar_out = scalar.Step(vector);
    frame.Step(vector, state);
    for (size_t o = 0; o < scalar_out.size(); ++o) {
      EXPECT_EQ(frame.value(circuit.outputs()[o]).Lane(0), scalar_out[o]);
      EXPECT_EQ(frame.value(circuit.outputs()[o]).Lane(63), scalar_out[o]);
    }
  }
}

TEST(ParallelFrame, BranchInjectionIsLocal) {
  // a fans out to g1 and g2; forcing only g1's view must leave g2
  // untouched.
  Builder builder("br");
  builder.Input("a");
  builder.Buf("g1", "a").Buf("g2", "a");
  builder.Output("z1", "g1").Output("z2", "g2");
  const Circuit circuit = builder.Build();

  ParallelFrame frame(circuit);
  const Injection injection{circuit.Find("g1"), 0, true, 3};
  frame.SetInjections({&injection, 1});
  std::vector<Word3> state;
  frame.Step(FromString("0"), state);
  EXPECT_EQ(frame.value(circuit.Find("g1")).Lane(3), V3::k1);
  EXPECT_EQ(frame.value(circuit.Find("g2")).Lane(3), V3::k0);
  EXPECT_EQ(frame.value(circuit.Find("g1")).Lane(0), V3::k0);
}

TEST(ParallelFrame, ConeRestrictedStepMatchesFullEvaluation) {
  // Two DFF-separated output cones sharing input b; a fault in the g1
  // cone must leave z2 inactive and still produce the exact full-mode
  // values on its own cone, including state latched through the DFF.
  Builder builder("cone");
  builder.Input("a").Input("b");
  builder.And("g1", {"a", "b"}).Or("g2", {"a", "b"});
  builder.Dff("q1", "g1").Dff("q2", "g2");
  builder.Not("h1", "q1").Buf("h2", "q2");
  builder.Output("z1", "h1").Output("z2", "h2");
  const Circuit circuit = builder.Build();

  const Injection injection{circuit.Find("g1"), -1, true, 5};
  ParallelFrame full(circuit);
  full.SetInjections({&injection, 1});
  ParallelFrame cone(circuit);
  cone.SetInjections({&injection, 1});
  cone.RestrictToInjectionCones();

  // g1 -> q1 -> h1 -> z1: the cone crosses the DFF but never reaches
  // the q2 side.
  EXPECT_TRUE(cone.cone_restricted());
  EXPECT_EQ(cone.cone_size(), 4);
  ASSERT_EQ(cone.active_outputs().size(), 1u);
  EXPECT_EQ(cone.active_outputs()[0], 0);
  EXPECT_EQ(full.active_outputs().size(), 2u);

  const InputSequence sequence{FromString("00"), FromString("11"),
                               FromString("10"), FromString("01")};
  const Trace trace(circuit, sequence);
  std::vector<Word3> full_state(2), cone_state(2);
  for (size_t t = 0; t < sequence.size(); ++t) {
    full.Step(sequence[t], full_state);
    cone.Step(sequence[t], cone_state, trace.frame(t));
    for (const char* net : {"g1", "q1", "h1", "z1"}) {
      // word() resolves clean (skipped) nodes to the good-machine
      // word; dirty nodes were actually evaluated this frame.
      EXPECT_EQ(cone.word(circuit.Find(net), trace.frame(t)),
                full.value(circuit.Find(net)))
          << net << " at frame " << t;
    }
    // Outside the cone the full engine just reproduces the good
    // machine (the fact the restricted mode exploits).
    EXPECT_EQ(full.value(circuit.Find("z2")),
              Word3::Broadcast(trace.value(t, circuit.Find("z2"))));
  }
  // Restricted mode evaluates at most g1, h1, z1 per frame — and skips
  // even those on frames where the fault is not excited; full mode
  // evaluates all six non-source nodes every frame.
  EXPECT_LT(cone.gate_evals(), full.gate_evals());
}

TEST(ParallelFrame, StemInjectionAffectsAllSinks) {
  Builder builder("st");
  builder.Input("a");
  builder.Buf("g1", "a").Buf("g2", "a");
  builder.Output("z1", "g1").Output("z2", "g2");
  const Circuit circuit = builder.Build();

  ParallelFrame frame(circuit);
  const Injection injection{circuit.Find("a"), -1, true, 9};
  frame.SetInjections({&injection, 1});
  std::vector<Word3> state;
  frame.Step(FromString("0"), state);
  EXPECT_EQ(frame.value(circuit.Find("g1")).Lane(9), V3::k1);
  EXPECT_EQ(frame.value(circuit.Find("g2")).Lane(9), V3::k1);
  EXPECT_EQ(frame.value(circuit.Find("g1")).Lane(0), V3::k0);
}

// ---- Wide (multi-word) kernels -------------------------------------

template <typename T>
class WideVec : public ::testing::Test {};
using WideWidths = ::testing::Types<std::integral_constant<int, 1>,
                                    std::integral_constant<int, 8>>;
TYPED_TEST_SUITE(WideVec, WideWidths);

TYPED_TEST(WideVec, BroadcastLanesAndWordBoundaries) {
  constexpr int W = TypeParam::value;
  Vec3<W> v = Vec3<W>::Broadcast(V3::k1);
  // Probe the first/last lane of every 64-bit word: cross-word index
  // arithmetic is exactly where a lane<->word mapping bug would hide.
  for (int w = 0; w < W; ++w) {
    EXPECT_EQ(v.Lane(w * 64), V3::k1);
    EXPECT_EQ(v.Lane(w * 64 + 63), V3::k1);
  }
  v.SetLane(Vec3<W>::kLanes - 1, false);
  EXPECT_EQ(v.Lane(Vec3<W>::kLanes - 1), V3::k0);
  if constexpr (W > 1) {
    EXPECT_EQ(v.Lane(63), V3::k1);
    EXPECT_EQ(v.Lane(64), V3::k1);
    v.SetLane(64, true);
    EXPECT_EQ(v.Lane(64), V3::k1);
    EXPECT_EQ(v.Lane(65), V3::k1);
  }
  for (const V3 scalar : {V3::k0, V3::k1, V3::kX}) {
    const Vec3<W> b = Vec3<W>::Broadcast(scalar);
    for (int w = 0; w < W; ++w) {
      EXPECT_EQ(b.Lane(w * 64), scalar);
      EXPECT_EQ(b.Lane(w * 64 + 63), scalar);
    }
  }
}

TYPED_TEST(WideVec, MatchesScalarAlgebraInEveryWord) {
  constexpr int W = TypeParam::value;
  const V3 values[] = {V3::k0, V3::k1, V3::kX};
  for (V3 a : values) {
    for (V3 b : values) {
      // Mixed-lane operands: lane L of wa holds `a` in even words and
      // `b` in odd words, so the word loop cannot pass by accident.
      Vec3<W> wa;
      Vec3<W> wb;
      for (int lane = 0; lane < Vec3<W>::kLanes; ++lane) {
        const bool odd_word = ((lane >> 6) & 1) != 0;
        const V3 va = odd_word ? b : a;
        const V3 vb = odd_word ? a : b;
        if (va != V3::kX) wa.SetLane(lane, va == V3::k1);
        if (vb != V3::kX) wb.SetLane(lane, vb == V3::k1);
      }
      const Vec3<W> and_v = AndV(wa, wb);
      const Vec3<W> or_v = OrV(wa, wb);
      const Vec3<W> xor_v = XorV(wa, wb);
      const Vec3<W> not_v = NotV(wa);
      for (int lane = 0; lane < Vec3<W>::kLanes; lane += 17) {
        const bool odd_word = ((lane >> 6) & 1) != 0;
        const V3 va = odd_word ? b : a;
        const V3 vb = odd_word ? a : b;
        EXPECT_EQ(and_v.Lane(lane), And3(va, vb));
        EXPECT_EQ(or_v.Lane(lane), Or3(va, vb));
        EXPECT_EQ(xor_v.Lane(lane), Xor3(va, vb));
        EXPECT_EQ(not_v.Lane(lane), Not3(va));
      }
    }
  }
}

TYPED_TEST(WideVec, LaneIndexOutOfRangeAsserts) {
  constexpr int W = TypeParam::value;
  Vec3<W> v = Vec3<W>::Broadcast(V3::k0);
  // The old Word3::Lane shifted by a signed, unchecked index (UB at
  // i >= 64).  The rewrite asserts in debug builds and masks the shift
  // in release builds, so the expression below is never UB.
  EXPECT_DEBUG_DEATH((void)v.Lane(Vec3<W>::kLanes), "");
  EXPECT_DEBUG_DEATH((void)v.Lane(-1), "");
  EXPECT_DEBUG_DEATH(v.SetLane(Vec3<W>::kLanes, true), "");
}

TYPED_TEST(WideVec, EvalGateWideMatchesScalarEval) {
  constexpr int W = TypeParam::value;
  const V3 values[] = {V3::k0, V3::k1, V3::kX};
  const NodeKind kinds[] = {NodeKind::kAnd, NodeKind::kNand, NodeKind::kOr,
                            NodeKind::kNor, NodeKind::kXor, NodeKind::kXnor};
  for (NodeKind kind : kinds) {
    for (V3 a : values) {
      for (V3 b : values) {
        const Vec3<W> fanin[] = {Vec3<W>::Broadcast(a), Vec3<W>::Broadcast(b)};
        const Vec3<W> out = EvalGateWide<W>(kind, fanin);
        const V3 scalar_fanin[] = {a, b};
        const V3 expect = EvalGate3(kind, scalar_fanin);
        EXPECT_EQ(out.Lane(0), expect);
        EXPECT_EQ(out.Lane(Vec3<W>::kLanes - 1), expect);
      }
    }
  }
}

TYPED_TEST(WideVec, LaneMaskHelpers) {
  constexpr int W = TypeParam::value;
  using Mask = LaneMask<W>;
  EXPECT_FALSE(Mask::None().any());
  EXPECT_EQ(Mask::All().count(), 64 * W);
  // FirstN at word-boundary counts.
  for (int n : {0, 1, 63, 64, 64 * W - 1, 64 * W}) {
    const Mask m = Mask::FirstN(n);
    EXPECT_EQ(m.count(), n) << n;
    if (n > 0) {
      EXPECT_TRUE(m.test(n - 1));
    }
    if (n < 64 * W) {
      EXPECT_FALSE(m.test(n));
    }
  }
  Mask m;
  m.set(64 * W - 1);
  EXPECT_TRUE(m.any());
  EXPECT_TRUE(m.intersects(Mask::All()));
  EXPECT_FALSE(m.intersects(Mask::FirstN(64 * W - 1)));
  m.reset(64 * W - 1);
  EXPECT_FALSE(m.any());
  EXPECT_EQ((~Mask::None()), Mask::All());
  EXPECT_EQ((Mask::All() & Mask::FirstN(5)).count(), 5);
  EXPECT_EQ((Mask::FirstN(3) | Mask::FirstN(7)).count(), 7);
}

TYPED_TEST(WideVec, WideFrameConeMatchesFullAtEveryWidth) {
  constexpr int W = TypeParam::value;
  // Same structure as ConeRestrictedStepMatchesFullEvaluation, but the
  // injection sits in the last lane of the last word and the frames
  // are W words wide.
  Builder builder("conew");
  builder.Input("a").Input("b");
  builder.And("g1", {"a", "b"}).Or("g2", {"a", "b"});
  builder.Dff("q1", "g1").Dff("q2", "g2");
  builder.Not("h1", "q1").Buf("h2", "q2");
  builder.Output("z1", "h1").Output("z2", "h2");
  const Circuit circuit = builder.Build();

  const Injection injection{circuit.Find("g1"), -1, true,
                            Vec3<W>::kLanes - 1};
  WideFrame<W> full(circuit);
  full.SetInjections({&injection, 1});
  WideFrame<W> cone(circuit);
  cone.SetInjections({&injection, 1});
  cone.RestrictToInjectionCones();
  EXPECT_TRUE(cone.cone_restricted());
  EXPECT_EQ(cone.cone_size(), 4);

  const InputSequence sequence{FromString("00"), FromString("11"),
                               FromString("10"), FromString("01")};
  const Trace trace(circuit, sequence);
  std::vector<Vec3<W>> full_state(2), cone_state(2);
  for (size_t t = 0; t < sequence.size(); ++t) {
    full.Step(sequence[t], full_state);
    cone.Step(sequence[t], cone_state, trace.frame(t));
    for (const char* net : {"g1", "q1", "h1", "z1"}) {
      EXPECT_EQ(cone.word(circuit.Find(net), trace.frame(t)),
                full.value(circuit.Find(net)))
          << net << " at frame " << t;
    }
  }
  EXPECT_LE(cone.gate_evals(), full.gate_evals());
}

// ---- Lane widths ---------------------------------------------------

TEST(LaneWords, ResolveLaneWordsIsOneOrWide) {
  EXPECT_EQ(ResolveLaneWords(1), 1);
  for (int words : {0, -1, 2, 4, 8, 16}) {
    EXPECT_EQ(ResolveLaneWords(words), kWideLaneWords) << words;
  }
}

TEST(LaneWords, DescribeLaneWordsNamesTheWidth) {
  EXPECT_EQ(DescribeLaneWords(1), "64 lanes (scalar word)");
  EXPECT_EQ(DescribeLaneWords(8), "512 lanes (portable word loops)");
}

// ---- CompiledNetlist ------------------------------------------------

bool IsSourceKind(NodeKind kind) {
  return kind == NodeKind::kInput || kind == NodeKind::kDff ||
         kind == NodeKind::kConst0 || kind == NodeKind::kConst1;
}

void CheckCompiledInvariants(const Circuit& circuit) {
  const CompiledNetlist compiled(circuit);
  const Levelization levels = Levelize(circuit);
  ASSERT_EQ(compiled.num_nodes(), circuit.size());
  EXPECT_EQ(compiled.depth(), levels.depth);

  // Per-node mirrors: kind, level, fanin CSR in pin order.
  for (NodeId id = 0; id < circuit.size(); ++id) {
    const auto uid = static_cast<std::uint32_t>(id);
    EXPECT_EQ(compiled.kind(uid), circuit.node(id).kind);
    EXPECT_EQ(compiled.level(uid), levels.level[static_cast<size_t>(id)]);
    const auto fanins = compiled.fanins(uid);
    ASSERT_EQ(fanins.size(), circuit.node(id).fanin.size());
    for (size_t p = 0; p < fanins.size(); ++p) {
      EXPECT_EQ(static_cast<NodeId>(fanins[p]), circuit.node(id).fanin[p]);
    }
  }

  // Fanout CSR: exactly the transpose of the fanin CSR (with
  // multiplicity for nodes feeding several pins of one sink).
  std::vector<int> sink_count(static_cast<size_t>(circuit.size()), 0);
  for (NodeId id = 0; id < circuit.size(); ++id) {
    for (NodeId driver : circuit.node(id).fanin) {
      ++sink_count[static_cast<size_t>(driver)];
    }
  }
  long total_fanout = 0;
  for (NodeId id = 0; id < circuit.size(); ++id) {
    const auto uid = static_cast<std::uint32_t>(id);
    const auto fanouts = compiled.fanouts(uid);
    EXPECT_EQ(static_cast<int>(fanouts.size()),
              sink_count[static_cast<size_t>(id)]);
    total_fanout += static_cast<long>(fanouts.size());
    for (std::uint32_t sink : fanouts) {
      const auto& sink_fanin = circuit.node(static_cast<NodeId>(sink)).fanin;
      EXPECT_NE(std::find(sink_fanin.begin(), sink_fanin.end(), id),
                sink_fanin.end())
          << "fanout edge " << id << " -> " << sink << " has no back edge";
    }
  }

  // Schedule: every non-source node exactly once, in ascending levels,
  // (kind, id)-sorted within a level, and level_begin slices tile it.
  std::vector<bool> seen(static_cast<size_t>(circuit.size()), false);
  int last_level = -1;
  for (std::uint32_t id : compiled.schedule()) {
    EXPECT_FALSE(IsSourceKind(compiled.kind(id)));
    EXPECT_FALSE(seen[id]) << "node " << id << " scheduled twice";
    seen[id] = true;
    EXPECT_GE(compiled.level(id), last_level);
    last_level = std::max(last_level, static_cast<int>(compiled.level(id)));
    // Every fanin strictly below (sources sit at their own levels).
    for (std::uint32_t driver : compiled.fanins(id)) {
      if (compiled.kind(driver) == NodeKind::kDff) continue;
      EXPECT_LT(compiled.level(driver), compiled.level(id));
    }
  }
  size_t scheduled = 0;
  for (NodeId id = 0; id < circuit.size(); ++id) {
    const bool source = IsSourceKind(circuit.node(id).kind);
    EXPECT_EQ(seen[static_cast<size_t>(id)], !source);
    scheduled += source ? 0u : 1u;
  }
  EXPECT_EQ(compiled.schedule().size(), scheduled);
  size_t tiled = 0;
  for (int lvl = 0; lvl <= compiled.depth(); ++lvl) {
    const auto run = compiled.schedule_at(lvl);
    for (size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(run[i], compiled.schedule()[tiled + i]);
      EXPECT_EQ(compiled.level(run[i]), lvl);
      if (i > 0) {
        EXPECT_LE(static_cast<int>(compiled.kind(run[i - 1])),
                  static_cast<int>(compiled.kind(run[i])));
      }
    }
    tiled += run.size();
  }
  EXPECT_EQ(tiled, compiled.schedule().size());

  // Source/sink tables.
  ASSERT_EQ(compiled.inputs().size(), circuit.inputs().size());
  for (size_t i = 0; i < circuit.inputs().size(); ++i) {
    EXPECT_EQ(static_cast<NodeId>(compiled.inputs()[i]),
              circuit.inputs()[i]);
    EXPECT_EQ(compiled.pi_index(compiled.inputs()[i]),
              static_cast<std::int32_t>(i));
  }
  ASSERT_EQ(compiled.outputs().size(), circuit.outputs().size());
  for (size_t o = 0; o < circuit.outputs().size(); ++o) {
    EXPECT_EQ(static_cast<NodeId>(compiled.output_src(o)),
              circuit.node(circuit.outputs()[o]).fanin[0]);
  }
  ASSERT_EQ(compiled.dffs().size(), circuit.dffs().size());
  for (size_t i = 0; i < circuit.dffs().size(); ++i) {
    EXPECT_EQ(static_cast<NodeId>(compiled.dffs()[i]), circuit.dffs()[i]);
    EXPECT_EQ(static_cast<NodeId>(compiled.dff_data(i)),
              circuit.node(circuit.dffs()[i]).fanin[0]);
  }
  for (NodeId id = 0; id < circuit.size(); ++id) {
    if (circuit.node(id).kind != NodeKind::kInput) {
      EXPECT_EQ(compiled.pi_index(static_cast<std::uint32_t>(id)), -1);
    }
  }
}

TEST(CompiledNetlist, HandBuiltCircuitInvariants) {
  Builder builder("c");
  builder.Input("a").Input("b");
  builder.And("g1", {"a", "b"}).Or("g2", {"a", "b"});
  builder.Dff("q", "g1");
  builder.Nand("g3", {"q", "g2"});
  builder.Output("z", "g3");
  CheckCompiledInvariants(builder.Build());
}

TEST(CompiledNetlist, RandomCircuitInvariants) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    retest::testing::RandomCircuitOptions copts;
    copts.num_inputs = 2 + static_cast<int>(seed % 4);
    copts.num_dffs = static_cast<int>(seed % 5);
    copts.num_gates = 8 + static_cast<int>(seed % 30);
    const Circuit circuit = retest::testing::MakeRandomCircuit(seed, copts);
    CheckCompiledInvariants(circuit);
  }
}

TEST(CompiledNetlist, SharedCompileReturnsUsableHandle) {
  Builder builder("s");
  builder.Input("a");
  builder.Not("n", "a");
  builder.Output("z", "n");
  const Circuit circuit = builder.Build();
  const auto compiled = Compile(circuit);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->num_nodes(), circuit.size());
  EXPECT_EQ(&compiled->circuit(), &circuit);
}

}  // namespace
}  // namespace retest::sim
