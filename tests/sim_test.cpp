#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "faultsim/serial.h"
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

/// a fans out to g1 and g2, each driving its own output.
Circuit FanoutPairCircuit() {
  Builder builder("fan");
  builder.Input("a");
  builder.Buf("g1", "a").Buf("g2", "a");
  builder.Output("z1", "g1").Output("z2", "g2");
  return builder.Build();
}

TEST(Vec3, BroadcastAndLanes) {
  // One 64-lane word: the width every single-fault caller runs at.
  Vec3<1> w = Vec3<1>::Broadcast(V3::k1);
  EXPECT_EQ(w.Lane(0), V3::k1);
  EXPECT_EQ(w.Lane(63), V3::k1);
  w.SetLane(5, false);
  EXPECT_EQ(w.Lane(5), V3::k0);
  EXPECT_EQ(w.Lane(6), V3::k1);
  const Vec3<1> x = Vec3<1>::Broadcast(V3::kX);
  EXPECT_EQ(x.Lane(17), V3::kX);
}

TEST(Vec3, MatchesScalarAlgebra) {
  const V3 values[] = {V3::k0, V3::k1, V3::kX};
  for (V3 a : values) {
    for (V3 b : values) {
      const Vec3<1> wa = Vec3<1>::Broadcast(a);
      const Vec3<1> wb = Vec3<1>::Broadcast(b);
      EXPECT_EQ(AndV(wa, wb).Lane(7), And3(a, b));
      EXPECT_EQ(OrV(wa, wb).Lane(7), Or3(a, b));
      EXPECT_EQ(XorV(wa, wb).Lane(7), Xor3(a, b));
      EXPECT_EQ(NotV(wa).Lane(7), Not3(a));
    }
  }
}

TEST(WideFrame, MatchesScalarSimulator) {
  // Every lane without an injection is the good machine, frame by
  // frame, including the frames where the faulty lane 5 differs.
  const Circuit circuit = ToggleCircuit();
  Simulator scalar(circuit);
  scalar.Reset();
  WideFrame<1> frame(circuit);
  const Injection injection{circuit.Find("en"), -1, true, 5};
  frame.SetInjections({&injection, 1});
  std::vector<Vec3<1>> state(1, Vec3<1>::Broadcast(V3::kX));

  const InputSequence sequence{FromString("1"), FromString("0"),
                               FromString("1"), FromString("1")};
  const Trace trace(circuit, sequence);
  for (size_t t = 0; t < sequence.size(); ++t) {
    const auto scalar_out = scalar.Step(sequence[t]);
    frame.Step(state, trace.frame(t));
    for (size_t o = 0; o < scalar_out.size(); ++o) {
      const Vec3<1> out = frame.word(circuit.outputs()[o], trace.frame(t));
      EXPECT_EQ(out.Lane(0), scalar_out[o]) << "frame " << t;
      EXPECT_EQ(out.Lane(63), scalar_out[o]) << "frame " << t;
    }
  }
}

TEST(WideFrame, BranchInjectionIsLocal) {
  // Forcing only g1's view of a must leave g2 untouched: g2 is not
  // even in the cone.
  const Circuit circuit = FanoutPairCircuit();
  WideFrame<1> frame(circuit);
  const Injection injection{circuit.Find("g1"), 0, true, 3};
  frame.SetInjections({&injection, 1});
  EXPECT_EQ(frame.cone_size(), 2);  // g1, z1
  const InputSequence sequence{FromString("0")};
  const Trace trace(circuit, sequence);
  std::vector<Vec3<1>> state;
  frame.Step(state, trace.frame(0));
  EXPECT_EQ(frame.word(circuit.Find("g1"), trace.frame(0)).Lane(3), V3::k1);
  EXPECT_EQ(frame.word(circuit.Find("g2"), trace.frame(0)).Lane(3), V3::k0);
  EXPECT_EQ(frame.word(circuit.Find("g1"), trace.frame(0)).Lane(0), V3::k0);
}

TEST(WideFrame, StemInjectionAffectsAllSinks) {
  const Circuit circuit = FanoutPairCircuit();
  WideFrame<1> frame(circuit);
  const Injection injection{circuit.Find("a"), -1, true, 9};
  frame.SetInjections({&injection, 1});
  EXPECT_EQ(frame.cone_size(), 5);  // a, g1, g2, z1, z2
  const InputSequence sequence{FromString("0")};
  const Trace trace(circuit, sequence);
  std::vector<Vec3<1>> state;
  frame.Step(state, trace.frame(0));
  EXPECT_EQ(frame.word(circuit.Find("g1"), trace.frame(0)).Lane(9), V3::k1);
  EXPECT_EQ(frame.word(circuit.Find("g2"), trace.frame(0)).Lane(9), V3::k1);
  EXPECT_EQ(frame.word(circuit.Find("g1"), trace.frame(0)).Lane(0), V3::k0);
}

TEST(WideFrame, RejectsWrongWidths) {
  const Circuit circuit = ToggleCircuit();
  WideFrame<1> frame(circuit);
  const Trace trace(circuit, {FromString("1")});
  std::vector<Vec3<1>> state;  // the circuit has one DFF
  EXPECT_THROW(frame.Step(state, trace.frame(0)), std::invalid_argument);
  state.resize(1);
  EXPECT_THROW(frame.Step(state, trace.frame(0).first(1)),
               std::invalid_argument);
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
  // The 64-lane word's original Lane shifted by a signed, unchecked
  // index (UB at i >= 64).  The rewrite asserts in debug builds and masks the shift
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

/// Two DFF-separated output cones sharing inputs a and b.
Circuit TwoConeCircuit() {
  Builder builder("cone");
  builder.Input("a").Input("b");
  builder.And("g1", {"a", "b"}).Or("g2", {"a", "b"});
  builder.Dff("q1", "g1").Dff("q2", "g2");
  builder.Not("h1", "q1").Buf("h2", "q2");
  builder.Output("z1", "h1").Output("z2", "h2");
  return builder.Build();
}

/// One fault and the lane it is injected in.
using LaneFault = std::pair<fault::Fault, int>;

/// Runs one WideFrame<W> batch over `sequence` and checks every lane's
/// POs and latched DFF state, frame by frame, against the scalar
/// reference: a faultsim::FaultySimulator for a faulty lane, the good
/// machine for every other lane.  A DFF outside every injection cone
/// is never latched (its entry stays all-X), so there the reference
/// must hold the good state.  The batch needs a fault-free lane: it
/// keeps a cone DFF's entry off all-X whenever the good state is
/// binary.  Stores the frame's gate evaluations in `gate_evals`.
template <int W>
void CheckBatchAgainstSerial(const Circuit& circuit,
                             const std::vector<LaneFault>& batch,
                             const InputSequence& sequence,
                             long* gate_evals = nullptr) {
  constexpr int kLanes = Vec3<W>::kLanes;
  std::vector<Injection> injections;
  std::vector<std::optional<faultsim::FaultySimulator>> reference(kLanes);
  for (const auto& [fault, lane] : batch) {
    injections.push_back(fault::ToInjection(fault, lane));
    reference[static_cast<size_t>(lane)].emplace(circuit, fault);
    reference[static_cast<size_t>(lane)]->Reset();
  }
  EXPECT_LT(batch.size(), static_cast<size_t>(kLanes));
  WideFrame<W> frame(circuit);
  frame.SetInjections(injections);
  Simulator good(circuit);
  good.Reset();
  const Trace trace(circuit, sequence);
  std::vector<Vec3<W>> state(static_cast<size_t>(circuit.num_dffs()));
  for (size_t t = 0; t < sequence.size(); ++t) {
    frame.Step(state, trace.frame(t));
    const std::vector<V3> good_outputs = good.Step(sequence[t]);
    const std::vector<V3> good_state = good.State();
    for (int lane = 0; lane < kLanes; ++lane) {
      auto& faulty = reference[static_cast<size_t>(lane)];
      const std::vector<V3> outputs =
          faulty ? faulty->Step(sequence[t]) : good_outputs;
      const std::vector<V3>& latched = faulty ? faulty->state() : good_state;
      for (size_t o = 0; o < outputs.size(); ++o) {
        const NodeId po = circuit.outputs()[o];
        ASSERT_EQ(frame.word(po, trace.frame(t)).Lane(lane), outputs[o])
            << circuit.name() << " PO " << circuit.node(po).name
            << " frame " << t << " lane " << lane;
      }
      for (size_t d = 0; d < latched.size(); ++d) {
        const V3 engine = state[d] == Vec3<W>{} ? good_state[d]
                                                  : state[d].Lane(lane);
        ASSERT_EQ(engine, latched[d])
            << circuit.name() << " DFF "
            << circuit.node(circuit.dffs()[d]).name << " frame " << t
            << " lane " << lane;
      }
    }
  }
  if (gate_evals != nullptr) *gate_evals = frame.gate_evals();
}

// The cone kernel against full evaluation: every lane of a batch, at
// either width, matches the scalar FaultySimulator, which evaluates
// the whole faulty circuit on every frame.
TYPED_TEST(WideVec, WideFrameConeMatchesFullAtEveryWidth) {
  constexpr int W = TypeParam::value;
  constexpr int kLast = Vec3<W>::kLanes - 1;
  const Circuit circuit = TwoConeCircuit();
  const InputSequence sequence{FromString("00"), FromString("11"),
                               FromString("10"), FromString("X1"),
                               FromString("11"), FromString("01"),
                               FromString("1X"), FromString("11")};
  auto site = [&](const char* node, int pin, bool stuck_at_1) {
    return fault::Fault{{circuit.Find(node), pin}, stuck_at_1};
  };

  // A gate-stem fault in the last lane of the last word.  Its cone,
  // g1 -> q1 -> h1 -> z1, crosses the DFF but never reaches the q2
  // side, and only the gates on its active frontier are evaluated.
  const fault::Fault g1_sa1 = site("g1", -1, true);
  WideFrame<W> frame(circuit);
  const Injection injection = fault::ToInjection(g1_sa1, kLast);
  frame.SetInjections({&injection, 1});
  EXPECT_EQ(frame.cone_size(), 4);
  EXPECT_EQ(frame.active_outputs(), std::vector<int>{0});
  long evals = 0;
  CheckBatchAgainstSerial<W>(circuit, {{g1_sa1, kLast}}, sequence, &evals);
  EXPECT_GT(evals, 0);
  EXPECT_LT(evals, static_cast<long>(sequence.size() *
                                     Compile(circuit)->schedule().size()));

  // One batch mixing every site class the kernel special-cases: a PI
  // stem, a DFF data pin, a gate branch, a stem behind a DFF, and a
  // DFF data pin in the last lane.
  CheckBatchAgainstSerial<W>(circuit,
                             {{site("a", -1, true), 0},
                              {site("q1", 0, false), 1},
                              {site("g2", 1, true), 2},
                              {site("h1", -1, false), 3},
                              {site("q2", 0, true), kLast}},
                             sequence);

  // Random circuits: as many faults as fit beside one fault-free lane,
  // the first of them in the last lane.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Circuit random = retest::testing::MakeRandomCircuit(
        seed, {.num_inputs = 3, .num_dffs = 3, .num_gates = 12});
    const auto faults = fault::EnumerateFaults(random);
    std::vector<LaneFault> batch;
    for (size_t k = 0; k < faults.size() && k + 1 < size_t{kLast}; ++k) {
      batch.emplace_back(faults[k], k == 0 ? kLast : static_cast<int>(k - 1));
    }
    retest::testing::TestRng rng{seed * 389 + 5};
    InputSequence stream(16);
    for (auto& vector : stream) {
      for (int i = 0; i < random.num_inputs(); ++i) {
        const int pick = rng.Below(4);
        vector.push_back(pick == 0 ? V3::kX : (pick & 1 ? V3::k1 : V3::k0));
      }
    }
    CheckBatchAgainstSerial<W>(random, batch, stream);
  }
}

TEST(WideFrame, ConeStepMatchesFaultySimulator) {
  // A g1 stem fault in lane 5: its cone crosses the DFF into z1 but
  // never reaches the q2 side, so z2 stays the good machine while the
  // cone side matches the scalar faulty circuit, latched state
  // included.
  const Circuit circuit = TwoConeCircuit();
  const fault::Fault g1_sa1{{circuit.Find("g1"), -1}, true};
  const Injection injection = fault::ToInjection(g1_sa1, 5);
  WideFrame<1> frame(circuit);
  frame.SetInjections({&injection, 1});
  EXPECT_EQ(frame.cone_size(), 4);  // g1, q1, h1, z1
  EXPECT_EQ(frame.active_outputs(), std::vector<int>{0});

  const InputSequence sequence{FromString("00"), FromString("11"),
                               FromString("10"), FromString("01")};
  const Trace trace(circuit, sequence);
  std::vector<Vec3<1>> state(2);
  for (size_t t = 0; t < sequence.size(); ++t) {
    frame.Step(state, trace.frame(t));
    EXPECT_EQ(frame.word(circuit.Find("z2"), trace.frame(t)),
              Vec3<1>::Broadcast(trace.value(t, circuit.Find("z2"))));
  }
  long evals = 0;
  CheckBatchAgainstSerial<1>(circuit, {{g1_sa1, 5}}, sequence, &evals);
  // At most g1, h1, z1 per frame, and fewer on frames where the fault
  // is not excited; full evaluation would cover the whole schedule.
  EXPECT_LT(evals, static_cast<long>(sequence.size() *
                                     Compile(circuit)->schedule().size()));
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
