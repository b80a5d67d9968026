#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "atpg/justify.h"
#include "atpg/podem.h"
#include "atpg/unrolled.h"
#include "atpg/val5.h"
#include "core/crc32.h"
#include "core/trace.h"
#include "fault/collapse.h"
#include "faultsim/serial.h"
#include "fsm/benchmarks.h"
#include "netlist/builder.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "sim/compiled.h"
#include "sim/logic3.h"
#include "synth/synthesize.h"
#include "tests/paper_circuits.h"
#include "tests/random_circuits.h"

namespace retest::atpg {
namespace {

using netlist::Builder;
using netlist::Circuit;
using sim::FromString;
using sim::V3;

TEST(V5Values, Predicates) {
  EXPECT_TRUE(V5::D().IsFaultEffect());
  EXPECT_TRUE(V5::Dbar().IsFaultEffect());
  EXPECT_FALSE(V5::One().IsFaultEffect());
  EXPECT_TRUE(V5::One().IsBinary());
  EXPECT_FALSE(V5::X().IsBinary());
  EXPECT_TRUE(V5::X().HasUnknown());
  EXPECT_FALSE(V5::D().HasUnknown());
}

/// The componentwise fold EvalNode5 replaced: each machine folds its
/// 3-valued inputs through sim::And3 / Or3 / Xor3 and inverts with
/// sim::Not3.
V5 ComponentwiseEvalNode5(netlist::NodeKind kind,
                          std::span<const std::uint32_t> fanins,
                          const V5* values, int fault_pin, V3 forced) {
  using netlist::NodeKind;
  auto fold = [&](V3 unit, V3 (*op)(V3, V3)) {
    V5 out = Both(unit);
    for (size_t pin = 0; pin < fanins.size(); ++pin) {
      V5 in = values[fanins[pin]];
      if (static_cast<int>(pin) == fault_pin) in.faulty = forced;
      out.good = op(out.good, in.good);
      out.faulty = op(out.faulty, in.faulty);
    }
    return out;
  };
  auto invert = [](V5 v) { return V5{sim::Not3(v.good), sim::Not3(v.faulty)}; };
  switch (kind) {
    case NodeKind::kConst0: return Both(V3::k0);
    case NodeKind::kConst1: return Both(V3::k1);
    case NodeKind::kOutput:
    case NodeKind::kBuf:
    case NodeKind::kNot: {
      V5 out = values[fanins[0]];
      if (fault_pin == 0) out.faulty = forced;
      return kind == NodeKind::kNot ? invert(out) : out;
    }
    case NodeKind::kAnd: return fold(V3::k1, sim::And3);
    case NodeKind::kNand: return invert(fold(V3::k1, sim::And3));
    case NodeKind::kOr: return fold(V3::k0, sim::Or3);
    case NodeKind::kNor: return invert(fold(V3::k0, sim::Or3));
    case NodeKind::kXor: return fold(V3::k0, sim::Xor3);
    case NodeKind::kXnor: return invert(fold(V3::k0, sim::Xor3));
    default: return V5::X();
  }
}

// Every kind, every (good, faulty) input combination on up to three
// fanins, with no pin fault and with each pin stuck at 0 and at 1.
TEST(Val5, TableEvaluatorMatchesComponentwiseAlgebra) {
  using netlist::NodeKind;
  const V3 v3[] = {V3::k0, V3::k1, V3::kX};
  const std::vector<std::uint32_t> pins = {0, 1, 2};
  struct Shape {
    NodeKind kind;
    int min_fanins;
    int max_fanins;
  };
  const Shape shapes[] = {
      {NodeKind::kConst0, 0, 0}, {NodeKind::kConst1, 0, 0},
      {NodeKind::kOutput, 1, 1}, {NodeKind::kBuf, 1, 1},
      {NodeKind::kNot, 1, 1},    {NodeKind::kAnd, 1, 3},
      {NodeKind::kNand, 1, 3},   {NodeKind::kOr, 1, 3},
      {NodeKind::kNor, 1, 3},    {NodeKind::kXor, 1, 3},
      {NodeKind::kXnor, 1, 3}};
  for (const Shape& shape : shapes) {
    for (int n = shape.min_fanins; n <= shape.max_fanins; ++n) {
      const std::span<const std::uint32_t> fanins(pins.data(),
                                                  static_cast<size_t>(n));
      int combos = 1;
      for (int i = 0; i < n; ++i) combos *= 9;
      for (int code = 0; code < combos; ++code) {
        V5 values[3];
        for (int i = 0, rest = code; i < n; ++i, rest /= 9) {
          values[i] = {v3[rest % 9 / 3], v3[rest % 3]};
        }
        for (int fault_pin = -1; fault_pin < n; ++fault_pin) {
          for (V3 forced : {V3::k0, V3::k1}) {
            const V3 stuck = fault_pin < 0 ? V3::kX : forced;
            ASSERT_EQ(EvalNode5(shape.kind, fanins, values, fault_pin, stuck),
                      ComponentwiseEvalNode5(shape.kind, fanins, values,
                                             fault_pin, stuck))
                << "kind " << static_cast<int>(shape.kind) << " fanins " << n
                << " code " << code << " pin " << fault_pin;
          }
        }
      }
    }
  }
}

Circuit CombAnd() {
  Builder builder("comb");
  builder.Input("a").Input("b");
  builder.And("g", {"a", "b"});
  builder.Output("z", "g");
  return builder.Build();
}

TEST(Unrolled, CombinationalFaultEffect) {
  const Circuit circuit = CombAnd();
  const fault::Fault fault{{circuit.Find("g"), -1}, false};
  UnrolledModel model(circuit, fault, 1);
  model.AssignPi({0, 0}, V3::k1);
  model.AssignPi({0, 1}, V3::k1);
  model.Evaluate();
  EXPECT_TRUE(model.FaultExcited());
  EXPECT_TRUE(model.FaultObserved());
  EXPECT_EQ(model.value({0, circuit.Find("g")}), V5::D());
}

TEST(Unrolled, UnknownInitialStateIsPinned) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, true};
  UnrolledModel model(circuit, fault, 2);
  model.Evaluate();
  // Frame-0 DFF outputs are X and not controllable.
  EXPECT_FALSE(model.Controllable({0, circuit.Find("q1")}));
  EXPECT_TRUE(model.Controllable({1, circuit.Find("q1")}));
}

TEST(Unrolled, FreeStateIsControllable) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, true};
  UnrolledModel model(circuit, fault, 1, /*free_state=*/true);
  EXPECT_TRUE(model.Controllable({0, circuit.Find("q1")}));
  model.AssignState(0, V3::k1);
  model.Evaluate();
  EXPECT_EQ(model.value({0, circuit.Find("q1")}).good, V3::k1);
}

TEST(Podem, FindsCombinationalTest) {
  const Circuit circuit = CombAnd();
  const fault::Fault fault{{circuit.Find("g"), -1}, false};
  UnrolledModel model(circuit, fault, 1);
  const PodemResult result = RunPodem(model);
  ASSERT_EQ(result.status, PodemStatus::kFound);
  const auto test = model.InputSequence();
  EXPECT_EQ(test[0][0], V3::k1);
  EXPECT_EQ(test[0][1], V3::k1);
}

TEST(Podem, ProvesCombinationalRedundancy) {
  // z = OR(a, AND(a, b)): the AND is functionally absorbed; its
  // s-a-0 output fault is undetectable.
  Builder builder("red");
  builder.Input("a").Input("b");
  builder.And("g", {"a", "b"}).Or("z1", {"a", "g"});
  builder.Output("z", "z1");
  const Circuit circuit = builder.Build();
  const fault::Fault fault{{circuit.Find("g"), -1}, false};
  UnrolledModel model(circuit, fault, 1, /*free_state=*/true,
                      /*observe_state=*/true);
  const PodemResult result = RunPodem(model);
  EXPECT_EQ(result.status, PodemStatus::kExhausted);
}

TEST(Podem, SequentialFaultNeedsTwoFrames) {
  // Fig. 5's N1: a fault on g1 needs one frame to set up q1/q2 and a
  // second to propagate (plus one more for the output register).
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, false};
  {
    UnrolledModel model(circuit, fault, 1);
    EXPECT_NE(RunPodem(model).status, PodemStatus::kFound);
  }
  UnrolledModel model(circuit, fault, 4);
  const PodemResult result = RunPodem(model);
  ASSERT_EQ(result.status, PodemStatus::kFound);
  // Cross-check with the independent serial fault simulator.
  auto test = model.InputSequence();
  for (auto& vector : test) {
    for (auto& v : vector) {
      if (v == V3::kX) v = V3::k0;
    }
  }
  const auto detections =
      faultsim::SimulateSerial(circuit, std::span(&fault, 1), test);
  EXPECT_TRUE(detections[0].detected);
}

TEST(Podem, RespectsBacktrackLimit) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, false};
  UnrolledModel model(circuit, fault, 4);
  PodemOptions options;
  options.max_evaluations = 10;  // absurdly small
  const PodemResult result = RunPodem(model, options);
  EXPECT_EQ(result.status, PodemStatus::kAborted);
}

TEST(Engine, FullCoverageOnSmallCircuit) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  AtpgOptions options;
  options.seed = 3;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_EQ(result.Count(FaultStatus::kUntried), 0);
  EXPECT_GE(result.FaultCoverage(), 99.0);
  EXPECT_GE(result.FaultEfficiency(), result.FaultCoverage());
  EXPECT_FALSE(result.tests.empty());
}

TEST(Engine, GeneratedTestsActuallyDetect) {
  // Every fault the engine reports detected must be detected by the
  // concatenated test stream under independent fault simulation.
  const Circuit circuit = retest::testing::MakeFig3L1();
  AtpgOptions options;
  options.seed = 5;
  const AtpgResult result = RunAtpg(circuit, options);
  const auto stream = result.ConcatenatedTests();
  const auto detections =
      faultsim::SimulateSerial(circuit, result.faults, stream);
  for (size_t i = 0; i < result.faults.size(); ++i) {
    if (result.status[i] == FaultStatus::kDetected) {
      EXPECT_TRUE(detections[i].detected)
          << fault::ToString(circuit, result.faults[i]);
    }
  }
}

TEST(Engine, FindsRedundantFault) {
  Builder builder("red_seq");
  builder.Input("a").Input("b");
  builder.And("g", {"a", "b"}).Or("h", {"a", "g"});
  builder.Dff("q", "h").Output("z", "q");
  const Circuit circuit = builder.Build();
  const AtpgResult result = RunAtpg(circuit);
  EXPECT_GT(result.Count(FaultStatus::kRedundant), 0);
  EXPECT_DOUBLE_EQ(result.FaultEfficiency(), 100.0);
}

TEST(Engine, HonoursTimeBudget) {
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  const Circuit circuit = Synthesize(machine, synthesis);
  AtpgOptions options;
  options.time_budget_ms = 1;  // essentially no time
  options.random_rounds = 0;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_GT(result.Count(FaultStatus::kUntried), 0);
}

// A 1-thread run stays on one thread in every phase: the random
// phase's fault simulations take the run's thread budget instead of
// REPRO_THREADS / hardware concurrency.  dk16 has well over 512
// collapsed faults, so each random-phase simulation has several
// batches that a wider pool would spread over its workers.
TEST(Engine, RandomPhaseHonoursThreadBudget) {
  if (!RETEST_METRICS) GTEST_SKIP() << "trace spans compiled out";
  const Circuit circuit =
      Synthesize(fsm::MakeBenchmarkFsm("dk16"), synth::SynthesisOptions{});
  const char* old = std::getenv("REPRO_THREADS");
  const std::string saved = old ? old : "";
  setenv("REPRO_THREADS", "4", 1);
  core::trace::ResetForTesting();
  core::trace::EnableForTesting(true);
  AtpgOptions options;
  options.num_threads = 1;
  options.max_frames = 4;
  const AtpgResult result = RunAtpg(circuit, options);
  core::trace::EnableForTesting(false);
  std::vector<core::trace::Event> events;
  core::trace::Drain(events);
  core::trace::ResetForTesting();
  if (old) {
    setenv("REPRO_THREADS", saved.c_str(), 1);
  } else {
    unsetenv("REPRO_THREADS");
  }

  ASSERT_GT(result.faults.size(), 1024u);
  std::set<int> batch_threads;
  for (const core::trace::Event& event : events) {
    if (std::string(event.name) == "faultsim.batch") {
      batch_threads.insert(event.tid);
    }
  }
  EXPECT_EQ(batch_threads.size(), 1u);
}

// AtpgResult::evaluations counts the random phase's PROOFS frames, so
// it is host-independent only because the lane width is a function of
// the fault count.  The circuit has more than 64 collapsed faults, so
// its random phase runs 512-lane batches before the deterministic
// phase; the count is the same at any thread count.
TEST(Engine, EvaluationsArePinned) {
  const Circuit circuit = retest::testing::MakeRandomCircuit(
      7, {.num_inputs = 4, .num_dffs = 4, .num_gates = 40});
  for (int threads : {1, 4}) {
    AtpgOptions options;
    options.seed = 11;
    options.num_threads = threads;
    const AtpgResult result = RunAtpg(circuit, options);
    ASSERT_GT(result.faults.size(), 64u);
    EXPECT_FALSE(result.preempted);
    EXPECT_EQ(result.evaluations, 154531) << "threads " << threads;
  }
}

/// A random circuit under a random legal retiming: the retimed
/// circuit's fanout lists are in rewiring order, not netlist order.
Circuit RetimedRandomCircuit(std::uint64_t seed,
                             const retest::testing::RandomCircuitOptions& shape,
                             int moves) {
  const Circuit circuit = retest::testing::MakeRandomCircuit(seed, shape);
  const auto build = retime::BuildGraph(circuit);
  const auto retiming =
      retest::testing::MakeRandomRetiming(build.graph, seed, moves);
  return retime::ApplyRetiming(circuit, build, retiming, "re").circuit;
}

std::string SequenceText(const sim::InputSequence& sequence) {
  std::string text;
  for (const auto& vector : sequence) text += sim::ToString(vector) + "\n";
  return text;
}

// The HITEC path -- free-state PODEM, backward justification, PROOFS
// verification -- on a retimed circuit with the random phase off, as
// Table II runs it.  The values pin the search itself, at any thread
// count: an evaluator change that only makes it faster keeps them.
TEST(Engine, JustificationEvaluationsArePinned) {
  const Circuit circuit = RetimedRandomCircuit(
      7, {.num_inputs = 4, .num_dffs = 4, .num_gates = 40}, 24);
  for (int threads : {1, 4}) {
    AtpgOptions options;
    options.seed = 11;
    options.style = AtpgStyle::kJustification;
    options.random_rounds = 0;
    options.time_budget_ms = 600'000;
    options.num_threads = threads;
    const AtpgResult result = RunAtpg(circuit, options);
    ASSERT_FALSE(result.preempted);
    std::string tests;
    for (const auto& test : result.tests) tests += SequenceText(test) + ";";
    EXPECT_EQ(result.evaluations, 45220746) << "threads " << threads;
    EXPECT_EQ(result.Count(FaultStatus::kDetected), 72);
    EXPECT_EQ(result.Count(FaultStatus::kRedundant), 36);
    EXPECT_EQ(result.Count(FaultStatus::kAborted), 52);
    EXPECT_EQ(core::Crc32(tests), 0xdc4a9564u) << "threads " << threads;
  }
}

// JustifyState on 32 targets of a retimed circuit: half are reachable
// states with some bits relaxed to X, half are random cubes, and every
// other call injects a random fault.  One digest pins every call's
// status, sequence, backtracks and evaluations (evaluations charge one
// full frame per solver step, however much of it a step re-evaluates).
TEST(Justify, RandomTargetsArePinned) {
  const Circuit circuit = RetimedRandomCircuit(
      3, {.num_inputs = 4, .num_dffs = 5, .num_gates = 48}, 30);
  ASSERT_EQ(circuit.num_dffs(), 14);
  const auto faults = fault::Collapse(circuit).representatives;
  const sim::CompiledNetlist net(circuit);
  retest::testing::TestRng rng{42};
  JustifyOptions options;
  options.max_backtracks = 300;
  std::string digest;
  long evaluations = 0;
  int justified = 0;
  for (int k = 0; k < 32; ++k) {
    std::vector<V3> target(static_cast<size_t>(circuit.num_dffs()));
    std::optional<fault::Fault> fault;
    if (k % 4 < 2) {
      sim::Simulator simulator(circuit);
      simulator.Reset();
      const int length = 1 + rng.Below(6);
      for (int step = 0; step < length; ++step) {
        std::vector<V3> inputs(static_cast<size_t>(circuit.num_inputs()));
        for (V3& v : inputs) v = rng.Bit() ? V3::k1 : V3::k0;
        simulator.Step(inputs);
      }
      target = simulator.State();
      for (V3& v : target) {
        if (rng.Bit()) v = V3::kX;
      }
    } else {
      for (V3& v : target) {
        const int pick = rng.Below(5);
        v = pick == 0 ? V3::k0 : pick == 1 ? V3::k1 : V3::kX;
      }
    }
    if (k % 2 == 1) {
      fault = faults[static_cast<size_t>(
          rng.Below(static_cast<int>(faults.size())))];
    }
    const JustifyResult result = JustifyState(net, target, options, fault);
    digest += std::to_string(static_cast<int>(result.status)) + ":" +
              SequenceText(result.sequence) + ":" +
              std::to_string(result.backtracks) + ":" +
              std::to_string(result.evaluations) + ";";
    evaluations += result.evaluations;
    justified += result.status == JustifyStatus::kJustified ? 1 : 0;
  }
  EXPECT_EQ(justified, 6);
  EXPECT_EQ(evaluations, 624105);
  EXPECT_EQ(core::Crc32(digest), 0x47317d02u);
}

// A register-blind fault -- its site is not a DFF and its
// combinational fanout cone holds no DFF data driver -- cannot change
// what the registers latch within a frame.  So justifying a cube with
// it injected gives what the good machine alone gives: the same
// status, sequence, backtracks and evaluations.  The ATPG's
// justification memo shares one entry across such faults on this
// equality.  The compiled register-reachability table is first checked
// against a walk of the Circuit's own fanout lists.
TEST(Justify, RegisterBlindFaultsJustifyLikeTheGoodMachine) {
  JustifyOptions options;
  options.max_depth = 8;
  options.max_backtracks = 200;
  int blind_faults = 0;
  int justified = 0;
  for (std::uint64_t seed : {3, 5, 8}) {
    const Circuit circuit = RetimedRandomCircuit(
        seed, {.num_inputs = 4, .num_dffs = 4, .num_gates = 40}, 24);
    const sim::CompiledNetlist net(circuit);
    std::vector<char> data_driver(static_cast<size_t>(circuit.size()), 0);
    for (netlist::NodeId q : circuit.dffs()) {
      data_driver[static_cast<size_t>(circuit.node(q).fanin[0])] = 1;
    }
    for (netlist::NodeId start = 0; start < circuit.size(); ++start) {
      std::vector<char> seen(static_cast<size_t>(circuit.size()), 0);
      std::vector<netlist::NodeId> stack = {start};
      bool reaches = false;
      while (!stack.empty() && !reaches) {
        const netlist::NodeId id = stack.back();
        stack.pop_back();
        reaches = data_driver[static_cast<size_t>(id)] != 0;
        for (netlist::NodeId sink : circuit.node(id).fanout) {
          if (circuit.node(sink).kind == netlist::NodeKind::kDff ||
              seen[static_cast<size_t>(sink)]) {
            continue;
          }
          seen[static_cast<size_t>(sink)] = 1;
          stack.push_back(sink);
        }
      }
      ASSERT_EQ(net.register_reachable(static_cast<std::uint32_t>(start)),
                reaches)
          << circuit.name() << " node " << start;
    }

    // Two reachable states with bits relaxed to X, two random cubes.
    retest::testing::TestRng rng{seed};
    std::vector<std::vector<V3>> cubes;
    for (int k = 0; k < 4; ++k) {
      std::vector<V3> cube(static_cast<size_t>(circuit.num_dffs()));
      if (k < 2) {
        sim::Simulator simulator(circuit);
        simulator.Reset();
        for (int step = 0; step < 4; ++step) {
          std::vector<V3> inputs(static_cast<size_t>(circuit.num_inputs()));
          for (V3& v : inputs) v = rng.Bit() ? V3::k1 : V3::k0;
          simulator.Step(inputs);
        }
        cube = simulator.State();
        for (V3& v : cube) {
          if (rng.Bit()) v = V3::kX;
        }
      } else {
        for (V3& v : cube) {
          const int pick = rng.Below(4);
          v = pick == 0 ? V3::k0 : pick == 1 ? V3::k1 : V3::kX;
        }
      }
      cubes.push_back(std::move(cube));
    }
    std::vector<JustifyResult> good;
    for (const auto& cube : cubes) {
      good.push_back(JustifyState(net, cube, options));
      justified += good.back().status == JustifyStatus::kJustified ? 1 : 0;
    }

    for (const fault::Fault& fault : fault::Collapse(circuit).representatives) {
      const auto site = static_cast<std::uint32_t>(fault.site.node);
      if (net.kind(site) == netlist::NodeKind::kDff ||
          net.register_reachable(site)) {
        continue;
      }
      ++blind_faults;
      for (size_t k = 0; k < cubes.size(); ++k) {
        const JustifyResult faulty =
            JustifyState(net, cubes[k], options, fault);
        const std::string where = circuit.name() + " " +
                                  fault::ToString(circuit, fault) + " cube " +
                                  sim::ToString(cubes[k]);
        ASSERT_EQ(faulty.status, good[k].status) << where;
        ASSERT_EQ(faulty.sequence, good[k].sequence) << where;
        ASSERT_EQ(faulty.backtracks, good[k].backtracks) << where;
        ASSERT_EQ(faulty.evaluations, good[k].evaluations) << where;
      }
    }
  }
  EXPECT_GT(blind_faults, 0);
  EXPECT_GT(justified, 0);
}

TEST(Unrolled, IncrementalMatchesFullEvaluation) {
  // Random assignment/unassignment sequences: the event-driven values
  // must equal a from-scratch evaluation at every step.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, false};
  UnrolledModel incremental(circuit, fault, 4);
  UnrolledModel reference(circuit, fault, 4);
  std::uint64_t state = 99;
  auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int step = 0; step < 200; ++step) {
    const FramePi pi{static_cast<int>(next() % 4),
                     static_cast<int>(next() % 3)};
    const V3 value = static_cast<V3>(next() % 3);
    incremental.AssignPi(pi, value);
    reference.AssignPi(pi, value);
    reference.Evaluate();
    for (int t = 0; t < 4; ++t) {
      for (netlist::NodeId id = 0; id < circuit.size(); ++id) {
        ASSERT_EQ(incremental.value({t, id}), reference.value({t, id}))
            << "step " << step << " frame " << t << " node "
            << circuit.node(id).name;
      }
    }
    ASSERT_EQ(incremental.FaultObserved(), reference.FaultObserved());
    ASSERT_EQ(incremental.FaultExcited(), reference.FaultExcited());
  }
}

TEST(Unrolled, SetFaultMatchesFreshConstruction) {
  // A model re-armed with SetFault must be indistinguishable from a
  // freshly constructed one, fault after fault, including under
  // incremental assignments.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const auto faults = fault::Collapse(circuit).representatives;
  ASSERT_GT(faults.size(), 2u);
  UnrolledModel reused(circuit, faults[0], 4);
  std::uint64_t state = 17;
  auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (const fault::Fault& fault : faults) {
    reused.SetFault(fault);
    UnrolledModel fresh(circuit, fault, 4);
    for (int step = 0; step < 30; ++step) {
      const FramePi pi{static_cast<int>(next() % 4),
                       static_cast<int>(next() % 3)};
      const V3 value = static_cast<V3>(next() % 3);
      reused.AssignPi(pi, value);
      fresh.AssignPi(pi, value);
    }
    for (int t = 0; t < 4; ++t) {
      for (netlist::NodeId id = 0; id < circuit.size(); ++id) {
        ASSERT_EQ(reused.value({t, id}), fresh.value({t, id}))
            << fault::ToString(circuit, fault) << " frame " << t << " node "
            << circuit.node(id).name;
      }
    }
    ASSERT_EQ(reused.FaultObserved(), fresh.FaultObserved());
    ASSERT_EQ(reused.FaultExcited(), fresh.FaultExcited());
    ASSERT_EQ(reused.InputSequence(), fresh.InputSequence());
  }
}

TEST(Unrolled, GrowFramesMatchesFreshConstruction) {
  // Depth doubling on one reusable model (including shrinking back for
  // the next fault) must match construction at the target depth.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, false};
  UnrolledModel grown(circuit, fault, 1);
  std::uint64_t state = 23;
  auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int frames : {2, 4, 8, 1, 4}) {  // grow, shrink, regrow
    grown.GrowFrames(frames);
    UnrolledModel fresh(circuit, fault, frames);
    for (int step = 0; step < 25; ++step) {
      const FramePi pi{static_cast<int>(next() % frames),
                       static_cast<int>(next() % 3)};
      const V3 value = static_cast<V3>(next() % 3);
      grown.AssignPi(pi, value);
      fresh.AssignPi(pi, value);
    }
    ASSERT_EQ(grown.frames(), frames);
    ASSERT_EQ(grown.InputSequence().size(), static_cast<size_t>(frames));
    for (int t = 0; t < frames; ++t) {
      for (netlist::NodeId id = 0; id < circuit.size(); ++id) {
        ASSERT_EQ(grown.value({t, id}), fresh.value({t, id}))
            << frames << " frames, frame " << t << " node "
            << circuit.node(id).name;
      }
    }
    ASSERT_EQ(grown.FaultObserved(), fresh.FaultObserved());
    ASSERT_EQ(grown.FaultExcited(), fresh.FaultExcited());
  }
}

TEST(Unrolled, SetFaultMatchesFreshFreeObservedModel) {
  // The redundancy-proof configuration (free + observed state) must
  // also be reusable: PODEM verdicts agree with fresh models.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const auto faults = fault::Collapse(circuit).representatives;
  UnrolledModel reused(circuit, faults[0], 1, /*free_state=*/true,
                       /*observe_state=*/true);
  for (const fault::Fault& fault : faults) {
    reused.SetFault(fault);
    UnrolledModel fresh(circuit, fault, 1, /*free_state=*/true,
                        /*observe_state=*/true);
    const PodemResult a = RunPodem(reused);
    const PodemResult b = RunPodem(fresh);
    ASSERT_EQ(a.status, b.status) << fault::ToString(circuit, fault);
    ASSERT_EQ(a.backtracks, b.backtracks);
    ASSERT_EQ(reused.InputSequence(), fresh.InputSequence());
  }
}

TEST(Justify, TrivialTargetNeedsNothing) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  const std::vector<V3> target(3, V3::kX);
  const auto result = JustifyState(sim::CompiledNetlist(circuit), target);
  EXPECT_EQ(result.status, JustifyStatus::kJustified);
  EXPECT_TRUE(result.sequence.empty());
}

TEST(Justify, ReachableStateIsJustified) {
  // N1's state is (q1, q2, q3) = (i1, i2, OR(AND(q1,q2), i3)) one cycle
  // later: any binary state is reachable in two frames.
  const Circuit circuit = retest::testing::MakeFig5N1();
  for (int code = 0; code < 8; ++code) {
    std::vector<V3> target(3);
    for (int b = 0; b < 3; ++b) {
      target[static_cast<size_t>(b)] = (code >> b) & 1 ? V3::k1 : V3::k0;
    }
    const auto result = JustifyState(sim::CompiledNetlist(circuit), target);
    ASSERT_EQ(result.status, JustifyStatus::kJustified) << code;
    // Verify by forward simulation: every non-X target bit must hold.
    sim::Simulator simulator(circuit);
    simulator.Reset();
    for (const auto& vector : result.sequence) simulator.Step(vector);
    const auto state = simulator.State();
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(state[static_cast<size_t>(b)], target[static_cast<size_t>(b)])
          << "code " << code << " bit " << b;
    }
  }
}

TEST(Justify, UnreachableStateFails) {
  // A toggle register q = DFF(NOT q) observed via AND; its companion
  // register q2 = DFF(q) always holds the *opposite* of q one cycle
  // later... construct directly: q2 = DFF(q): (q, q2) = (v, v) is
  // unreachable after the first frame since q2(t+1) = q(t) = NOT
  // q(t+1).
  Builder builder("unreach");
  builder.Input("x").Dff("q").Dff("q2", "q");
  builder.Not("d", "q").SetDffInput("q", "d");
  builder.And("z1", {"x", "q2"}).Output("z", "z1");
  const Circuit circuit = builder.Build();
  atpg::JustifyOptions options;
  options.max_depth = 8;
  const auto result = JustifyState(sim::CompiledNetlist(circuit),
                                   {V3::k1, V3::k1}, options);  // q == q2 == 1
  EXPECT_NE(result.status, JustifyStatus::kJustified);
}

TEST(Justify, CompositeJustificationSyncsFaultyMachine) {
  // With the fault g1 s-a-1 injected, justifying q3=0 must fail in N1:
  // the faulty machine's q3 is forced to OR(1, i3) = 1 every cycle.
  const Circuit circuit = retest::testing::MakeFig5N1();
  const fault::Fault fault{{circuit.Find("g1"), -1}, true};
  const sim::CompiledNetlist net(circuit);
  const auto result = JustifyState(net, {V3::kX, V3::kX, V3::k0}, {}, fault);
  EXPECT_NE(result.status, JustifyStatus::kJustified);
  // The good machine alone could do it.
  const auto good = JustifyState(net, {V3::kX, V3::kX, V3::k0});
  EXPECT_EQ(good.status, JustifyStatus::kJustified);
}

TEST(Engine, JustificationStyleDetectsAndVerifies) {
  const Circuit circuit = retest::testing::MakeFig5N1();
  AtpgOptions options;
  options.style = AtpgStyle::kJustification;
  options.random_rounds = 0;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_GE(result.FaultCoverage(), 90.0);
  // Every claimed detection holds under independent fault simulation.
  const auto stream = result.ConcatenatedTests();
  const auto detections =
      faultsim::SimulateSerial(circuit, result.faults, stream);
  for (size_t i = 0; i < result.faults.size(); ++i) {
    if (result.status[i] == FaultStatus::kDetected) {
      EXPECT_TRUE(detections[i].detected)
          << fault::ToString(circuit, result.faults[i]);
    }
  }
}

TEST(Engine, CoverageOnSynthesizedFsm) {
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  synthesis.explicit_reset = true;
  const Circuit circuit = Synthesize(machine, synthesis);
  AtpgOptions options;
  options.time_budget_ms = 20'000;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_GE(result.FaultCoverage(), 90.0);
}

}  // namespace
}  // namespace retest::atpg
