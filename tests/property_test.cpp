// Property-based verification of the paper's theorems on randomly
// generated circuits and randomly generated legal retimings
// (parameterized gtest sweeps over seeds).
#include <gtest/gtest.h>

#include "core/preserve.h"
#include "core/syncseq.h"
#include "fault/collapse.h"
#include "fault/correspondence.h"
#include "faultsim/proofs.h"
#include "faultsim/serial.h"
#include "netlist/bench_io.h"
#include "retime/apply.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"
#include "retime/moves.h"
#include "stg/containment.h"
#include "tests/random_circuits.h"

namespace retest {
namespace {

using netlist::Circuit;
using retest::testing::MakeRandomCircuit;
using retest::testing::MakeRandomRetiming;
using retest::testing::TestRng;
using sim::InputSequence;
using sim::V3;

InputSequence RandomStream(TestRng& rng, int width, int length) {
  InputSequence stream(static_cast<size_t>(length));
  for (auto& vector : stream) {
    vector.resize(static_cast<size_t>(width));
    for (auto& v : vector) v = rng.Bit() ? V3::k1 : V3::k0;
  }
  return stream;
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST_P(SeededProperty, BenchRoundTripPreservesBehaviour) {
  const Circuit circuit = MakeRandomCircuit(GetParam());
  const Circuit again =
      netlist::ReadBenchString(netlist::WriteBenchString(circuit), "rt");
  TestRng rng{GetParam() + 77};
  const InputSequence stream = RandomStream(rng, circuit.num_inputs(), 20);
  sim::Simulator a(circuit);
  sim::Simulator b(again);
  a.Reset();
  b.Reset();
  EXPECT_EQ(a.Run(stream), b.Run(stream));
}

TEST_P(SeededProperty, ProofsMatchesSerial) {
  const Circuit circuit = MakeRandomCircuit(GetParam());
  const auto faults = fault::EnumerateFaults(circuit);
  TestRng rng{GetParam() + 123};
  const InputSequence stream = RandomStream(rng, circuit.num_inputs(), 30);
  const auto serial = faultsim::SimulateSerial(circuit, faults, stream);
  const auto proofs = faultsim::SimulateProofs(circuit, faults, stream);
  for (size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(serial[i].detected, proofs.detections[i].detected)
        << ToString(circuit, faults[i]);
    if (serial[i].detected) {
      EXPECT_EQ(serial[i].time, proofs.detections[i].time);
    }
  }
}

TEST_P(SeededProperty, MinPeriodNeverWorsens) {
  const Circuit circuit = MakeRandomCircuit(GetParam());
  const auto build = retime::BuildGraph(circuit);
  const auto result = retime::MinimizePeriod(build.graph);
  EXPECT_LE(result.period, result.original_period);
  EXPECT_TRUE(build.graph.IsLegal(result.retiming.lags));
}

TEST_P(SeededProperty, MinRegNeverWorsens) {
  const Circuit circuit = MakeRandomCircuit(GetParam());
  const auto build = retime::BuildGraph(circuit);
  const auto result = retime::MinimizeRegisters(build.graph);
  EXPECT_LE(result.registers, result.original_registers);
  EXPECT_TRUE(build.graph.IsLegal(result.retiming.lags));
  // Register count must equal the DFF count of the applied netlist.
  const auto applied =
      retime::ApplyRetiming(circuit, build, result.retiming, "minreg");
  EXPECT_EQ(applied.circuit.num_dffs(), result.registers);
}

TEST_P(SeededProperty, RetimedOutputsAgreeAfterPrefix) {
  // The paper's value-propagation argument: for any input stream, the
  // retimed circuit produces the same (binary) output values once the
  // stream has supplied the F arbitrary prefix vectors.
  const Circuit circuit = MakeRandomCircuit(GetParam());
  const auto build = retime::BuildGraph(circuit);
  const auto retiming = MakeRandomRetiming(build.graph, GetParam());
  const auto applied = retime::ApplyRetiming(circuit, build, retiming, "re");
  const auto counts = retime::CountMoves(build.graph, retiming);

  TestRng rng{GetParam() + 5};
  const InputSequence stream = RandomStream(rng, circuit.num_inputs(), 40);
  sim::Simulator a(circuit);
  sim::Simulator b(applied.circuit);
  a.Reset();
  b.Reset();
  // Skip the transient: prefix F plus the original circuit's own
  // unknown-state flush (bounded by the stream length we check).
  const int settle = counts.max_forward_any + counts.max_backward_any;
  for (size_t t = 0; t < stream.size(); ++t) {
    const auto out_a = a.Step(stream[t]);
    const auto out_b = b.Step(stream[t]);
    if (static_cast<int>(t) < settle) continue;
    for (size_t o = 0; o < out_a.size(); ++o) {
      if (out_a[o] != V3::kX && out_b[o] != V3::kX) {
        EXPECT_EQ(out_a[o], out_b[o]) << "t=" << t << " o=" << o;
      }
    }
  }
}

TEST_P(SeededProperty, Theorem4TestSetPreservation) {
  // For every fault f' in the retimed circuit whose corresponding
  // original faults are ALL detected by a stream S, the prefixed
  // stream P + S detects f' (Theorem 4; P = F arbitrary vectors).
  const Circuit circuit = MakeRandomCircuit(GetParam());
  const auto build = retime::BuildGraph(circuit);
  const auto retiming = MakeRandomRetiming(build.graph, GetParam() + 1000);
  const auto applied = retime::ApplyRetiming(circuit, build, retiming, "re");
  const auto correspondence =
      fault::BuildCorrespondence(build, retiming, applied);
  const int prefix_length = core::PrefixLength(build.graph, retiming);

  TestRng rng{GetParam() + 9};
  const InputSequence stream = RandomStream(rng, circuit.num_inputs(), 60);
  InputSequence prefixed = core::MakePrefix(
      prefix_length, circuit.num_inputs(), core::PrefixStyle::kRandom,
      GetParam());
  prefixed.insert(prefixed.end(), stream.begin(), stream.end());

  const auto original_faults = fault::EnumerateFaults(circuit);
  const auto original_result =
      faultsim::SimulateProofs(circuit, original_faults, stream);
  auto detected_in_original = [&](const fault::Fault& f) {
    for (size_t i = 0; i < original_faults.size(); ++i) {
      if (original_faults[i] == f) {
        return original_result.detections[i].detected;
      }
    }
    ADD_FAILURE() << "missing original fault " << ToString(circuit, f);
    return false;
  };

  const auto retimed_faults = fault::EnumerateFaults(applied.circuit);
  const auto retimed_result =
      faultsim::SimulateProofs(applied.circuit, retimed_faults, prefixed);

  int checked = 0;
  for (size_t i = 0; i < retimed_faults.size(); ++i) {
    const fault::Fault& fp = retimed_faults[i];
    const auto it = correspondence.to_original.find(fp.site);
    ASSERT_NE(it, correspondence.to_original.end())
        << ToString(applied.circuit, fp);
    bool all_detected = true;
    for (const fault::Site& site : it->second) {
      if (!detected_in_original({site, fp.stuck_at_1})) {
        all_detected = false;
        break;
      }
    }
    if (!all_detected) continue;
    ++checked;
    EXPECT_TRUE(retimed_result.detections[i].detected)
        << "fault " << ToString(applied.circuit, fp)
        << " undetected in retimed circuit despite all corresponding "
           "faults detected in the original";
  }
  // The property must not be vacuous.
  EXPECT_GT(checked, 0);
}

TEST_P(SeededProperty, Theorem1StructuralSyncPreserved) {
  const Circuit circuit = MakeRandomCircuit(GetParam());
  const auto sequence = core::FindStructuralSyncSequence(circuit);
  if (!sequence) GTEST_SKIP() << "circuit not structurally synchronizable";
  const auto build = retime::BuildGraph(circuit);
  const auto retiming = MakeRandomRetiming(build.graph, GetParam() + 2000);
  const auto applied = retime::ApplyRetiming(circuit, build, retiming, "re");
  EXPECT_TRUE(core::StructurallySynchronizes(applied.circuit, *sequence));
}

class SmallSeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SmallSeededProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST_P(SmallSeededProperty, Lemma2TimeEquivalenceBounds) {
  // On STG-enumerable circuits: K' >=_Bt K, K >=_Ft K', with F/B the
  // stem move maxima (the tightened Lemma 2 bounds).
  retest::testing::RandomCircuitOptions options;
  options.num_inputs = 2;
  options.num_dffs = 3;
  options.num_gates = 7;
  const Circuit circuit = MakeRandomCircuit(GetParam(), options);
  const auto build = retime::BuildGraph(circuit);
  const auto retiming = MakeRandomRetiming(build.graph, GetParam() + 3000, 8);
  const auto applied = retime::ApplyRetiming(circuit, build, retiming, "re");
  if (applied.circuit.num_dffs() > 8) GTEST_SKIP() << "state too large";

  const auto counts = retime::CountMoves(build.graph, retiming);
  const stg::Stg k = stg::Extract(circuit);
  const stg::Stg kp = stg::Extract(applied.circuit);
  EXPECT_TRUE(stg::NTimeContains(kp, k, counts.max_backward_stem))
      << "K' >=_Bt K violated (B=" << counts.max_backward_stem << ")";
  EXPECT_TRUE(stg::NTimeContains(k, kp, counts.max_forward_stem))
      << "K >=_Ft K' violated (F=" << counts.max_forward_stem << ")";
  // And the N-time-equivalence with N = max(F, B).
  const int n = counts.time_equivalence_bound();
  EXPECT_TRUE(stg::NTimeContains(kp, k, n));
  EXPECT_TRUE(stg::NTimeContains(k, kp, n));
}

TEST_P(SmallSeededProperty, Lemma1GateOnlyRetimingIsSpaceEquivalent) {
  // Retimings that move registers only across single-output gates (no
  // stem vertices) preserve space equivalence.
  retest::testing::RandomCircuitOptions options;
  options.num_inputs = 2;
  options.num_dffs = 3;
  options.num_gates = 7;
  const Circuit circuit = MakeRandomCircuit(GetParam(), options);
  const auto build = retime::BuildGraph(circuit);
  // Random walk restricted to gate vertices.
  TestRng rng{GetParam() * 31 + 7};
  retime::Retiming retiming;
  retiming.lags.assign(static_cast<size_t>(build.graph.num_vertices()), 0);
  for (int m = 0; m < 10; ++m) {
    const int v = rng.Below(build.graph.num_vertices());
    if (build.graph.vertices[static_cast<size_t>(v)].kind !=
        retime::VertexKind::kGate) {
      continue;
    }
    const int direction = rng.Bit() ? 1 : -1;
    retiming.lags[static_cast<size_t>(v)] += direction;
    if (!build.graph.IsLegal(retiming.lags)) {
      retiming.lags[static_cast<size_t>(v)] -= direction;
    }
  }
  const auto applied = retime::ApplyRetiming(circuit, build, retiming, "re");
  if (applied.circuit.num_dffs() > 8) GTEST_SKIP() << "state too large";
  const stg::Stg k = stg::Extract(circuit);
  const stg::Stg kp = stg::Extract(applied.circuit);
  EXPECT_TRUE(stg::SpaceEquivalent(k, kp));
}

}  // namespace
}  // namespace retest
