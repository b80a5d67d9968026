// Fault-parallel deterministic-phase driver: thread-count
// determinism, independent verification of parallel detections, and
// wall-clock budget preemption.
#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "faultsim/serial.h"
#include "fsm/benchmarks.h"
#include "synth/synthesize.h"
#include "tests/random_circuits.h"

namespace retest::atpg {
namespace {

using netlist::Circuit;

Circuit MidSizeCircuit() {
  retest::testing::RandomCircuitOptions options;
  options.num_inputs = 6;
  options.num_dffs = 6;
  options.num_gates = 48;
  return retest::testing::MakeRandomCircuit(11, options);
}

void ExpectIdenticalResults(const AtpgResult& a, const AtpgResult& b) {
  ASSERT_EQ(a.status.size(), b.status.size());
  for (size_t i = 0; i < a.status.size(); ++i) {
    EXPECT_EQ(a.status[i], b.status[i]) << "fault " << i;
  }
  EXPECT_EQ(a.tests, b.tests);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_DOUBLE_EQ(a.FaultCoverage(), b.FaultCoverage());
}

TEST(ParallelAtpg, DeterministicAcrossThreadCountsForwardIla) {
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options;
  options.seed = 9;
  options.random_rounds = 2;
  options.time_budget_ms = 600'000;  // never the limiting factor here
  options.num_threads = 1;
  const AtpgResult one = RunAtpg(circuit, options);
  options.num_threads = 4;
  const AtpgResult four = RunAtpg(circuit, options);
  options.num_threads = 3;
  const AtpgResult three = RunAtpg(circuit, options);
  EXPECT_GT(one.Count(FaultStatus::kDetected), 0);
  ExpectIdenticalResults(one, four);
  ExpectIdenticalResults(one, three);
}

TEST(ParallelAtpg, DeterministicAcrossThreadCountsJustification) {
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options;
  options.seed = 4;
  options.style = AtpgStyle::kJustification;
  options.random_rounds = 0;  // the Table II configuration
  options.time_budget_ms = 600'000;
  options.num_threads = 1;
  const AtpgResult one = RunAtpg(circuit, options);
  options.num_threads = 4;
  const AtpgResult four = RunAtpg(circuit, options);
  EXPECT_GT(one.Count(FaultStatus::kDetected), 0);
  ExpectIdenticalResults(one, four);
}

TEST(ParallelAtpg, ParallelDetectionsVerifyUnderSerialSimulation) {
  // Every fault the multi-threaded run claims detected must be
  // detected by the concatenated stream under the independent scalar
  // simulator.
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options;
  options.seed = 5;
  options.random_rounds = 2;
  options.num_threads = 4;
  options.time_budget_ms = 600'000;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_EQ(result.threads_used, 4);
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

TEST(ParallelAtpg, BudgetPreemptsQueuedFaults) {
  // With an exhausted budget the stop flag must preempt the queue:
  // untried faults remain, and the run returns promptly instead of
  // finishing every search.
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  const Circuit circuit = Synthesize(machine, synthesis);
  AtpgOptions options;
  options.time_budget_ms = 1;
  options.random_rounds = 0;
  options.num_threads = 4;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_GT(result.Count(FaultStatus::kUntried), 0);
  EXPECT_LT(result.elapsed_ms, 5'000);
}

}  // namespace
}  // namespace retest::atpg
