#include "atpg/engine.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "atpg/journal.h"
#include "atpg/parallel_driver.h"
#include "atpg/rng.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "faultsim/proofs.h"

namespace retest::atpg {
namespace {

using sim::InputSequence;
using sim::V3;

InputSequence RandomSequence(Rng& rng, int num_inputs, int length) {
  InputSequence sequence(static_cast<size_t>(length));
  for (auto& vector : sequence) {
    vector.resize(static_cast<size_t>(num_inputs));
    for (auto& v : vector) v = rng.Bit() ? V3::k1 : V3::k0;
  }
  return sequence;
}

/// Caps the wall-clock budget so the run's deadline cannot overflow
/// steady_clock.
constexpr long kMaxBudgetMs = 365L * 24 * 3600 * 1000;

}  // namespace

int AtpgResult::Count(FaultStatus wanted) const {
  int count = 0;
  for (FaultStatus s : status) count += s == wanted ? 1 : 0;
  return count;
}

double AtpgResult::FaultCoverage() const {
  if (faults.empty()) return 100.0;
  return 100.0 * Count(FaultStatus::kDetected) /
         static_cast<double>(faults.size());
}

double AtpgResult::FaultEfficiency() const {
  if (faults.empty()) return 100.0;
  return 100.0 *
         (Count(FaultStatus::kDetected) + Count(FaultStatus::kRedundant)) /
         static_cast<double>(faults.size());
}

InputSequence AtpgResult::ConcatenatedTests() const {
  InputSequence all;
  for (const InputSequence& test : tests) {
    all.insert(all.end(), test.begin(), test.end());
  }
  return all;
}

AtpgResult RunAtpg(const netlist::Circuit& circuit,
                   const AtpgOptions& options) {
  RETEST_TRACE_SPAN(run_span, "atpg.run");
  RETEST_COUNTER_ADD("atpg.runs", "runs", "atpg", "RunAtpg invocations", 1);
  // The run's one deadline: the random phase and the deterministic
  // driver both compare against it.
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::milliseconds(
                  std::min(options.time_budget_ms, kMaxBudgetMs));
  Rng rng{options.seed};

  AtpgResult result;
  const fault::CollapsedFaults collapsed = fault::Collapse(circuit);
  result.faults = collapsed.representatives;
  result.status.assign(result.faults.size(), FaultStatus::kUntried);

  // ---- Checkpoint: replay a prior journal that matches this run and
  // start this run's journal (atpg/journal).
  std::unique_ptr<Checkpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    checkpoint = Checkpoint::Open(options.checkpoint_path, circuit, options,
                                  result.faults.size(), result.diagnostics);
  }

  std::vector<size_t> remaining(result.faults.size());
  for (size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
  const bool replayed =
      checkpoint != nullptr && checkpoint->Restore(result, remaining);

  /// Fault-simulates `sequence` over the remaining universe, marks the
  /// detected faults, and returns their global indices.
  auto retire_detected =
      [&](const InputSequence& sequence) -> std::vector<size_t> {
    std::vector<fault::Fault> targets;
    targets.reserve(remaining.size());
    for (size_t index : remaining) targets.push_back(result.faults[index]);
    faultsim::ProofsOptions sim_options;
    sim_options.num_threads = options.num_threads;
    const auto sim_result =
        faultsim::SimulateProofs(circuit, targets, sequence, sim_options);
    result.evaluations +=
        sim_result.frames_evaluated * static_cast<long>(circuit.size());
    std::vector<size_t> newly;
    std::vector<size_t> still;
    still.reserve(remaining.size());
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (sim_result.detections[i].detected) {
        result.status[remaining[i]] = FaultStatus::kDetected;
        newly.push_back(remaining[i]);
      } else {
        still.push_back(remaining[i]);
      }
    }
    remaining = std::move(still);
    return newly;
  };

  // ---- Random phase ----
  if (!replayed) {
    RETEST_TRACE_SPAN(random_span, "atpg.random_phase");
    const int sequence_length =
        options.random_length_factor * (circuit.num_dffs() + 4);
    int useless = 0;
    int rounds_done = 0;
    bool stopped = false;
    for (int round = 0; round < options.random_rounds; ++round) {
      if (remaining.empty() || useless >= options.random_patience) break;
      if (std::chrono::steady_clock::now() > deadline ||
          (options.stop != nullptr &&
           options.stop->load(std::memory_order_relaxed))) {
        stopped = true;
        break;
      }
      InputSequence sequence =
          RandomSequence(rng, circuit.num_inputs(), sequence_length);
      RETEST_COUNTER_ADD("atpg.random.sequences", "sequences", "atpg",
                         "candidate sequences tried by the random phase", 1);
      const std::vector<size_t> newly = retire_detected(sequence);
      ++rounds_done;
      if (!newly.empty()) {
        RETEST_COUNTER_ADD("atpg.random.sequences_kept", "sequences", "atpg",
                           "random sequences kept (detected a new fault)",
                           1);
        RETEST_COUNTER_ADD("atpg.random.faults_dropped", "faults", "atpg",
                           "faults detected by the random phase",
                           static_cast<long>(newly.size()));
        if (checkpoint) checkpoint->RecordRandomTest(newly, sequence);
        result.tests.push_back(std::move(sequence));
        useless = 0;
      } else {
        ++useless;
      }
    }
    if (stopped) result.preempted = true;
    if (checkpoint) {
      checkpoint->RecordRandomDone(rounds_done, useless, stopped,
                                   remaining.size(), result.evaluations);
    }
  }

  // ---- Deterministic phase (fault-parallel; see parallel_driver.h) ----
  RunDeterministicPhase(circuit, options, remaining, deadline, result,
                        checkpoint.get());
  if (checkpoint) checkpoint->RecordEnd(result);

  result.elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return result;
}

}  // namespace retest::atpg
