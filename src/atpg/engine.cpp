#include "atpg/engine.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
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

  // ---- Checkpoint: load a prior journal if one matches this run.
  const bool checkpointing = !options.checkpoint_path.empty();
  std::uint32_t fingerprint = 0;
  std::optional<JournalContents> replay;
  if (checkpointing) {
    fingerprint = JournalFingerprint(circuit, options, result.faults.size());
    core::DiagnosticList load_diags;
    auto loaded = LoadJournal(options.checkpoint_path, load_diags);
    result.diagnostics.Append(load_diags);
    if (loaded) {
      if (loaded->fingerprint != fingerprint) {
        result.diagnostics.AddNote(
            core::StatusCode::kMismatch,
            "checkpoint journal was written by a different run "
            "configuration (circuit / seed / search options); starting "
            "fresh",
            options.checkpoint_path);
      } else {
        replay = std::move(loaded);
      }
    }
  }

  std::vector<size_t> remaining(result.faults.size());
  for (size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;

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

  // ---- Checkpoint replay: validate the whole journal against this
  // run before applying anything, so a bad journal degrades to a
  // fresh run instead of a corrupted one.  The random phase replays
  // only when it completed un-preempted (otherwise rerunning it from
  // scratch is both correct and necessary); the commit prefix replays
  // up to the first kUntried commit -- the exact point where the
  // interrupted run stopped doing real work.
  bool replay_random = false;
  std::size_t resume_frontier = 0;
  std::vector<char> resume_retired;
  std::vector<JournalCommit> replay_commits;
  if (replay && replay->random_done && !replay->random_stopped) {
    bool valid = true;
    std::vector<char> detected(result.faults.size(), 0);
    for (const JournalRandomTest& record : replay->random_tests) {
      for (std::size_t index : record.detected) {
        if (index >= result.faults.size() || detected[index]) {
          valid = false;
          break;
        }
        detected[index] = 1;
      }
      for (const auto& vector : record.test) {
        if (vector.size() != static_cast<size_t>(circuit.num_inputs())) {
          valid = false;
        }
      }
      if (!valid) break;
    }
    std::size_t detected_count = 0;
    for (char d : detected) detected_count += d != 0 ? 1 : 0;
    if (valid &&
        result.faults.size() - detected_count != replay->remaining_count) {
      valid = false;
    }
    if (!valid) {
      result.diagnostics.AddNote(
          core::StatusCode::kCorruptData,
          "checkpoint journal failed replay validation; starting fresh",
          options.checkpoint_path);
    } else {
      replay_random = true;
    }
  }
  if (replay_random) {
    result.resumed = true;
    for (const JournalRandomTest& record : replay->random_tests) {
      for (std::size_t index : record.detected) {
        result.status[index] = FaultStatus::kDetected;
      }
      result.tests.push_back(record.test);
    }
    std::vector<size_t> still;
    still.reserve(replay->remaining_count);
    for (size_t i = 0; i < result.faults.size(); ++i) {
      if (result.status[i] != FaultStatus::kDetected) still.push_back(i);
    }
    remaining = std::move(still);
    result.evaluations = replay->random_evaluations;

    // Commit-prefix replay.  An inconsistent record simply ends the
    // prefix: everything from there on is re-searched, which is always
    // safe (per-fault searches are pure).
    resume_retired.assign(remaining.size(), 0);
    for (const JournalCommit& commit : replay->commits) {
      if (commit.pos != resume_frontier || commit.pos >= remaining.size()) {
        break;
      }
      if (commit.status == 'U') break;  // the interrupted run's edge
      if (commit.status == 'S') {
        if (!resume_retired[commit.pos]) break;
      } else {
        bool bad = false;
        if (commit.status == 'D') {
          if (commit.test.empty()) bad = true;
          for (const auto& vector : commit.test) {
            if (vector.size() != static_cast<size_t>(circuit.num_inputs())) {
              bad = true;
            }
          }
          for (std::size_t pos : commit.cross_retired) {
            if (pos <= commit.pos || pos >= remaining.size() ||
                resume_retired[pos]) {
              bad = true;
              break;
            }
          }
        }
        if (bad) break;
        FaultStatus status = FaultStatus::kUntried;
        switch (commit.status) {
          case 'D': status = FaultStatus::kDetected; break;
          case 'R': status = FaultStatus::kRedundant; break;
          case 'A': status = FaultStatus::kAborted; break;
          default: break;
        }
        result.status[remaining[commit.pos]] = status;
        result.evaluations += commit.evaluations;
        if (commit.status == 'D') {
          for (std::size_t pos : commit.cross_retired) {
            resume_retired[pos] = 1;
            result.status[remaining[pos]] = FaultStatus::kDetected;
          }
          result.tests.push_back(commit.test);
        }
      }
      replay_commits.push_back(commit);
      ++resume_frontier;
    }
    RETEST_COUNTER_ADD("atpg.checkpoint.commits_replayed", "commits", "atpg",
                       "deterministic commits restored from a checkpoint "
                       "journal instead of re-searched",
                       static_cast<long>(resume_frontier));
  }

  // ---- Checkpoint writer: rewrite the replayed prefix to a tmp file,
  // atomically rename it over the journal, then append live records.
  // A crash mid-rewrite leaves the previous journal intact.
  std::unique_ptr<JournalWriter> journal;
  if (checkpointing) {
    core::DiagnosticList open_diags;
    journal = JournalWriter::Open(options.checkpoint_path, open_diags);
    result.diagnostics.Append(open_diags);
    if (journal) {
      journal->WriteHeader(fingerprint, options.seed, result.faults.size(),
                           circuit.name());
      if (replay_random) {
        for (const JournalRandomTest& record : replay->random_tests) {
          journal->WriteRandomTest(record);
        }
        journal->WriteRandomDone(replay->random_rounds,
                                 replay->random_useless, /*stopped=*/false,
                                 remaining.size(),
                                 replay->random_evaluations);
        for (const JournalCommit& commit : replay_commits) {
          journal->WriteCommit(commit);
        }
      }
      journal->Activate(result.diagnostics);
      journal->Flush();
    }
  }

  // ---- Random phase ----
  if (!replay_random) {
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
        if (journal) {
          JournalRandomTest record;
          record.detected = newly;
          record.test = sequence;
          journal->WriteRandomTest(record);
        }
        result.tests.push_back(std::move(sequence));
        useless = 0;
      } else {
        ++useless;
      }
    }
    if (stopped) result.preempted = true;
    if (journal) {
      journal->WriteRandomDone(rounds_done, useless, stopped,
                               remaining.size(), result.evaluations);
      journal->Flush();
    }
  }

  // ---- Deterministic phase (fault-parallel; see parallel_driver.h) ----
  DetPhaseControl control;
  control.resume_frontier = resume_frontier;
  control.resume_retired = std::move(resume_retired);
  control.journal = journal.get();
  RunDeterministicPhase(circuit, options, remaining, deadline, result,
                        &control);

  if (journal) {
    journal->WriteEnd(result.Count(FaultStatus::kDetected),
                      result.Count(FaultStatus::kRedundant),
                      result.Count(FaultStatus::kAborted),
                      result.Count(FaultStatus::kUntried));
    journal->Flush();
  }

  result.elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return result;
}

}  // namespace retest::atpg
