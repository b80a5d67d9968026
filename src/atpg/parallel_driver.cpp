#include "atpg/parallel_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "atpg/journal.h"
#include "atpg/justify.h"
#include "atpg/podem.h"
#include "atpg/rng.h"
#include "atpg/unrolled.h"
#include "core/metrics.h"
#include "core/thread_pool.h"
#include "core/trace.h"
#include "faultsim/proofs.h"

namespace retest::atpg {
namespace {

using sim::InputSequence;
using sim::V3;

void FillUnassigned(InputSequence& sequence, Rng& rng) {
  for (auto& vector : sequence) {
    for (auto& v : vector) {
      if (v == V3::kX) v = rng.Bit() ? V3::k1 : V3::k0;
    }
  }
}

/// The speculative result of one fault's deterministic search.
struct FaultOutcome {
  FaultStatus status = FaultStatus::kUntried;
  InputSequence test;     ///< Filled when status == kDetected.
  long evaluations = 0;   ///< Work this search performed.
};

/// One queue position's parking slot.  Exactly one worker writes
/// `outcome` and then publishes it with a release store to `ready`;
/// the committer's acquire load pairs with it, so the outcome is read
/// race-free without any lock on the workers' path.
struct Slot {
  std::atomic<bool> ready{false};
  FaultOutcome outcome;
};

/// Run-wide memo of JustifyState results, shared by the workers.
/// JustifyState is a pure function of (circuit, cube, limits, fault),
/// and the limits are fixed for the run, so an entry is exactly what a
/// fresh call would return: status, sequence, backtracks and
/// evaluations.  Register-blind faults key as kNoFault
/// (Driver::MemoFault).
class JustifyMemo {
 public:
  static constexpr std::size_t kNoFault = SIZE_MAX;

  struct Key {
    std::size_t fault = kNoFault;  ///< Index into AtpgResult::faults.
    std::vector<V3> cube;
    friend bool operator==(const Key&, const Key&) = default;
  };

  std::optional<JustifyResult> Find(const Key& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  /// Stores a result; the caller guarantees no stop cut it short.  Two
  /// workers racing on one key store the same value.
  void Store(Key key, const JustifyResult& result) {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.try_emplace(std::move(key), result);
  }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::uint64_t hash = 0xcbf29ce484222325ull ^ key.fault;  // FNV-1a
      for (V3 v : key.cube) {
        hash = (hash ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ull;
      }
      return static_cast<std::size_t>(hash);
    }
  };

  std::mutex mutex_;
  std::unordered_map<Key, JustifyResult, KeyHash> entries_;
};

/// Per-worker reusable models over the run's shared compiled image;
/// constructed lazily on the worker's first fault and re-armed with
/// SetFault/GrowFrames afterwards.
struct WorkerModels {
  std::optional<UnrolledModel> redundancy;  // 1 frame, free + observed
  std::optional<UnrolledModel> search;      // style-dependent state mode
};

class Driver {
 public:
  Driver(const netlist::Circuit& circuit, const AtpgOptions& options,
         const std::vector<std::size_t>& remaining,
         std::chrono::steady_clock::time_point deadline, AtpgResult& result,
         const DetPhaseControl* control)
      : circuit_(circuit),
        net_(sim::Compile(circuit)),
        options_(options),
        queue_(remaining),
        deadline_(deadline),
        result_(result),
        retired_(remaining.size()),
        slots_(remaining.size()) {
    max_frames_ = options.max_frames;
    if (max_frames_ <= 0) {
      max_frames_ = std::clamp(4 * circuit.num_dffs() + 8, 8, 64);
    }
    for (auto& flag : retired_) flag.store(0, std::memory_order_relaxed);
    if (control != nullptr) {
      journal_ = control->journal;
      frontier_ = std::min(control->resume_frontier, queue_.size());
      for (std::size_t pos = 0;
           pos < control->resume_retired.size() && pos < queue_.size();
           ++pos) {
        retired_[pos].store(control->resume_retired[pos],
                            std::memory_order_relaxed);
      }
    }
  }

  void Run() {
    const std::size_t base = frontier_;
    if (base >= queue_.size()) return;  // journal replay covered everything
    RETEST_TRACE_SPAN(phase_span, "atpg.deterministic_phase");
    RETEST_COUNTER_ADD("atpg.det.faults_dispatched", "faults", "atpg",
                       "faults entering the deterministic phase",
                       static_cast<long>(queue_.size() - base));
    const int threads = std::max(
        1, std::min<int>(core::ResolveThreadCount(options_.num_threads),
                         static_cast<int>(queue_.size() - base)));
    result_.threads_used = threads;
    std::vector<WorkerModels> models(static_cast<std::size_t>(threads));
    core::ThreadPool pool(threads);
    pool.ParallelFor(queue_.size() - base, [&](int worker, std::size_t i) {
      const std::size_t item = base + i;
      // A racy-by-design optimization, exactly as racy as it always
      // was: whether a worker observes the retirement only decides
      // whether a speculative search is skipped; the committed result
      // is fixed at commit time either way.
      const bool claimed_retired =
          retired_[item].load(std::memory_order_relaxed) != 0;
      FaultOutcome outcome;  // kUntried: discarded or budget-preempted
      if (claimed_retired) {
        RETEST_COUNTER_ADD("atpg.det.faults_claimed_retired", "faults",
                           "atpg",
                           "faults already retired when a worker claimed "
                           "them (searches skipped)",
                           1);
      } else if (OutOfTime()) {
        RETEST_COUNTER_ADD("atpg.det.budget_preemptions", "faults", "atpg",
                           "faults preempted (kUntried) by the wall-clock "
                           "budget before their search started",
                           1);
      } else {
        RETEST_TRACE_SPAN(search_span, "atpg.fault_search");
        RETEST_SCOPED_TIMER(search_timer, "atpg.fault_search_ms", "atpg",
                            "wall time of one fault's deterministic search");
        outcome = Search(queue_[item], FaultSeed(options_.seed, queue_[item]),
                         models[static_cast<std::size_t>(worker)]);
      }
      Park(item, std::move(outcome));
    });
    // A park can lose the drain race right at the end of the loop (its
    // try_lock fails while the holder has already scanned past it);
    // one blocking drain retires any such leftovers deterministically.
    DrainFrontier(/*blocking=*/true);
    if (stop_.load(std::memory_order_relaxed)) result_.preempted = true;
  }

 private:
  /// The one stop predicate every search site reads: the run's stop
  /// flag, or the caller's cancel, which it latches into the stop flag
  /// so the result reports preempted.  Both flags only ever rise.
  bool Stopped() {
    if (stop_.load(std::memory_order_relaxed)) return true;
    if (options_.stop == nullptr ||
        !options_.stop->load(std::memory_order_relaxed)) {
      return false;
    }
    if (!stop_.exchange(true, std::memory_order_relaxed)) {
      RETEST_COUNTER_ADD("atpg.det.cancel_stops", "stops", "atpg",
                         "deterministic phases cut short by an external "
                         "cancel (AtpgOptions::stop)",
                         1);
    }
    return true;
  }

  /// Stopped(), or latches the stop flag once the run's deadline has
  /// passed, so every worker and every in-flight search sees it.
  bool OutOfTime() {
    if (Stopped()) return true;
    if (std::chrono::steady_clock::now() <= deadline_) return false;
    if (!stop_.exchange(true, std::memory_order_relaxed)) {
      RETEST_COUNTER_ADD("atpg.det.budget_stops", "stops", "atpg",
                         "deterministic phases cut short by the "
                         "wall-clock budget",
                         1);
    }
    return true;
  }

  /// The memo key's fault for `fault_index`: kNoFault when the fault is
  /// register-blind -- its site is not a DFF and its combinational
  /// fanout cone holds no DFF data driver.  Then JustifyState with the
  /// fault equals JustifyState without it: values outside the cone are
  /// the same in both machines, the targets latch outside it, a
  /// backtrace from a DFF data driver never enters it, and every solver
  /// step charges a full frame whatever it re-evaluates.
  std::size_t MemoFault(std::size_t fault_index) const {
    const auto site =
        static_cast<std::uint32_t>(result_.faults[fault_index].site.node);
    const bool blind = net_->kind(site) != netlist::NodeKind::kDff &&
                       !net_->register_reachable(site);
    return blind ? JustifyMemo::kNoFault : fault_index;
  }

  /// Pure per-fault search: depends only on (circuit, fault, seed) and
  /// the option limits.  A stop reports kUntried so a half-searched
  /// fault is never committed as a genuine abort.  Stopped() only ever
  /// turns true, so a result read while it is false was not cut short.
  FaultOutcome Search(std::size_t fault_index, std::uint64_t seed,
                      WorkerModels& models) {
    const fault::Fault& fault = result_.faults[fault_index];
    FaultOutcome out;
    Rng rng{seed};
    out.status = FaultStatus::kAborted;

    // Redundancy proof: one frame, free and observed state.
    if (options_.redundancy_check) {
      if (models.redundancy) {
        models.redundancy->SetFault(fault);
      } else {
        models.redundancy.emplace(net_, fault, 1, /*free_state=*/true,
                                  /*observe_state=*/true);
      }
      PodemOptions podem_options;
      podem_options.max_backtracks = options_.backtracks_per_fault * 8;
      podem_options.max_evaluations = options_.evaluations_per_fault;
      podem_options.stop = &stop_;
      podem_options.cancel = options_.stop;
      const PodemResult proof = RunPodem(*models.redundancy, podem_options);
      out.evaluations += proof.evaluations;
      if (proof.status == PodemStatus::kExhausted) {
        out.status = FaultStatus::kRedundant;
        return out;
      }
    }

    const bool free_state = options_.style == AtpgStyle::kJustification;
    for (int frames = 1; frames <= max_frames_; frames *= 2) {
      if (OutOfTime()) {
        out.status = FaultStatus::kUntried;
        return out;
      }
      if (!models.search) {
        models.search.emplace(net_, fault, frames, free_state);
      } else if (frames == 1) {
        models.search->SetFault(fault, 1);
      } else {
        models.search->GrowFrames(frames);
      }
      UnrolledModel& model = *models.search;
      PodemOptions podem_options;
      podem_options.max_backtracks = options_.backtracks_per_fault;
      podem_options.max_evaluations = options_.evaluations_per_fault;
      podem_options.stop = &stop_;
      podem_options.cancel = options_.stop;
      const PodemResult search = RunPodem(model, podem_options);
      out.evaluations += search.evaluations;
      if (Stopped()) {
        out.status = FaultStatus::kUntried;  // stop-induced abort
        return out;
      }
      if (options_.style == AtpgStyle::kForwardIla) {
        if (search.status != PodemStatus::kFound) continue;
        // Unassigned inputs: fill with random binary values (cannot
        // lose the detection; it only refines X).
        out.test = model.InputSequence();
        FillUnassigned(out.test, rng);
        out.status = FaultStatus::kDetected;
        return out;
      }
      // HITEC-style: backward-justify the state the combinational test
      // requires, then verify by fault simulation.
      if (search.status != PodemStatus::kFound) continue;
      // A stop raised during justification or verification commits
      // kUntried (re-searched on resume), never a cut-short kAborted.
      JustifyMemo::Key key{MemoFault(fault_index), model.StateAssignments()};
      JustifyResult justified;
      if (std::optional<JustifyResult> hit = memo_.Find(key)) {
        justified = std::move(*hit);
        RETEST_COUNTER_ADD("atpg.justify.memo_hits", "calls", "atpg",
                           "justification attempts answered by the run's "
                           "memo instead of a search",
                           1);
      } else {
        JustifyOptions justify_options;
        justify_options.max_depth = options_.justify_max_depth;
        justify_options.max_backtracks = options_.justify_backtracks;
        justify_options.stop = &stop_;
        justify_options.cancel = options_.stop;
        justified = JustifyState(*net_, key.cube, justify_options, fault);
        if (!Stopped()) {
          memo_.Store(std::move(key), justified);
        }
      }
      out.evaluations += justified.evaluations;
      RETEST_COUNTER_ADD("atpg.justify.calls", "calls", "atpg",
                         "backward state-justification attempts", 1);
      RETEST_COUNTER_ADD("atpg.justify.evaluations", "node-evals", "atpg",
                         "node evaluations charged by backward justification",
                         justified.evaluations);
      if (Stopped()) {
        out.status = FaultStatus::kUntried;
        return out;
      }
      if (justified.status == JustifyStatus::kJustified) {
        RETEST_COUNTER_ADD("atpg.justify.justified", "calls", "atpg",
                           "justification attempts that found a state "
                           "sequence",
                           1);
      }
      if (justified.status != JustifyStatus::kJustified) continue;

      InputSequence candidate = std::move(justified.sequence);
      for (const auto& vector : model.InputSequence()) {
        candidate.push_back(vector);
      }
      FillUnassigned(candidate, rng);
      // Verify by fault simulation (HITEC does the same) on the
      // cone-restricted PROOFS engine (one fault: one 64-lane batch).
      faultsim::ProofsOptions proofs;
      proofs.num_threads = 1;
      const auto verdict =
          faultsim::SimulateProofs(circuit_, std::span(&fault, 1), candidate,
                                   proofs);
      out.evaluations += verdict.frames_evaluated *
                         static_cast<long>(circuit_.size());
      if (Stopped()) {
        out.status = FaultStatus::kUntried;
        return out;
      }
      if (!verdict.detections[0].detected) continue;
      out.status = FaultStatus::kDetected;
      out.test = std::move(candidate);
      return out;
    }
    return out;
  }

  /// Parks a speculative result and opportunistically services the
  /// commit frontier.  Parking itself is lock-free (a release store
  /// into this position's slot); the frontier is then drained by
  /// whichever single worker wins a try_lock, so the expensive commit
  /// work -- cross-worker retirement fault simulation and journal
  /// writes -- never blocks the other workers' searches.  This is the
  /// fix for the PR-2 scaling collapse, where every worker parked
  /// through one mutex that the retirement simulation was held under.
  void Park(std::size_t item, FaultOutcome outcome) {
    RETEST_SCOPED_TIMER(wait_timer, "atpg.frontier.wait_ms", "atpg",
                        "time a worker spends publishing a result and "
                        "servicing the commit frontier instead of searching");
    Slot& slot = slots_[item];
    slot.outcome = std::move(outcome);
    slot.ready.store(true, std::memory_order_seq_cst);
    DrainFrontier(/*blocking=*/false);
  }

  /// Advances the commit frontier over every contiguous ready slot.
  /// Single-committer: commits happen strictly in queue order under
  /// commit_mutex_, so the retirement state each commit observes is a
  /// pure function of the commit prefix -- bit-identical results at
  /// any thread count.  The journal (when enabled) is flushed once per
  /// drain batch, off the workers' search path, instead of once per
  /// frontier advance; a crash loses at most the unflushed tail, which
  /// journal replay already tolerates.
  ///
  /// Non-blocking callers that lose the try_lock return immediately --
  /// the lock holder will scan their slot, or, if it raced past, the
  /// post-unlock recheck (or the final blocking drain in Run) picks it
  /// up.  The seq_cst store in Park and the seq_cst recheck load below
  /// guarantee at least one of the two parties sees the other.
  void DrainFrontier(bool blocking) {
    for (;;) {
      std::unique_lock<std::mutex> lock(commit_mutex_, std::defer_lock);
      if (blocking) {
        lock.lock();
      } else if (!lock.try_lock()) {
        return;
      }
      std::size_t advanced = 0;
      while (frontier_ < queue_.size() &&
             slots_[frontier_].ready.load(std::memory_order_acquire)) {
        Commit(frontier_);
        ++frontier_;
        ++advanced;
      }
      if (journal_ != nullptr && advanced > 0) {
        journal_->Flush();
        RETEST_COUNTER_ADD("atpg.checkpoint.flushes", "flushes", "atpg",
                           "checkpoint journal flushes at the commit "
                           "frontier (one per drain batch)",
                           1);
      }
      const std::size_t next = frontier_;
      lock.unlock();
      if (next >= queue_.size()) return;
      if (!slots_[next].ready.load(std::memory_order_seq_cst)) return;
      blocking = false;  // someone parked `next` while we held the lock
    }
  }

  /// Applies outcome `pos` in fault order (commit_mutex_ held).  A
  /// fault retired by an earlier committed test keeps its kDetected
  /// status and its speculative result is discarded -- the serial
  /// semantics of never searching an already-detected fault.
  void Commit(std::size_t pos) {
    FaultOutcome& outcome = slots_[pos].outcome;
    if (retired_[pos].load(std::memory_order_relaxed) != 0) {
      RETEST_COUNTER_ADD("atpg.det.speculation_discarded", "faults", "atpg",
                         "speculative results discarded at commit because "
                         "an earlier test already retired the fault",
                         1);
      outcome.test.clear();
      if (journal_ != nullptr) {
        JournalCommit record;
        record.pos = pos;
        record.status = 'S';
        journal_->WriteCommit(record);
      }
      return;
    }
    const std::size_t fault_index = queue_[pos];
    result_.status[fault_index] = outcome.status;
    result_.evaluations += outcome.evaluations;
    long committed_evaluations = outcome.evaluations;
    std::vector<std::size_t> cross;
    if (outcome.status == FaultStatus::kDetected) {
      // The generated sequence usually catches more faults: retire
      // them from the live pending universe beyond the frontier.
      std::vector<fault::Fault> targets;
      std::vector<std::size_t> positions;
      targets.reserve(queue_.size() - pos);
      for (std::size_t j = pos + 1; j < queue_.size(); ++j) {
        if (retired_[j].load(std::memory_order_relaxed) != 0) continue;
        targets.push_back(result_.faults[queue_[j]]);
        positions.push_back(j);
      }
      if (!targets.empty()) {
        faultsim::ProofsOptions proofs;
        proofs.num_threads = 1;  // workers already saturate the pool
        const auto sim =
            faultsim::SimulateProofs(circuit_, targets, outcome.test, proofs);
        const long sim_evaluations =
            sim.frames_evaluated * static_cast<long>(circuit_.size());
        result_.evaluations += sim_evaluations;
        committed_evaluations += sim_evaluations;
        for (std::size_t k = 0; k < positions.size(); ++k) {
          if (!sim.detections[k].detected) continue;
          retired_[positions[k]].store(1, std::memory_order_relaxed);
          result_.status[queue_[positions[k]]] = FaultStatus::kDetected;
          cross.push_back(positions[k]);
        }
        RETEST_COUNTER_ADD("atpg.det.faults_cross_retired", "faults", "atpg",
                           "pending faults retired by another fault's "
                           "committed test",
                           static_cast<long>(cross.size()));
      }
      RETEST_COUNTER_ADD("atpg.det.tests_committed", "tests", "atpg",
                         "tests committed by the deterministic phase", 1);
    }
    if (journal_ != nullptr) {
      JournalCommit record;
      record.pos = pos;
      record.status = StatusChar(outcome.status);
      record.evaluations = committed_evaluations;
      record.cross_retired = cross;
      if (outcome.status == FaultStatus::kDetected) {
        record.test = outcome.test;
      }
      journal_->WriteCommit(record);
    }
    if (outcome.status == FaultStatus::kDetected) {
      result_.tests.push_back(std::move(outcome.test));
    }
  }

  static char StatusChar(FaultStatus status) {
    switch (status) {
      case FaultStatus::kDetected: return 'D';
      case FaultStatus::kRedundant: return 'R';
      case FaultStatus::kAborted: return 'A';
      case FaultStatus::kUntried: return 'U';
    }
    return 'U';
  }

  const netlist::Circuit& circuit_;
  /// Built once per run; every worker's models and justification
  /// searches evaluate from it read-only.
  const std::shared_ptr<const sim::CompiledNetlist> net_;
  const AtpgOptions& options_;
  const std::vector<std::size_t>& queue_;
  const std::chrono::steady_clock::time_point deadline_;
  AtpgResult& result_;
  int max_frames_ = 0;
  JournalWriter* journal_ = nullptr;

  std::atomic<bool> stop_{false};
  /// Retirement flags by queue position.  Written only by the single
  /// committer (under commit_mutex_); read lock-free by claiming
  /// workers as a skip-the-search hint.  Monotonic 0 -> 1.
  std::vector<std::atomic<std::uint8_t>> retired_;
  std::vector<Slot> slots_;
  /// Serializes commit draining; never held while parking or
  /// searching.  frontier_ is only touched with it held.
  std::mutex commit_mutex_;
  std::size_t frontier_ = 0;
  /// Dies with the run; every worker reads and fills it.
  JustifyMemo memo_;
};

}  // namespace

void RunDeterministicPhase(const netlist::Circuit& circuit,
                           const AtpgOptions& options,
                           const std::vector<std::size_t>& remaining,
                           std::chrono::steady_clock::time_point deadline,
                           AtpgResult& result,
                           const DetPhaseControl* control) {
  Driver driver(circuit, options, remaining, deadline, result, control);
  driver.Run();
}

}  // namespace retest::atpg
