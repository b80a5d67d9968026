// The ATPG-as-a-service job engine behind repro_serve.
//
// Service owns everything between a parsed request and a result frame:
// admission control, validation, the job registry, spool persistence,
// and execution on its own worker threads.  It is transport-free — the
// socket layer (core/server/server.h), the batch mode and the
// tests all drive the same class, which is what makes "daemon result ==
// batch-tool result" a bit-identity claim rather than a convention.
//
// Lifecycle of one job:
//   Submit(spec)  -> validate netlists through the total parser
//                    (netlist/bench_io + netlist/check; every problem
//                    reported, nothing thrown)
//                 -> admission control: draining or queued >= max_queue
//                    answers a reject, never a silent drop
//                 -> spool (optional): the canonical SUBMIT payload is
//                    written to <spool>/<id>.job (tmp+rename) before
//                    the job is enqueued, and the job's checkpoint
//                    journal goes to <spool>/<id>.journal
//                 -> the run queue, ordered by the spec's priority
//                    (higher first), FIFO within a priority; `threads`
//                    is clamped to [1, num_workers] and deadline_ms
//                    caps the ATPG run's wall-clock budget
//   worker        -> an idle worker pops the queue's head, so the
//                    highest-priority queued job always runs next
//   completion    -> the result JSON is built on the worker, stored in
//                    the registry, written to <spool>/<id>.result.json,
//                    the .job/.journal files are removed, and the
//                    completion callback fires (the server turns it
//                    into a result frame).
//
// Crash recovery: a daemon killed mid-job leaves <id>.job (and usually
// <id>.journal) in the spool.  The next Service over the same spool
// re-parses every .job file and resubmits it under its original id;
// the ATPG checkpoint journal (atpg/journal) then replays committed
// work, so the resumed job lands on the bit-identical result of an
// uninterrupted run.  Finished results (<id>.result.json) survive and
// are served to RESULT queries.  docs/SERVING.md states the client-
// visible semantics; tests/serve_e2e_test.cpp proves kill -9 resume.
//
// Thread-safety: every public method may be called from any thread
// (transport connection threads, the progress ticker, the workers via
// the completion callback).  The registry mutex, which also guards the
// run queue, is never held while a job body runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "core/server/protocol.h"
#include "core/status.h"
#include "netlist/circuit.h"

namespace retest::core::server {

struct ServiceOptions {
  /// Worker threads; <= 0 = core::ResolveThreadCount default.
  int num_workers = 0;
  /// Admission bound on *queued* (not yet running) jobs.
  std::size_t max_queue = 64;
  /// Spool directory for crash-safe job persistence; "" disables.
  std::string spool_dir;
};

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

std::string_view ToString(JobState state);

/// Registry snapshot of one job, safe to copy out of the lock.
struct JobRecord {
  std::uint64_t id = 0;
  std::string name;
  JobKind kind = JobKind::kAtpg;
  JobState state = JobState::kQueued;
  double queued_ms = 0;  ///< Submit -> start (or now, while queued).
  double run_ms = 0;     ///< Start -> finish (or now, while running).
  bool resumed = false;  ///< A checkpoint journal was replayed.
  /// Threads the engine actually used (ATPG deterministic phase or
  /// PROOFS batches), at most the job's granted `threads`; 0 until the
  /// job ran to a result.
  int threads_used = 0;
  /// The complete `result` frame payload; engaged once the job
  /// reached kDone/kFailed/kCancelled.
  std::string result_json;
};

class Service {
 public:
  explicit Service(const ServiceOptions& options = {});
  /// Drains (waits for every accepted job) and joins the workers.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Outcome of one SUBMIT.
  struct Submission {
    bool accepted = false;
    std::uint64_t id = 0;
    std::size_t queue_depth = 0;
    /// Stable reject token: queue_full, draining, invalid_request.
    std::string reject_reason;
    core::DiagnosticList diagnostics;
  };

  /// Validates and enqueues one job.  Never throws; refusals come back
  /// as `accepted == false` with a reason and diagnostics.
  Submission Submit(const JobSpec& spec);

  /// Fires on a worker after a job's record is finalized.  Set
  /// before the first Submit (the transport does so at startup).
  void SetCompletionCallback(std::function<void(const JobRecord&)> callback);

  std::optional<JobRecord> Query(std::uint64_t id) const;
  std::vector<JobRecord> Snapshot() const;

  /// A finished job's result JSON: from the registry, or — after a
  /// restart — from the spool's <id>.result.json.  nullopt when the
  /// job is unknown or not finished yet.
  std::optional<std::string> Result(std::uint64_t id) const;

  /// Cancels a job.  Queued: the job reports kCancelled without
  /// running.  Running atpg/preserve: *preemptive* — Cancel raises
  /// the job's stop flag, every in-flight search reads it at its next
  /// decision, unfinished faults commit kUntried and
  /// the job reports kCancelled with its journal left in the spool
  /// (resubmitting the same spec resumes from it and lands on the
  /// bit-identical result of an uninterrupted run).  Running faultsim
  /// jobs have no cooperative stop hook: false.  Finished/unknown:
  /// false (a finished job that was cancel_requested answers true).
  /// A cancel that loses the race with completion yields the normal
  /// result.
  bool Cancel(std::uint64_t id);

  /// Blocks until job `id` finished; returns its final record.
  /// nullopt for unknown ids.
  std::optional<JobRecord> Wait(std::uint64_t id);

  /// Re-submits every .job file found in the spool under its original
  /// id; returns how many were recovered.  Called by the constructor;
  /// exposed for tests.
  std::size_t RecoverSpool();

  /// Stops admission and blocks until every accepted job finished.
  void Drain();
  bool draining() const;

  std::size_t queue_depth() const;
  std::uint64_t accepted() const { return accepted_.load(); }
  std::uint64_t rejected() const { return rejected_.load(); }
  std::uint64_t completed() const { return completed_.load(); }
  /// Queued jobs shed because their deadline_ms expired before a
  /// worker picked them up (reason token: deadline_expired).
  std::uint64_t shed() const { return shed_.load(); }
  /// Jobs that finished kCancelled (queued skips, sheds and
  /// preemptive cancels).
  std::uint64_t cancelled() const { return cancelled_.load(); }

 private:
  struct JobRec;
  /// Run-queue order: higher priority first, then lower id (ids grow
  /// in admission order, and spool recovery resubmits in id order).
  struct RunsLater {
    bool operator()(const JobRec* a, const JobRec* b) const;
  };

  Submission SubmitInternal(const JobSpec& spec, std::uint64_t forced_id);
  void WorkerLoop();
  void RunJob(JobRec& rec);
  void FinishJob(JobRec& rec, JobState state, std::string result_json,
                 bool resumed, int threads_used = 0);
  JobRecord SnapshotLocked(const JobRec& rec) const;
  std::string JournalPath(std::uint64_t id) const;

  const ServiceOptions options_;
  const int num_workers_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::condition_variable work_cv_;
  std::map<std::uint64_t, std::unique_ptr<JobRec>> jobs_;
  std::priority_queue<JobRec*, std::vector<JobRec*>, RunsLater> run_queue_;
  std::uint64_t next_id_ = 1;
  std::size_t queued_ = 0;
  std::size_t outstanding_ = 0;
  bool draining_ = false;
  bool stopping_ = false;  ///< Set by ~Service once drained.
  std::function<void(const JobRecord&)> callback_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> cancelled_{0};

  std::vector<std::thread> workers_;
};

}  // namespace retest::core::server
