#include "core/server/service.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "atpg/engine.h"
#include "core/chaos.h"
#include "core/crc32.h"
#include "core/durable.h"
#include "core/flow.h"
#include "core/json.h"
#include "core/metrics.h"
#include "core/testset.h"
#include "core/thread_pool.h"
#include "core/trace.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"
#include "netlist/bench_io.h"

namespace retest::core::server {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// tmp+rename write through core::PublishDurably, the checkpoint
/// journal's durability sequence: write -> fsync(file) -> rename ->
/// fsync(directory), so a crash (or power cut) at any point leaves
/// either the old file or the complete new one — never a half-written
/// spool entry.
///
/// Chaos sites: serve.spool.write_error fails the write outright (the
/// caller's error path must cope); serve.spool.torn_write renames a
/// truncated file into place and still reports success — the
/// silent-corruption case RecoverSpool and the RESULT sanity gate must
/// catch.
bool WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  if (RETEST_CHAOS_FIRE("serve.spool.write_error")) return false;
  long keep = 0;
  const bool torn = RETEST_CHAOS_ARG("serve.spool.torn_write",
                                     static_cast<long>(content.size() / 2),
                                     &keep);
  const std::size_t want =
      torn ? std::min(content.size(),
                      static_cast<std::size_t>(std::max(0L, keep)))
           : content.size();
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  bool ok = true;
  while (written < want) {
    const ssize_t n = ::write(fd, content.data() + written, want - written);
    if (n <= 0) {
      ok = false;
      break;
    }
    written += static_cast<std::size_t>(n);
  }
  ok = ok && PublishDurably(fd, tmp, path);
  if (::close(fd) != 0) ok = false;
  if (!ok) return false;
  RETEST_COUNTER_ADD("serve.spool.fsync", "syncs", "serve",
                     "spool file + parent-directory fsync pairs per "
                     "atomic write",
                     1);
  return true;
}

/// The head every result frame starts with, up to its "status" field:
/// `{"type": "result", "id": <id>, "name": "<name>", "kind": "<kind>", `.
std::string ResultHead(std::uint64_t id, const JobSpec& spec) {
  std::ostringstream head;
  head << "{\"type\": \"result\", \"id\": " << id << ", \"name\": \""
       << JsonEscape(spec.name) << "\", \"kind\": \"" << ToString(spec.kind)
       << "\", ";
  return head.str();
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Validates faultsim tests text: every non-blank line is a vector of
/// 0/1/x characters exactly `num_inputs` wide.
void ValidateTestsText(const std::string& text, int num_inputs,
                       core::DiagnosticList& diags) {
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (static_cast<int>(line.size()) != num_inputs) {
      diags.Add(StatusCode::kParseError,
                "test vector is " + std::to_string(line.size()) +
                    " characters wide; the circuit has " +
                    std::to_string(num_inputs) + " inputs",
                "tests", line_number);
      continue;
    }
    for (const char c : line) {
      if (c != '0' && c != '1' && c != 'x' && c != 'X') {
        diags.Add(StatusCode::kParseError,
                  std::string("test vector character '") + c +
                      "' is not 0, 1 or x",
                  "tests", line_number);
        break;
      }
    }
  }
}

void AppendDouble(std::ostringstream& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.2f", key, value);
  out << buf;
}

/// The `"atpg"` result object shared by atpg and preserve results.
/// The test set is included both verbatim (so a client can replay it)
/// and as a CRC-32 (the bit-identity handle the smoke and the e2e
/// tests compare).
std::string AtpgJson(const atpg::AtpgResult& result) {
  core::TestSet set;
  set.tests = result.tests;
  const std::string text = set.ToText();
  std::ostringstream out;
  out << "{\"faults\": " << result.faults.size()
      << ", \"detected\": " << result.Count(atpg::FaultStatus::kDetected)
      << ", \"redundant\": " << result.Count(atpg::FaultStatus::kRedundant)
      << ", \"aborted\": " << result.Count(atpg::FaultStatus::kAborted)
      << ", \"untried\": " << result.Count(atpg::FaultStatus::kUntried)
      << ", ";
  AppendDouble(out, "fc", result.FaultCoverage());
  out << ", ";
  AppendDouble(out, "fe", result.FaultEfficiency());
  out << ", \"evaluations\": " << result.evaluations
      << ", \"num_tests\": " << result.tests.size()
      << ", \"total_vectors\": " << set.total_vectors();
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", core::Crc32(text));
  out << ", \"tests_crc32\": \"" << crc << "\", \"tests\": \""
      << JsonEscape(text) << "\"}";
  return out.str();
}

std::string FaultSimJson(const faultsim::ProofsResult& result) {
  int detected = result.num_detected();
  std::ostringstream out;
  out << "{\"faults\": " << result.detections.size()
      << ", \"detected\": " << detected << ", ";
  AppendDouble(out, "coverage", result.FaultCoverage());
  out << ", \"frames_evaluated\": " << result.frames_evaluated
      << ", \"gate_evals\": " << result.gate_evals << "}";
  return out.str();
}

}  // namespace

std::string_view ToString(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "queued";
}

struct Service::JobRec {
  std::uint64_t id = 0;
  JobSpec spec;
  netlist::Circuit circuit;   ///< Parsed `netlist`.
  netlist::Circuit retimed;   ///< Parsed `retimed` (kPreserve).
  core::TestSet tests;        ///< Parsed `tests` (kFaultSim).
  JobState state = JobState::kQueued;
  bool cancel_requested = false;
  bool resumed = false;
  int threads_used = 0;
  /// Raised by Cancel on a running job; AtpgOptions::stop reads it.
  std::atomic<bool> stop{false};
  Clock::time_point submitted;
  Clock::time_point started;
  Clock::time_point finished;
  std::string result_json;
};

bool Service::RunsLater::operator()(const JobRec* a, const JobRec* b) const {
  if (a->spec.priority != b->spec.priority) {
    return a->spec.priority < b->spec.priority;
  }
  return a->id > b->id;
}

Service::Service(const ServiceOptions& options)
    : options_(options),
      num_workers_(std::max(1, options.num_workers > 0
                                   ? options.num_workers
                                   : core::ResolveThreadCount(0))) {
  workers_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (!options_.spool_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.spool_dir, ec);
    RecoverSpool();
  }
}

Service::~Service() {
  Drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Service::SetCompletionCallback(
    std::function<void(const JobRecord&)> callback) {
  std::lock_guard<std::mutex> lock(mutex_);
  callback_ = std::move(callback);
}

std::string Service::JournalPath(std::uint64_t id) const {
  return options_.spool_dir + "/" + std::to_string(id) + ".journal";
}

Service::Submission Service::Submit(const JobSpec& spec) {
  return SubmitInternal(spec, 0);
}

Service::Submission Service::SubmitInternal(const JobSpec& spec,
                                            std::uint64_t forced_id) {
  Submission submission;

  // Validation first: an invalid job is rejected with the complete
  // diagnostic list whatever the queue looks like.
  auto rec = std::make_unique<JobRec>();
  rec->spec = spec;
  rec->spec.threads = std::clamp(spec.threads, 1, num_workers_);
  {
    auto parsed = netlist::ParseBenchString(
        spec.netlist, spec.name.empty() ? "job" : spec.name, "netlist");
    submission.diagnostics.Append(parsed.diagnostics);
    if (parsed.ok()) rec->circuit = std::move(*parsed.circuit);
  }
  if (spec.kind == JobKind::kPreserve) {
    auto parsed =
        netlist::ParseBenchString(spec.retimed, spec.name + ".retimed",
                                  "retimed");
    submission.diagnostics.Append(parsed.diagnostics);
    if (parsed.ok()) rec->retimed = std::move(*parsed.circuit);
  }
  if (spec.kind == JobKind::kFaultSim && submission.diagnostics.ok()) {
    ValidateTestsText(spec.tests, rec->circuit.num_inputs(),
                      submission.diagnostics);
    if (submission.diagnostics.ok()) {
      rec->tests = core::TestSet::FromText(spec.tests);
    }
  }
  if (!submission.diagnostics.ok()) {
    submission.reject_reason = "invalid_request";
    rejected_.fetch_add(1);
    RETEST_COUNTER_ADD("serve.jobs.rejected", "jobs", "serve",
                       "submissions refused by validation or admission", 1);
    return submission;
  }

  JobRec* raw = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      submission.reject_reason = "draining";
    } else if (queued_ >= options_.max_queue) {
      submission.reject_reason = "queue_full";
    } else if (RETEST_CHAOS_FIRE("serve.admission.queue_full")) {
      // Chaos: forced overload — drives the client retry/backoff path
      // without actually filling the queue.
      submission.reject_reason = "queue_full";
    }
    if (!submission.reject_reason.empty()) {
      submission.queue_depth = queued_;
      rejected_.fetch_add(1);
      RETEST_COUNTER_ADD("serve.jobs.rejected", "jobs", "serve",
                         "submissions refused by validation or admission", 1);
      return submission;
    }
    rec->id = forced_id != 0 ? forced_id : next_id_;
    next_id_ = std::max(next_id_, rec->id + 1);
    rec->submitted = Clock::now();
    raw = rec.get();
    jobs_[rec->id] = std::move(rec);
    ++queued_;
    ++outstanding_;
    submission.accepted = true;
    submission.id = raw->id;
    submission.queue_depth = queued_;
  }
  accepted_.fetch_add(1);
  RETEST_COUNTER_ADD("serve.jobs.accepted", "jobs", "serve",
                     "submissions admitted to the queue", 1);
  RETEST_DIST_RECORD("serve.queue.depth", "jobs", "serve",
                     "queued jobs sampled at each admission",
                     static_cast<double>(submission.queue_depth));

  // Spool before enqueueing: once a client sees `accepted`, a crash
  // must not lose the job.  Recovery re-submits are already on disk.
  if (!options_.spool_dir.empty() && forced_id == 0) {
    const std::string path =
        options_.spool_dir + "/" + std::to_string(raw->id) + ".job";
    if (!WriteFileAtomic(path, BuildSubmitPayload(spec))) {
      std::fprintf(stderr, "repro_serve: cannot spool job %llu to %s\n",
                   static_cast<unsigned long long>(raw->id), path.c_str());
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    run_queue_.push(raw);
  }
  work_cv_.notify_one();
  return submission;
}

void Service::WorkerLoop() {
  for (;;) {
    JobRec* rec = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock,
                    [this] { return stopping_ || !run_queue_.empty(); });
      if (run_queue_.empty()) return;
      rec = run_queue_.top();
      run_queue_.pop();
    }
    // Chaos: an armed serve.worker.stall spec delays the claim-to-run
    // window, widening races with Cancel and Drain (docs/CHAOS.md).
    RETEST_CHAOS_STALL("serve.worker.stall", 25);
    [[maybe_unused]] const Clock::time_point start = Clock::now();
    RunJob(*rec);
    RETEST_DIST_RECORD("fleet.job_ms", "ms", "serve",
                       "wall time of one job body on a Service worker",
                       MsBetween(start, Clock::now()));
  }
}

void Service::RunJob(JobRec& rec) {
  RETEST_TRACE_SPAN(span, "serve.job");
  bool cancel_at_start = false;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rec.started = Clock::now();
    --queued_;
    const double waited = MsBetween(rec.submitted, rec.started);
    if (rec.cancel_requested) {
      cancel_at_start = true;
    } else if (rec.spec.deadline_ms > 0 &&
               waited >= static_cast<double>(rec.spec.deadline_ms)) {
      // Deadline-aware shedding: the job's whole deadline elapsed in
      // the queue, so running it now can only burn a worker on a
      // result nobody can use in time.  Shed it with a structured
      // reason instead (docs/SERVING.md).
      rec.cancel_requested = true;
      cancel_at_start = true;
      shed = true;
    }
    // Even a job cancelled here is kRunning until FinishJob stores its
    // result: Wait() and Query() must never see a finished state
    // without one.
    rec.state = JobState::kRunning;
    RETEST_DIST_RECORD("serve.queue_wait_ms", "ms", "serve",
                       "submit-to-start latency per job",
                       MsBetween(rec.submitted, rec.started));
  }
  if (cancel_at_start) {
    if (shed) {
      shed_.fetch_add(1);
      RETEST_COUNTER_ADD("serve.shed.deadline_expired", "jobs", "serve",
                         "queued jobs shed because deadline_ms expired "
                         "before a worker picked them up",
                         1);
    }
    std::string out =
        ResultHead(rec.id, rec.spec) + "\"status\": \"cancelled\"";
    if (shed) out += ", \"reason\": \"deadline_expired\"";
    out += "}";
    FinishJob(rec, JobState::kCancelled, std::move(out), false);
    return;
  }

  atpg::AtpgOptions atpg_options = rec.spec.atpg;
  atpg_options.num_threads = rec.spec.threads;
  // The job's deadline caps the run's one wall-clock budget.
  if (rec.spec.deadline_ms > 0) {
    atpg_options.time_budget_ms =
        std::min(atpg_options.time_budget_ms, rec.spec.deadline_ms);
  }
  // Per-job preemptive cancel: Service::Cancel raises this flag; every
  // in-flight search polls it at its next decision and the job's
  // unfinished faults commit kUntried (journal-resumable).
  atpg_options.stop = &rec.stop;
  if (!options_.spool_dir.empty() && rec.spec.kind != JobKind::kFaultSim) {
    atpg_options.checkpoint_path = JournalPath(rec.id);
  }

  // A preempted run whose preemption was a cancel (not a budget or
  // deadline expiry) finishes kCancelled: partial, timing-dependent
  // counts are deliberately not reported — the journal left in the
  // spool is the resumable state of record.
  const auto finish_cancelled = [&](bool was_resumed) {
    const std::string cancelled =
        ResultHead(rec.id, rec.spec) +
        "\"status\": \"cancelled\", \"preempted\": true, \"resumed\": " +
        (was_resumed ? "true" : "false") + "}";
    RETEST_COUNTER_ADD("serve.jobs.cancel_preempted", "jobs", "serve",
                       "running jobs preempted by CANCEL (journal kept "
                       "for bit-identical resubmit)",
                       1);
    FinishJob(rec, JobState::kCancelled, cancelled, was_resumed);
  };
  const auto cancel_requested = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    return rec.cancel_requested;
  };

  const Clock::time_point run_start = Clock::now();
  std::ostringstream out;
  out << ResultHead(rec.id, rec.spec);
  bool resumed = false;
  int threads_used = 0;
  try {
    switch (rec.spec.kind) {
      case JobKind::kAtpg: {
        const atpg::AtpgResult result = atpg::RunAtpg(rec.circuit,
                                                      atpg_options);
        resumed = result.resumed;
        threads_used = result.threads_used;
        if (result.preempted && cancel_requested()) {
          finish_cancelled(resumed);
          return;
        }
        out << "\"status\": \"ok\", \"resumed\": "
            << (result.resumed ? "true" : "false") << ", \"preempted\": "
            << (result.preempted ? "true" : "false")
            << ", \"elapsed_ms\": " << result.elapsed_ms
            << ", \"atpg\": " << AtpgJson(result) << "}";
        break;
      }
      case JobKind::kFaultSim: {
        faultsim::ProofsOptions proofs_options;
        proofs_options.num_threads = rec.spec.threads;
        const fault::CollapsedFaults faults = fault::Collapse(rec.circuit);
        const faultsim::ProofsResult result = faultsim::SimulateProofs(
            rec.circuit, faults.representatives, rec.tests.Concatenated(),
            proofs_options);
        threads_used = result.threads_used;
        // Whole milliseconds, like AtpgResult::elapsed_ms: collapse
        // plus simulation.
        const long elapsed_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - run_start)
                .count();
        out << "\"status\": \"ok\", \"resumed\": false, \"preempted\": false"
            << ", \"elapsed_ms\": " << elapsed_ms
            << ", \"faultsim\": " << FaultSimJson(result) << "}";
        break;
      }
      case JobKind::kPreserve: {
        // The Fig. 6 pair flow over an untrusted pair: PreservePair's
        // certifier re-establishes that `retimed` really is a retiming
        // (and yields the Theorem-4 prefix) before any test mapping.
        const core::PreserveReport report =
            core::PreservePair(rec.circuit, rec.retimed, atpg_options);
        if (!report.cert.certified) {
          out << "\"status\": \"failed\", \"error\": \"certification "
              << "refused: " << JsonEscape(report.cert.diagnostics.ToString())
              << "\"}";
          FinishJob(rec, JobState::kFailed, out.str(), false);
          return;
        }
        resumed = report.atpg.resumed;
        threads_used = report.atpg.threads_used;
        if (report.atpg.preempted && cancel_requested()) {
          finish_cancelled(resumed);
          return;
        }
        // Whole milliseconds of the whole pipeline: certify, ATPG,
        // derive, collapse and PROOFS.
        out << "\"status\": \"ok\", \"resumed\": "
            << (report.atpg.resumed ? "true" : "false")
            << ", \"preempted\": "
            << (report.atpg.preempted ? "true" : "false")
            << ", \"elapsed_ms\": " << static_cast<long>(report.ms.total)
            << ", \"certified\": true, \"prefix_length\": "
            << report.prefix_length()
            << ", \"original_dffs\": " << rec.circuit.num_dffs()
            << ", \"retimed_dffs\": " << rec.retimed.num_dffs()
            << ", \"atpg\": " << AtpgJson(report.atpg)
            << ", \"mapped\": " << FaultSimJson(report.mapped) << "}";
        break;
      }
    }
  } catch (const std::exception& e) {
    FinishJob(rec, JobState::kFailed,
              ResultHead(rec.id, rec.spec) +
                  "\"status\": \"failed\", \"error\": \"" +
                  JsonEscape(e.what()) + "\"}",
              false);
    return;
  }
  RETEST_DIST_RECORD("serve.job_ms", "ms", "serve",
                     "wall time of one executed job",
                     MsBetween(run_start, Clock::now()));
  FinishJob(rec, JobState::kDone, out.str(), resumed, threads_used);
}

void Service::FinishJob(JobRec& rec, JobState state, std::string result_json,
                        bool resumed, int threads_used) {
  JobRecord record;
  std::function<void(const JobRecord&)> callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rec.state = state;
    rec.resumed = resumed;
    rec.threads_used = threads_used;
    rec.finished = Clock::now();
    rec.result_json = std::move(result_json);
    record = SnapshotLocked(rec);
    callback = callback_;
  }
  completed_.fetch_add(1);
  switch (state) {
    case JobState::kDone:
      RETEST_COUNTER_ADD("serve.jobs.completed", "jobs", "serve",
                         "jobs that ran to a result", 1);
      break;
    case JobState::kFailed:
      RETEST_COUNTER_ADD("serve.jobs.failed", "jobs", "serve",
                         "jobs that ended in an error result", 1);
      break;
    default:
      cancelled_.fetch_add(1);
      RETEST_COUNTER_ADD("serve.jobs.cancelled", "jobs", "serve",
                         "jobs that finished cancelled (queued skips, "
                         "deadline sheds and preemptive cancels)",
                         1);
      break;
  }
  if (resumed) {
    RETEST_COUNTER_ADD("serve.jobs.resumed", "jobs", "serve",
                       "jobs that replayed a checkpoint journal", 1);
  }

  if (!options_.spool_dir.empty()) {
    const std::string base = options_.spool_dir + "/" +
                             std::to_string(record.id);
    WriteFileAtomic(base + ".result.json", record.result_json);
    std::error_code ec;
    fs::remove(base + ".job", ec);
    // A cancelled job's journal is its resumable state of record —
    // resubmitting the same spec replays it and lands on the
    // bit-identical result of an uninterrupted run — so it survives;
    // every other outcome retires it.
    if (state != JobState::kCancelled) {
      fs::remove(base + ".journal", ec);
    }
    fs::remove(base + ".journal.tmp", ec);
  }

  // The callback runs before the job counts as finished: Drain() (and
  // hence the daemon's goodbye frames) must not overtake the result
  // frame this callback writes.  Wait()ers also only wake once the
  // result was delivered.  The broadcast happens under the lock: once
  // outstanding_ drops to zero a Drain()ing ~Service may destroy
  // done_cv_, so it must not still be notifying after the unlock.
  if (callback) callback(record);
  std::lock_guard<std::mutex> lock(mutex_);
  --outstanding_;
  done_cv_.notify_all();
}

JobRecord Service::SnapshotLocked(const JobRec& rec) const {
  JobRecord record;
  record.id = rec.id;
  record.name = rec.spec.name;
  record.kind = rec.spec.kind;
  record.state = rec.state;
  record.resumed = rec.resumed;
  record.threads_used = rec.threads_used;
  record.result_json = rec.result_json;
  const Clock::time_point now = Clock::now();
  if (rec.state == JobState::kQueued) {
    record.queued_ms = MsBetween(rec.submitted, now);
  } else {
    record.queued_ms = MsBetween(rec.submitted, rec.started);
    record.run_ms = rec.state == JobState::kRunning
                        ? MsBetween(rec.started, now)
                        : MsBetween(rec.started, rec.finished);
  }
  return record;
}

std::optional<JobRecord> Service::Query(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return SnapshotLocked(*it->second);
}

std::vector<JobRecord> Service::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobRecord> records;
  records.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) records.push_back(SnapshotLocked(*rec));
  return records;
}

std::optional<std::string> Service::Result(std::uint64_t id) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      if (it->second->result_json.empty()) return std::nullopt;
      return it->second->result_json;
    }
  }
  if (options_.spool_dir.empty()) return std::nullopt;
  auto spooled = ReadFile(options_.spool_dir + "/" + std::to_string(id) +
                          ".result.json");
  if (!spooled) return std::nullopt;
  // Sanity gate: a torn spool write (crash or chaos mid-rename) must
  // come back as "no result", never be served as a silent wrong
  // answer.  Complete results are one {...} JSON object.
  const auto first = spooled->find_first_not_of(" \t\r\n");
  const auto last = spooled->find_last_not_of(" \t\r\n");
  if (first == std::string::npos || (*spooled)[first] != '{' ||
      (*spooled)[last] != '}') {
    RETEST_COUNTER_ADD("serve.spool.result_corrupt", "files", "serve",
                       "spooled result files rejected by the RESULT "
                       "sanity gate (truncated or malformed)",
                       1);
    std::fprintf(stderr,
                 "repro_serve: spooled result for job %llu is truncated or "
                 "malformed, refusing to serve it\n",
                 static_cast<unsigned long long>(id));
    return std::nullopt;
  }
  return spooled;
}

bool Service::Cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  JobRec& rec = *it->second;
  if (rec.state == JobState::kQueued) {
    rec.cancel_requested = true;
    return true;
  }
  if (rec.state == JobState::kRunning) {
    // Faultsim bodies have no cooperative stop hook — they run a
    // bounded simulation, not a search — so an in-flight one cannot
    // be preempted.
    if (rec.spec.kind == JobKind::kFaultSim) return rec.cancel_requested;
    rec.cancel_requested = true;
    rec.stop.store(true, std::memory_order_release);
    RETEST_COUNTER_ADD("serve.jobs.cancel_running", "jobs", "serve",
                       "CANCEL requests that targeted a running job", 1);
    return true;
  }
  return rec.cancel_requested;
}

std::optional<JobRecord> Service::Wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  JobRec* rec = it->second.get();
  done_cv_.wait(lock, [rec] {
    return rec->state == JobState::kDone || rec->state == JobState::kFailed ||
           rec->state == JobState::kCancelled;
  });
  return SnapshotLocked(*rec);
}

std::size_t Service::RecoverSpool() {
  if (options_.spool_dir.empty()) return 0;
  std::vector<std::pair<std::uint64_t, std::string>> pending;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.spool_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::size_t dot = name.find('.');
    if (dot == std::string::npos || name.substr(dot) != ".job") continue;
    long id = 0;
    try {
      id = std::stol(name.substr(0, dot));
    } catch (const std::exception&) {
      continue;
    }
    if (id <= 0) continue;
    const auto payload = ReadFile(entry.path().string());
    if (payload) {
      pending.emplace_back(static_cast<std::uint64_t>(id), *payload);
    }
  }
  std::sort(pending.begin(), pending.end());
  std::size_t recovered = 0;
  for (const auto& [id, payload] : pending) {
    core::DiagnosticList diags;
    const auto request = ParseRequest(payload, diags);
    if (!request || request->verb != Verb::kSubmit) {
      std::fprintf(stderr,
                   "repro_serve: spooled job %llu is unreadable, skipped:\n%s\n",
                   static_cast<unsigned long long>(id),
                   diags.ToString().c_str());
      continue;
    }
    const Submission submission = SubmitInternal(request->spec, id);
    if (submission.accepted) ++recovered;
  }
  if (recovered > 0) {
    RETEST_COUNTER_ADD("serve.spool.recovered", "jobs", "serve",
                       "spooled jobs re-submitted after a restart",
                       static_cast<long>(recovered));
  }
  return recovered;
}

void Service::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

bool Service::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

std::size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

}  // namespace retest::core::server
