// preserve_served: the real repro_serve daemon under a closed loop.
//
// Callers of the daemon wait for their result, so the load is a closed
// loop: kClients connections, each sending its next SUBMIT only after
// the previous job's result frame arrived, then reading the job's
// QUERY record (queue wait and run time) and, every few jobs, STATS.
// The daemon runs kWorkers fleet workers and every job asks for a
// one-thread budget.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analyze/certify.h"
#include "core/crc32.h"
#include "core/preserve.h"
#include "core/server/framing.h"
#include "core/server/protocol.h"
#include "core/server/server.h"
#include "core/server/service.h"
#include "core/testset.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"
#include "netlist/bench_io.h"
#include "workloads.h"

namespace perfbench {

using namespace retest;
using core::server::JobKind;
using core::server::JobSpec;

namespace {

constexpr int kClients = 4;
constexpr int kWorkers = 2;
constexpr int kStatsEvery = 5;  ///< STATS after every 5th job per client.
/// A round's wall time on the reference host (4-vCPU AVX-512 KVM guest);
/// it only converts --seconds into a round count.
constexpr double kNominalRoundS = 3.0;
constexpr int kReadTimeoutS = 60;

/// Forward-ILA ATPG with a random phase, bounded by per-fault limits
/// (a SUBMIT cannot set evaluations_per_fault; backtracks bound it).
atpg::AtpgOptions JobAtpgOptions() {
  atpg::AtpgOptions options;
  options.style = atpg::AtpgStyle::kForwardIla;
  options.random_rounds = 24;
  options.random_length_factor = 2;
  options.max_frames = 4;
  options.backtracks_per_fault = 20;
  options.time_budget_ms = kNeverBindsMs;
  return options;
}

netlist::Circuit Parse(const std::string& text, const std::string& name) {
  auto parsed = Trace().Span("netlist.parse", [&] {
    return netlist::ParseBenchString(text, name, "netlist");
  });
  if (!parsed.ok()) {
    throw std::runtime_error(name + ": " + parsed.diagnostics.ToString());
  }
  return std::move(*parsed.circuit);
}

struct JobPair {
  Pair pair;
  std::string original_text;
  std::string retimed_text;
};

/// A pair whose K is the parse of its own .bench text, so in-process
/// checks see exactly the circuit the daemon parses.
JobPair MakeJobPair(const std::string& original_text, const std::string& name) {
  JobPair job{PrepareRetimedPair(Parse(original_text, name)), original_text,
              ""};
  if (const std::string why = CertifyPair(job.pair); !why.empty()) {
    throw std::runtime_error(name + ": " + why);
  }
  job.retimed_text = netlist::WriteBenchString(job.pair.retimed());
  return job;
}

struct Template {
  std::string name;
  JobSpec spec;
  std::string payload;
  int pair = -1;  ///< Index into the prepared pairs (preserve jobs).
  int copies = 1;  ///< Times the job appears in one round.
};

struct Prepared {
  std::vector<JobPair> pairs;
  std::vector<Template> templates;
};

Template MakeTemplate(const std::string& name, JobKind kind,
                      const std::string& netlist, int copies) {
  Template t;
  t.name = name;
  t.copies = copies;
  t.spec.name = name;
  t.spec.kind = kind;
  t.spec.threads = 1;
  t.spec.atpg = JobAtpgOptions();
  t.spec.netlist = netlist;
  return t;
}

/// The job mix of one round: 20 jobs, mostly preserve jobs on small
/// and medium pairs, plus faultsim and atpg jobs.  `s27_text` is the
/// .bench text of the s27-shaped example circuit.
Prepared Prepare(const std::string& s27_text) {
  Prepared p;
  // dk16.ji.sd, pma.jo.sd, s820.jc.sd, then the s27-shaped example.
  for (const int index : {0, 1, 7}) {
    const Pair synthesized = PrepareTable2Pair(index);
    p.pairs.push_back(MakeJobPair(
        netlist::WriteBenchString(synthesized.original), synthesized.name));
  }
  p.pairs.push_back(MakeJobPair(s27_text, "s27_like"));

  const int preserve_copies[] = {4, 4, 3, 3};
  for (std::size_t i = 0; i < p.pairs.size(); ++i) {
    Template t = MakeTemplate("preserve/" + p.pairs[i].pair.name,
                              JobKind::kPreserve, p.pairs[i].original_text,
                              preserve_copies[i]);
    t.spec.retimed = p.pairs[i].retimed_text;
    t.pair = static_cast<int>(i);
    p.templates.push_back(std::move(t));
  }

  // Faultsim jobs replay test sets generated here, in set-up.
  const auto test_set = [&](const Pair& pair) {
    atpg::AtpgOptions options = JobAtpgOptions();
    options.num_threads = kEngineThreads;
    const atpg::AtpgResult result = Trace().Span(
        "atpg.run", [&] { return atpg::RunAtpg(pair.original, options); });
    if (result.preempted) {
      throw std::runtime_error(pair.name + ": test-set ATPG preempted");
    }
    core::TestSet set;
    set.tests = result.tests;
    return set;
  };
  const JobPair& dk16 = p.pairs[0];
  Template derived = MakeTemplate("faultsim/" + dk16.pair.retimed().name(),
                                  JobKind::kFaultSim, dk16.retimed_text, 2);
  derived.spec.tests =
      core::DeriveRetimedTestSet(test_set(dk16.pair), dk16.pair.prefix,
                                 dk16.pair.original.num_inputs())
          .ToText();
  p.templates.push_back(std::move(derived));
  const JobPair& s820 = p.pairs[2];
  Template original = MakeTemplate("faultsim/" + s820.pair.name,
                                   JobKind::kFaultSim, s820.original_text, 1);
  original.spec.tests = test_set(s820.pair).ToText();
  p.templates.push_back(std::move(original));

  p.templates.push_back(MakeTemplate("atpg/" + p.pairs[1].pair.name,
                                     JobKind::kAtpg, p.pairs[1].original_text,
                                     2));
  p.templates.push_back(MakeTemplate("atpg/" + p.pairs[3].pair.name,
                                     JobKind::kAtpg, p.pairs[3].original_text,
                                     1));
  for (Template& t : p.templates) {
    t.payload = core::server::BuildSubmitPayload(t.spec);
  }
  return p;
}

std::vector<int> RoundJobs(const Prepared& p) {
  std::vector<int> jobs;
  for (std::size_t i = 0; i < p.templates.size(); ++i) {
    for (int c = 0; c < p.templates[i].copies; ++c) {
      jobs.push_back(static_cast<int>(i));
    }
  }
  return jobs;
}

// ---- The daemon ------------------------------------------------------

/// The repro_serve process.  Stop() (or the destructor, on an error
/// path) sends SIGTERM, which drains it, and reaps it.
class Daemon {
 public:
  explicit Daemon(const ServedOptions& options)
      : socket_(options.work_dir + "/serve.sock") {
    const std::string spool = options.work_dir + "/spool";
    const std::string log = options.work_dir + "/daemon.log";
    std::error_code ec;
    std::filesystem::remove(socket_, ec);
    std::filesystem::remove_all(spool, ec);
    const std::string workers = std::to_string(kWorkers);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      ::execl(options.serve_binary.c_str(), options.serve_binary.c_str(),
              "--unix", socket_.c_str(), "--spool", spool.c_str(),
              "--workers", workers.c_str(), "--max-queue", "64",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }

  /// Returns the daemon's peak RSS in KiB (0 once stopped).
  long Stop() {
    if (pid_ <= 0) return 0;
    ::kill(pid_, SIGTERM);
    int status = 0;
    struct rusage usage {};
    ::wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    return usage.ru_maxrss;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

// ---- Client ----------------------------------------------------------

std::string JsonType(const std::string& json) {
  const std::string needle = "\"type\": \"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  return json.substr(start, json.find('"', start) - start);
}

double JsonDouble(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Open(const std::string& socket, std::string& error) {
    Close();
    decoder_.emplace();
    fd_ = core::server::ConnectUnix(socket, error);
    if (fd_ < 0) return false;
    timeval timeout{kReadTimeoutS, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::string hello;
    return Read(hello, error) && JsonType(hello) == "hello";
  }
  bool Send(const std::string& payload) {
    return core::server::WriteFrame(fd_, payload);
  }
  bool Read(std::string& payload, std::string& error) {
    return core::server::ReadFrame(fd_, *decoder_, payload, error) ==
           core::server::FrameDecoder::Next::kFrame;
  }
  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  /// Sends `request` and returns the next frame of type `want`.
  bool Ask(const std::string& request, const std::string& want,
           std::string& reply, std::string& error) {
    if (!Send(request)) {
      error = "send failed";
      return false;
    }
    while (Read(reply, error)) {
      if (JsonType(reply) == want) return true;
    }
    return false;
  }

 private:
  int fd_ = -1;
  std::optional<core::server::FrameDecoder> decoder_;
};

/// One served job as the client saw it.
struct JobSample {
  int tmpl = -1;
  double latency_ms = 0;     ///< SUBMIT sent to result frame received.
  double submit_rtt_ms = 0;  ///< SUBMIT sent to accepted received.
  double queued_ms = 0;      ///< Daemon's submit-to-start (QUERY).
  double run_ms = 0;         ///< Daemon's start-to-finish (QUERY).
  std::string result;
  std::string error;
};

JobSample RunJob(Connection& conn, const Template& t, int tmpl, int count) {
  JobSample sample;
  sample.tmpl = tmpl;
  std::string frame, error;
  const Clock::time_point start = Clock::now();
  if (!conn.Send(t.payload)) {
    sample.error = "send failed";
    return sample;
  }
  long id = -1;
  while (sample.result.empty()) {
    if (!conn.Read(frame, error)) {
      sample.error = "read failed: " + error;
      return sample;
    }
    const std::string type = JsonType(frame);
    if (type == "accepted") {
      sample.submit_rtt_ms = MsSince(start);
      id = JsonLong(frame, "id");
    } else if (type == "rejected") {
      sample.error = "rejected: " + frame;
      return sample;
    } else if (type == "result") {
      sample.result = frame;
    }
  }
  sample.latency_ms = MsSince(start);
  if (id < 0 || JsonLong(sample.result, "id") != id) {
    sample.error = "result for an unexpected job";
  }
  if (sample.result.find("\"status\": \"ok\"") == std::string::npos ||
      sample.result.find("\"preempted\": true") != std::string::npos) {
    sample.error = "job did not finish ok: " + sample.result.substr(0, 200);
  }
  const std::string query =
      "REPRO-SERVE/1 QUERY\nid: " + std::to_string(id) + "\n";
  if (!conn.Ask(query, "progress", frame, error)) {
    sample.error = "QUERY failed: " + error;
    return sample;
  }
  sample.queued_ms = JsonDouble(frame, "queued_ms");
  sample.run_ms = JsonDouble(frame, "run_ms");
  if (count % kStatsEvery == kStatsEvery - 1 &&
      !conn.Ask("REPRO-SERVE/1 STATS\n", "stats", frame, error)) {
    sample.error = "STATS failed: " + error;
  }
  return sample;
}

std::string Stats(Connection& conn) {
  std::string reply, error;
  if (!conn.Ask("REPRO-SERVE/1 STATS\n", "stats", reply, error)) {
    throw std::runtime_error("STATS failed: " + error);
  }
  return reply;
}

/// `rounds` closed-loop rounds (whole rounds only, so every round has
/// the same mix).  `jobs` receives every job in run order.
Phase RunPhase(const Prepared& p, std::vector<Connection>& conns,
               std::mt19937_64& rng, int rounds, std::vector<JobSample>& jobs) {
  Phase phase;
  phase.metrics_before = Stats(conns[0]);
  std::vector<int> counts(conns.size(), 0);
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    std::vector<int> order = RoundJobs(p);
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<JobSample> samples(order.size());
    std::atomic<std::size_t> next{0};
    const Clock::time_point round_start = Clock::now();
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = next++; i < order.size(); i = next++) {
          samples[i] = RunJob(conns[c], p.templates[order[i]], order[i],
                              counts[c]++);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    phase.round_s.push_back(MsSince(round_start) / 1000.0);
    phase.round_traced.push_back(false);
    for (const JobSample& job : samples) {
      phase.op_names.push_back(
          p.templates[static_cast<std::size_t>(job.tmpl)].name);
      phase.op_ms.push_back(job.latency_ms);
      phase.series["submit_rtt_ms"].push_back(job.submit_rtt_ms);
      phase.series["queued_ms"].push_back(job.queued_ms);
      phase.series["run_ms"].push_back(job.run_ms);
    }
    jobs.insert(jobs.end(), samples.begin(), samples.end());
    if (MsSince(start) / 1000.0 > kPhaseCapS) break;
  }
  phase.metrics_after = Stats(conns[0]);
  return phase;
}

// ---- Checks ----------------------------------------------------------

/// The host-independent fields of a served result: ATPG outcome counts
/// and test-set CRC, the mapped or simulated detections.
std::string GoldenFields(const std::string& result) {
  std::string out;
  const auto add = [&](const char* label, long value) {
    out += (out.empty() ? "" : ",") + std::string(label) + "=" +
           std::to_string(value);
  };
  const std::size_t atpg = result.find("\"atpg\": {");
  if (atpg != std::string::npos) {
    add("det", JsonLong(result, "detected", atpg));
    add("red", JsonLong(result, "redundant", atpg));
    add("abort", JsonLong(result, "aborted", atpg));
    add("untried", JsonLong(result, "untried", atpg));
    const std::size_t crc = result.find("\"tests_crc32\": \"", atpg);
    if (crc != std::string::npos) {
      out += ",crc=" + result.substr(crc + 16, 8);
    }
  }
  const std::size_t mapped = result.find("\"mapped\": {");
  if (mapped != std::string::npos) {
    add("prefix", JsonLong(result, "prefix_length"));
    add("mapped_faults", JsonLong(result, "faults", mapped));
    add("mapped_det", JsonLong(result, "detected", mapped));
  }
  const std::size_t faultsim = result.find("\"faultsim\": {");
  if (faultsim != std::string::npos) {
    add("faults", JsonLong(result, "faults", faultsim));
    add("det", JsonLong(result, "detected", faultsim));
  }
  return out;
}

/// The outcome of a served result: its golden fields and its coverage
/// accounting.  Preserve jobs count the mapped set on K', faultsim jobs
/// their simulation (neither proves faults redundant), atpg jobs their
/// own ATPG.
Outcome ServedOutcome(const std::string& result) {
  Outcome outcome;
  outcome.golden = GoldenFields(result);
  std::size_t at = result.find("\"mapped\": {");
  if (at == std::string::npos) at = result.find("\"faultsim\": {");
  if (at != std::string::npos) {
    outcome.faults = JsonLong(result, "faults", at);
    outcome.detected = JsonLong(result, "detected", at);
    return outcome;
  }
  at = result.find("\"atpg\": {");
  if (at != std::string::npos) {
    outcome.faults = JsonLong(result, "faults", at);
    outcome.detected = JsonLong(result, "detected", at);
    outcome.redundant = JsonLong(result, "redundant", at);
  }
  return outcome;
}

/// Per-template checks, off the clock: every served copy equals the
/// first, the first equals an in-process Service run of the same spec
/// and the golden fields; preserve jobs pass the Theorem-4 audit.
std::vector<Finding> CheckServed(
    const Prepared& p, const std::vector<const JobSample*>& first,
    const std::map<std::string, std::string>& golden) {
  std::vector<Finding> findings;
  core::server::ServiceOptions service_options;
  service_options.num_workers = kWorkers;
  core::server::Service reference(service_options);
  for (std::size_t i = 0; i < p.templates.size(); ++i) {
    const Template& t = p.templates[i];
    if (first[i] == nullptr) continue;
    const std::string served = NormalizeResult(first[i]->result);
    const auto submission = reference.Submit(t.spec);
    const auto record =
        submission.accepted ? reference.Wait(submission.id) : std::nullopt;
    if (!record || NormalizeResult(record->result_json) != served) {
      findings.push_back({t.name, "served result differs from the "
                                  "in-process Service result"});
    }
    const std::string fields = GoldenFields(served);
    const auto g = golden.find(t.name);
    if (g == golden.end()) {
      findings.push_back({t.name, "no golden value"});
    } else if (g->second != fields) {
      findings.push_back({t.name, "result " + fields + " != golden " +
                                      g->second});
    }
    if (t.spec.kind != JobKind::kPreserve) continue;
    // Theorem-4 audit from outside: regenerate K's tests (their CRC
    // must match the served one), map them with the prefix, simulate K'.
    const Pair& pair = p.pairs[static_cast<std::size_t>(t.pair)].pair;
    atpg::AtpgOptions options = t.spec.atpg;
    options.num_threads = kEngineThreads;
    core::TestSet set;
    set.tests = atpg::RunAtpg(pair.original, options).tests;
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", core::Crc32(set.ToText()));
    if (served.find(std::string("\"tests_crc32\": \"") + crc) ==
        std::string::npos) {
      findings.push_back({t.name, "audit could not reproduce the served "
                                  "test set"});
      continue;
    }
    const fault::CollapsedFaults faults = fault::Collapse(pair.retimed());
    faultsim::ProofsOptions proofs;
    proofs.num_threads = kEngineThreads;
    const auto mapped = faultsim::SimulateProofs(
        pair.retimed(), faults.representatives,
        core::DeriveRetimedTestSet(set, pair.prefix,
                                   pair.original.num_inputs())
            .Concatenated(),
        proofs);
    std::vector<bool> detected;
    for (const auto& d : mapped.detections) detected.push_back(d.detected);
    const long violations = AuditTheorem4(pair, set.Concatenated(), detected);
    if (violations > 0) {
      findings.push_back({t.name, std::to_string(violations) +
                                      " Theorem-4 audit violations"});
    }
  }
  return findings;
}

/// Replays one round's jobs in process through the same public calls
/// the service makes, inside spans, to split job run time by layer.
void Replay(const Prepared& p, const std::vector<int>& order) {
  Tracer& trace = Trace();
  int op = 0;
  for (const int index : order) {
    const Template& t = p.templates[static_cast<std::size_t>(index)];
    trace.SetOp(op++);
    trace.Span("bench.op", [&] {
      const netlist::Circuit circuit = Parse(t.spec.netlist, t.name);
      atpg::AtpgOptions options = t.spec.atpg;
      options.num_threads = t.spec.threads;
      faultsim::ProofsOptions proofs;
      proofs.num_threads = t.spec.threads;
      const auto simulate = [&](const netlist::Circuit& target,
                                const sim::InputSequence& stream) {
        const auto faults = trace.Span(
            "fault.collapse", [&] { return fault::Collapse(target); });
        trace.Span("faultsim.simulate", [&] {
          return faultsim::SimulateProofs(target, faults.representatives,
                                          stream, proofs);
        });
      };
      switch (t.spec.kind) {
        case JobKind::kAtpg:
          trace.Span("atpg.run",
                     [&] { return atpg::RunAtpg(circuit, options); });
          break;
        case JobKind::kFaultSim:
          simulate(circuit,
                   core::TestSet::FromText(t.spec.tests).Concatenated());
          break;
        case JobKind::kPreserve: {
          const netlist::Circuit retimed =
              Parse(t.spec.retimed, t.name + ".retimed");
          const auto cert = trace.Span("analyze.certify", [&] {
            return analyze::CertifyRetiming(circuit, retimed);
          });
          core::TestSet set;
          set.tests = trace.Span("atpg.run", [&] {
                             return atpg::RunAtpg(circuit, options);
                           }).tests;
          simulate(retimed, core::DeriveRetimedTestSet(
                                set, cert.certificate.prefix_length,
                                retimed.num_inputs())
                                .Concatenated());
          break;
        }
      }
    });
  }
}

}  // namespace

std::string RunServed(const ServedOptions& options, bool& ok) {
  std::mt19937_64 rng(options.seed);
  std::ifstream s27_file(options.s27_path);
  std::stringstream s27_text;
  s27_text << s27_file.rdbuf();
  if (!s27_file) throw std::runtime_error("cannot read " + options.s27_path);

  // Set-up: preparing the job inputs is repeated (median reported);
  // starting the daemon and connecting happen once.
  Run run;
  Prepared prepared;
  run.setups =
      RunSetups(options.trace, [&] { prepared = Prepare(s27_text.str()); });

  const Clock::time_point daemon_start = Clock::now();
  Daemon daemon(options);
  std::vector<Connection> conns(kClients);
  for (Connection& conn : conns) {
    std::string error;
    bool connected = false;
    for (int attempt = 0; attempt < 1000 && !connected; ++attempt) {
      connected = conn.Open(daemon.socket(), error);
      if (!connected) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    if (!connected) {
      throw std::runtime_error("cannot connect to the daemon: " + error);
    }
  }
  const double daemon_ready_s = MsSince(daemon_start) / 1000.0;

  // One untimed warm-up job.
  {
    const JobSample warm = RunJob(conns[0], prepared.templates[0], 0, 0);
    if (!warm.error.empty()) {
      throw std::runtime_error("warm-up job failed: " + warm.error);
    }
  }

  std::vector<JobSample> jobs;
  run.phase = RunPhase(
      prepared, conns, rng,
      RoundsFor(options.seconds, kNominalRoundS,
                static_cast<int>(RoundJobs(prepared).size()),
                options.trace ? 0 : kMinOps),
      jobs);
  conns.clear();
  run.peak_rss_kb = daemon.Stop();

  // Checks, off the clock.
  std::vector<const JobSample*> first(prepared.templates.size(), nullptr);
  for (const JobSample& job : jobs) {
    const Template& t = prepared.templates[static_cast<std::size_t>(job.tmpl)];
    if (!job.error.empty()) {
      run.findings.push_back({t.name, job.error});
      continue;
    }
    const JobSample*& seen = first[static_cast<std::size_t>(job.tmpl)];
    if (seen == nullptr) {
      seen = &job;
      run.outcomes.emplace(t.name, ServedOutcome(job.result));
    } else if (NormalizeResult(seen->result) != NormalizeResult(job.result)) {
      run.findings.push_back({t.name, "served result changed between copies"});
    }
  }
  if (!options.write_golden.empty()) {
    AppendGolden(options.write_golden, "preserve_served", run.outcomes);
  }
  for (Finding& f : CheckServed(prepared, first,
                                ReadGolden(options.golden_path,
                                           "preserve_served"))) {
    run.findings.push_back(std::move(f));
  }

  // The daemon is not traced: one round's job list is replayed in
  // process, untraced and then traced, for the layer split and the
  // tracing overhead.
  std::vector<double> replay_s;
  if (options.trace) {
    Tracer& trace = Trace();
    std::vector<int> order = RoundJobs(prepared);
    std::shuffle(order.begin(), order.end(), rng);
    for (const bool traced : {false, true}) {
      trace.Clear();
      trace.Enable(traced);
      const Clock::time_point start = Clock::now();
      Replay(prepared, order);
      replay_s.push_back(MsSince(start) / 1000.0);
    }
    run.layers_ms = trace.SelfMs();
    run.layer_rounds = 1;
    trace.Enable(false);
  }

  std::ostringstream out;
  out.precision(17);
  out << RunJson(run) << ", \"daemon_ready_s\": " << daemon_ready_s
      << ", \"replay_s\": " << DoublesJson(replay_s) << ", \"spool\": \""
      << JsonEscape(options.work_dir + "/spool") << "\"";
  ok = run.findings.empty();
  return out.str();
}

}  // namespace perfbench
