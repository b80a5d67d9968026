// Unit contract of the serving stack below the sockets: frame
// encode/decode (incremental feeds, zero-length and oversized
// poisoning, buffered-byte bounds), request parsing (totality: every
// problem reported, unknown keys/verbs refused, canonical payload
// round-trip), response builder shapes, and the transport-free
// Service: validation rejects, admission control, drain semantics,
// scheduling (priority then FIFO across all workers, the `threads`
// clamp, no lost wakeups), cancel, deadline preemption and spool
// crash-recovery bit-identity.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "atpg/engine.h"
#include "core/crc32.h"
#include "core/flow.h"
#include "core/server/framing.h"
#include "core/server/protocol.h"
#include "core/server/service.h"
#include "core/testset.h"
#include "fsm/benchmarks.h"
#include "netlist/bench_io.h"
#include "synth/synthesize.h"
#include "tests/paper_circuits.h"
#include "tests/random_circuits.h"

namespace retest::core::server {
namespace {

std::string TempDir(const std::string& tag) {
  const auto dir =
      std::filesystem::temp_directory_path() /
      ("serve_test_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

constexpr char kTinyBench[] =
    "INPUT(a)\n"
    "INPUT(b)\n"
    "OUTPUT(y)\n"
    "d = DFF(a)\n"
    "y = AND(d, b)\n";

/// A deterministic sub-second ATPG configuration: bounded backtracking,
/// no random phase, no wall-clock budget in play, so results are
/// run-to-run identical.
atpg::AtpgOptions QuickAtpg() {
  atpg::AtpgOptions options;
  options.style = atpg::AtpgStyle::kForwardIla;
  options.random_rounds = 0;
  options.backtracks_per_fault = 2;
  options.max_frames = 16;
  options.redundancy_check = false;
  options.time_budget_ms = 600'000;  // Never the binding constraint.
  return options;
}

netlist::Circuit QuickCircuit(std::uint64_t seed) {
  retest::testing::RandomCircuitOptions options;
  options.num_inputs = 5;
  options.num_dffs = 4;
  options.num_gates = 30;
  return retest::testing::MakeRandomCircuit(seed, options);
}

JobSpec QuickSpec(const std::string& name, int priority = 0) {
  JobSpec spec;
  spec.name = name;
  spec.priority = priority;
  spec.netlist = kTinyBench;
  spec.atpg = QuickAtpg();
  return spec;
}

/// A job that keeps its worker busy until it is cancelled: ATPG on dk16
/// with a backtrack limit far beyond what any test waits for.  Cancel
/// preempts it within one watchdog poll.
JobSpec BlockerSpec(const std::string& name, int priority = 0) {
  static const std::string netlist = netlist::WriteBenchString(
      synth::Synthesize(fsm::MakeBenchmarkFsm("dk16"), {}));
  JobSpec spec;
  spec.name = name;
  spec.priority = priority;
  spec.netlist = netlist;
  spec.atpg.random_rounds = 0;
  spec.atpg.backtracks_per_fault = 1'000'000'000;
  spec.atpg.time_budget_ms = 600'000;
  return spec;
}

ServiceOptions Workers(int num_workers) {
  ServiceOptions options;
  options.num_workers = num_workers;
  return options;
}

/// Polls `done` every millisecond for up to 20 s.
template <typename Predicate>
bool WaitUntil(Predicate done) {
  for (int i = 0; i < 20'000; ++i) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

JobState StateOf(const Service& service, std::uint64_t id) {
  return service.Query(id).value().state;
}

std::string Field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  std::size_t start = at + needle.size();
  std::size_t end = start;
  if (json[start] == '"') {
    ++start;
    end = json.find('"', start);
  } else {
    end = json.find_first_of(",}", start);
  }
  return json.substr(start, end - start);
}

// ---- Framing --------------------------------------------------------

TEST(Framing, EncodeDecodeRoundTrip) {
  const std::string payload = "REPRO-SERVE/1 PING\n";
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(payload));
  std::string out;
  ASSERT_EQ(decoder.Pop(out), FrameDecoder::Next::kFrame);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(decoder.Pop(out), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Framing, ByteAtATimeFeedIsEquivalent) {
  const std::string payload(300, 'x');
  const std::string frame = EncodeFrame(payload) + EncodeFrame("y");
  FrameDecoder decoder;
  std::vector<std::string> popped;
  for (const char byte : frame) {
    decoder.Feed(std::string_view(&byte, 1));
    std::string out;
    while (decoder.Pop(out) == FrameDecoder::Next::kFrame) {
      popped.push_back(out);
    }
  }
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_EQ(popped[0], payload);
  EXPECT_EQ(popped[1], "y");
}

TEST(Framing, ZeroLengthFramePoisons) {
  FrameDecoder decoder;
  decoder.Feed(std::string(4, '\0'));
  std::string out;
  EXPECT_EQ(decoder.Pop(out), FrameDecoder::Next::kError);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_NE(decoder.error().find("length 0"), std::string::npos);
  // A poisoned decoder stays poisoned: later feeds are not trusted.
  decoder.Feed(EncodeFrame("hello"));
  EXPECT_EQ(decoder.Pop(out), FrameDecoder::Next::kError);
}

TEST(Framing, OversizedLengthPoisonsFromTheHeaderAlone) {
  // The 4 header bytes announce ~4 GiB; the decoder must refuse
  // without waiting for (or buffering) any payload bytes.
  FrameDecoder decoder;
  decoder.Feed(std::string("\xff\xff\xff\xff", 4));
  std::string out;
  EXPECT_EQ(decoder.Pop(out), FrameDecoder::Next::kError);
  EXPECT_NE(decoder.error().find("exceeds"), std::string::npos);
  EXPECT_LE(decoder.buffered(), kFrameHeaderBytes);
}

TEST(Framing, CustomLimitIsEnforced) {
  FrameDecoder decoder(8);
  decoder.Feed(EncodeFrame("123456789"));  // 9 > 8.
  std::string out;
  EXPECT_EQ(decoder.Pop(out), FrameDecoder::Next::kError);
  FrameDecoder ok(8);
  ok.Feed(EncodeFrame("12345678"));
  EXPECT_EQ(ok.Pop(out), FrameDecoder::Next::kFrame);
  EXPECT_EQ(out, "12345678");
}

TEST(Framing, PartialHeaderNeedsMore) {
  FrameDecoder decoder;
  decoder.Feed(std::string("\x00\x00", 2));
  std::string out;
  EXPECT_EQ(decoder.Pop(out), FrameDecoder::Next::kNeedMore);
  EXPECT_FALSE(decoder.poisoned());
}

// ---- Request parsing ------------------------------------------------

TEST(Protocol, ParsesAFullSubmit) {
  const std::string payload =
      "REPRO-SERVE/1 SUBMIT\n"
      "name: demo\n"
      "kind: atpg\n"
      "priority: 5\n"
      "threads: 2\n"
      "deadline-ms: 1000\n"
      "seed: 7\n"
      "style: justification\n"
      "budget-ms: 1234\n"
      "\n"
      "--- netlist\n" +
      std::string(kTinyBench);
  core::DiagnosticList diags;
  const auto request = ParseRequest(payload, diags);
  ASSERT_TRUE(request.has_value()) << diags.ToString();
  EXPECT_EQ(request->verb, Verb::kSubmit);
  EXPECT_EQ(request->spec.name, "demo");
  EXPECT_EQ(request->spec.kind, JobKind::kAtpg);
  EXPECT_EQ(request->spec.priority, 5);
  EXPECT_EQ(request->spec.threads, 2);
  EXPECT_EQ(request->spec.deadline_ms, 1000);
  EXPECT_EQ(request->spec.atpg.seed, 7u);
  EXPECT_EQ(request->spec.atpg.style, atpg::AtpgStyle::kJustification);
  EXPECT_EQ(request->spec.atpg.time_budget_ms, 1234);
  EXPECT_EQ(request->spec.netlist, kTinyBench);
}

TEST(Protocol, BodyWithoutSectionMarkerIsTheNetlist) {
  const std::string payload =
      "REPRO-SERVE/1 SUBMIT\n\n" + std::string(kTinyBench);
  core::DiagnosticList diags;
  const auto request = ParseRequest(payload, diags);
  ASSERT_TRUE(request.has_value()) << diags.ToString();
  EXPECT_EQ(request->spec.netlist, kTinyBench);
  EXPECT_EQ(request->spec.name, "job");  // Default.
}

TEST(Protocol, CollectsEveryProblemNotJustTheFirst) {
  const std::string payload =
      "REPRO-SERVE/1 SUBMIT\n"
      "kind: quantum\n"
      "threads: -3\n"
      "flavor: mint\n"
      "not a header\n"
      "\n";
  core::DiagnosticList diags;
  const auto request = ParseRequest(payload, diags);
  EXPECT_FALSE(request.has_value());
  // bad kind, bad threads, unknown key, malformed line, missing netlist.
  EXPECT_GE(diags.size(), 5u);
}

// The structural sweep is not an engine option: a `sweep:` header is
// refused like any other key the protocol does not define.
TEST(Protocol, SweepHeaderIsUnknown) {
  const std::string payload =
      "REPRO-SERVE/1 SUBMIT\nsweep: on\n\n--- netlist\n" +
      std::string(kTinyBench);
  core::DiagnosticList diags;
  EXPECT_FALSE(ParseRequest(payload, diags).has_value());
  EXPECT_NE(diags.ToString().find("unknown header 'sweep'"),
            std::string::npos)
      << diags.ToString();
}

TEST(Protocol, UnknownVerbIsAnError) {
  core::DiagnosticList diags;
  EXPECT_FALSE(ParseRequest("REPRO-SERVE/1 DANCE\n", diags).has_value());
  EXPECT_FALSE(diags.ok());
}

TEST(Protocol, WrongVersionIsAnError) {
  core::DiagnosticList diags;
  EXPECT_FALSE(ParseRequest("REPRO-SERVE/2 PING\n", diags).has_value());
}

TEST(Protocol, QueryRequiresAnId) {
  core::DiagnosticList diags;
  EXPECT_FALSE(ParseRequest("REPRO-SERVE/1 QUERY\n", diags).has_value());
  diags = {};
  const auto request = ParseRequest("REPRO-SERVE/1 QUERY\nid: 42\n", diags);
  ASSERT_TRUE(request.has_value()) << diags.ToString();
  EXPECT_EQ(request->verb, Verb::kQuery);
  EXPECT_EQ(request->id, 42u);
}

TEST(Protocol, NonSubmitVerbsRejectBodies) {
  core::DiagnosticList diags;
  EXPECT_FALSE(
      ParseRequest("REPRO-SERVE/1 PING\n\nstray body\n", diags).has_value());
}

TEST(Protocol, FaultSimNeedsTestsAndPreserveNeedsRetimed) {
  core::DiagnosticList diags;
  EXPECT_FALSE(ParseRequest("REPRO-SERVE/1 SUBMIT\nkind: faultsim\n\n"
                            "--- netlist\n" +
                                std::string(kTinyBench),
                            diags)
                   .has_value());
  diags = {};
  EXPECT_FALSE(ParseRequest("REPRO-SERVE/1 SUBMIT\nkind: preserve\n\n"
                            "--- netlist\n" +
                                std::string(kTinyBench),
                            diags)
                   .has_value());
}

TEST(Protocol, SubmitPayloadRoundTripsThroughItsCanonicalForm) {
  JobSpec spec;
  spec.name = "round-trip";
  spec.kind = JobKind::kFaultSim;
  spec.priority = -2;
  spec.threads = 3;
  spec.deadline_ms = 500;
  spec.atpg.seed = 99;
  spec.atpg.style = atpg::AtpgStyle::kJustification;
  spec.netlist = kTinyBench;
  spec.tests = "11\n01\n\n10\n";
  const std::string payload = BuildSubmitPayload(spec);
  core::DiagnosticList diags;
  const auto request = ParseRequest(payload, diags);
  ASSERT_TRUE(request.has_value()) << diags.ToString();
  // The canonical form is a fixed point: re-serializing the parsed
  // spec reproduces the payload byte for byte (what makes the spool
  // and recovery deterministic).
  EXPECT_EQ(BuildSubmitPayload(request->spec), payload);
  EXPECT_EQ(request->spec.tests, spec.tests);
  EXPECT_EQ(request->spec.netlist, spec.netlist);
}

TEST(Protocol, ResponseBuildersEmitTheirTypes) {
  EXPECT_NE(BuildHello(16, 4).find("\"type\": \"hello\""), std::string::npos);
  EXPECT_NE(BuildAccepted(3, "n", 1).find("\"type\": \"accepted\""),
            std::string::npos);
  core::DiagnosticList diags;
  diags.Add(StatusCode::kParseError, "broken \"quote\"", "request", 2);
  const std::string rejected = BuildRejected("invalid_request", diags);
  EXPECT_NE(rejected.find("\"type\": \"rejected\""), std::string::npos);
  EXPECT_NE(rejected.find("\\\"quote\\\""), std::string::npos);
  EXPECT_NE(BuildError("bad_frame", "x\ny").find("x\\ny"), std::string::npos);
  EXPECT_NE(BuildPong().find("pong"), std::string::npos);
  EXPECT_NE(BuildGoodbye().find("goodbye"), std::string::npos);
  const std::string stats = BuildStats(0, 1, 2, 3, 4, 5);
  EXPECT_NE(stats.find("\"type\": \"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"shed\": 4"), std::string::npos);
  EXPECT_NE(stats.find("\"cancelled\": 5"), std::string::npos);
}

// ---- Service --------------------------------------------------------

TEST(Service, RunsAnAtpgJobBitIdenticalToTheEngine) {
  const netlist::Circuit circuit = QuickCircuit(11);
  JobSpec spec;
  spec.name = "direct";
  spec.atpg = QuickAtpg();
  spec.netlist = netlist::WriteBenchString(circuit);

  Service service;
  const auto submission = service.Submit(spec);
  ASSERT_TRUE(submission.accepted) << submission.diagnostics.ToString();
  const auto record = service.Wait(submission.id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kDone);

  atpg::AtpgOptions reference_options = QuickAtpg();
  reference_options.num_threads = 1;  // spec.threads default.
  const atpg::AtpgResult reference = atpg::RunAtpg(circuit, reference_options);
  core::TestSet set;
  set.tests = reference.tests;
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", core::Crc32(set.ToText()));
  EXPECT_EQ(Field(record->result_json, "tests_crc32"), crc);
  EXPECT_EQ(Field(record->result_json, "detected"),
            std::to_string(reference.Count(atpg::FaultStatus::kDetected)));
  EXPECT_EQ(Field(record->result_json, "status"), "ok");
}

TEST(Service, RejectsAnInvalidNetlistWithDiagnostics) {
  JobSpec spec;
  spec.netlist = "INPUT(a)\ny = FROB(a)\n";
  Service service;
  const auto submission = service.Submit(spec);
  EXPECT_FALSE(submission.accepted);
  EXPECT_EQ(submission.reject_reason, "invalid_request");
  EXPECT_FALSE(submission.diagnostics.ok());
  EXPECT_EQ(service.accepted(), 0u);
  EXPECT_EQ(service.rejected(), 1u);
}

TEST(Service, RejectsMalformedFaultSimTests) {
  JobSpec spec;
  spec.kind = JobKind::kFaultSim;
  spec.netlist = kTinyBench;
  spec.tests = "101\n";  // Three characters for a two-input circuit.
  Service service;
  const auto submission = service.Submit(spec);
  EXPECT_FALSE(submission.accepted);
  EXPECT_FALSE(submission.diagnostics.ok());

  spec.tests = "1z\n";  // Invalid character.
  const auto bad_char = service.Submit(spec);
  EXPECT_FALSE(bad_char.accepted);
}

TEST(Service, FaultSimJobSimulatesTheProvidedTests) {
  JobSpec spec;
  spec.kind = JobKind::kFaultSim;
  spec.name = "fsim";
  spec.netlist = kTinyBench;
  spec.tests = "11\n01\n10\n11\n";
  Service service;
  const auto submission = service.Submit(spec);
  ASSERT_TRUE(submission.accepted) << submission.diagnostics.ToString();
  const auto record = service.Wait(submission.id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kDone);
  EXPECT_EQ(Field(record->result_json, "kind"), "faultsim");
  EXPECT_NE(Field(record->result_json, "coverage"), "");
}

TEST(Service, ZeroQueueRejectsEverySubmit) {
  ServiceOptions options;
  options.max_queue = 0;
  Service service(options);
  JobSpec spec;
  spec.netlist = kTinyBench;
  spec.atpg = QuickAtpg();
  const auto submission = service.Submit(spec);
  EXPECT_FALSE(submission.accepted);
  EXPECT_EQ(submission.reject_reason, "queue_full");
  EXPECT_TRUE(submission.diagnostics.ok());  // The job itself was fine.
}

TEST(Service, DrainingRejectsNewWorkAndWaitsForOldWork) {
  Service service;
  JobSpec spec;
  spec.netlist = kTinyBench;
  spec.atpg = QuickAtpg();
  const auto before = service.Submit(spec);
  ASSERT_TRUE(before.accepted);
  service.Drain();
  EXPECT_TRUE(service.draining());
  // The pre-drain job ran to completion...
  const auto record = service.Query(before.id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kDone);
  // ...and new work bounces.
  const auto after = service.Submit(spec);
  EXPECT_FALSE(after.accepted);
  EXPECT_EQ(after.reject_reason, "draining");
}

TEST(Service, CancelTargetsOnlyQueuedJobs) {
  Service service;
  EXPECT_FALSE(service.Cancel(12345));  // Unknown.
  JobSpec spec;
  spec.netlist = kTinyBench;
  spec.atpg = QuickAtpg();
  const auto submission = service.Submit(spec);
  ASSERT_TRUE(submission.accepted);
  const auto record = service.Wait(submission.id);
  ASSERT_TRUE(record.has_value());
  EXPECT_FALSE(service.Cancel(submission.id));  // Already finished.
}

TEST(Service, DeadlinePreemptsALongJob) {
  // dk16 against a 30 ms deadline: the engine's watchdog must hand back
  // a clean preempted result (kUntried faults, status ok) rather than
  // overrun.
  const netlist::Circuit circuit =
      synth::Synthesize(fsm::MakeBenchmarkFsm("dk16"), {});
  JobSpec spec;
  spec.name = "deadline";
  spec.netlist = netlist::WriteBenchString(circuit);
  spec.deadline_ms = 30;
  spec.atpg.seed = 13;
  spec.atpg.random_rounds = 0;
  spec.atpg.backtracks_per_fault = 50;
  spec.atpg.time_budget_ms = 600'000;
  Service service;
  const auto submission = service.Submit(spec);
  ASSERT_TRUE(submission.accepted) << submission.diagnostics.ToString();
  const auto record = service.Wait(submission.id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kDone);
  EXPECT_EQ(Field(record->result_json, "preempted"), "true");
}

TEST(Service, PriorityOrdersTheQueueOnOneWorker) {
  Service service(Workers(1));
  std::mutex mutex;
  std::vector<std::uint64_t> finished;
  service.SetCompletionCallback([&](const JobRecord& record) {
    std::lock_guard<std::mutex> lock(mutex);
    finished.push_back(record.id);
  });
  // Occupy the only worker so the later submissions queue up and the
  // priority order, not submission order, decides execution.
  const auto blocker = service.Submit(BlockerSpec("blocker"));
  ASSERT_TRUE(blocker.accepted) << blocker.diagnostics.ToString();
  ASSERT_TRUE(WaitUntil(
      [&] { return StateOf(service, blocker.id) == JobState::kRunning; }));
  const auto low_first = service.Submit(QuickSpec("low-first", -1));
  const auto high = service.Submit(QuickSpec("high", 5));
  const auto low_second = service.Submit(QuickSpec("low-second", -1));
  ASSERT_TRUE(low_first.accepted && high.accepted && low_second.accepted);
  ASSERT_TRUE(service.Cancel(blocker.id));
  service.Drain();
  // One worker: completion order is start order.
  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(finished, (std::vector<std::uint64_t>{blocker.id, high.id,
                                                  low_first.id,
                                                  low_second.id}));
}

TEST(Service, AnIdleWorkerTakesTheHighestPriorityQueuedJob) {
  // Priority is global: whichever worker frees up first must start the
  // high-priority job, never the older low-priority one.  Both workers
  // are tried as the first one freed.
  for (const int freed_first : {0, 1}) {
    SCOPED_TRACE("freed_first=" + std::to_string(freed_first));
    Service service(Workers(2));
    const std::uint64_t blockers[2] = {
        service.Submit(BlockerSpec("blocker-0")).id,
        service.Submit(BlockerSpec("blocker-1")).id};
    ASSERT_TRUE(WaitUntil([&] {
      return StateOf(service, blockers[0]) == JobState::kRunning &&
             StateOf(service, blockers[1]) == JobState::kRunning;
    }));
    const auto low = service.Submit(BlockerSpec("low", -1));
    const auto high = service.Submit(BlockerSpec("high", 5));
    ASSERT_TRUE(low.accepted && high.accepted);

    ASSERT_TRUE(service.Cancel(blockers[freed_first]));
    ASSERT_TRUE(WaitUntil([&] {
      return StateOf(service, low.id) != JobState::kQueued ||
             StateOf(service, high.id) != JobState::kQueued;
    }));
    EXPECT_EQ(ToString(StateOf(service, high.id)), "running");
    EXPECT_EQ(ToString(StateOf(service, low.id)), "queued");

    // Freeing the other worker starts the low-priority job.
    ASSERT_TRUE(service.Cancel(blockers[1 - freed_first]));
    EXPECT_TRUE(WaitUntil(
        [&] { return StateOf(service, low.id) != JobState::kQueued; }));
    service.Cancel(high.id);
    service.Cancel(low.id);
    service.Drain();
  }
}

TEST(Service, ThreadsAreClampedToTheWorkers) {
  Service service(Workers(2));
  JobSpec spec = QuickSpec("threads");
  spec.netlist = netlist::WriteBenchString(QuickCircuit(7));
  std::string crc;
  for (const int threads : {1, 2, 99}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    spec.threads = threads;
    const auto submission = service.Submit(spec);
    ASSERT_TRUE(submission.accepted) << submission.diagnostics.ToString();
    const auto record = service.Wait(submission.id);
    ASSERT_TRUE(record.has_value());
    ASSERT_EQ(record->state, JobState::kDone) << record->result_json;
    // 99 is granted as the 2 workers; the engine stays inside the grant.
    EXPECT_GE(record->threads_used, 1);
    EXPECT_LE(record->threads_used, std::min(threads, 2));
    // The engines are thread-count deterministic.
    if (crc.empty()) crc = Field(record->result_json, "tests_crc32");
    EXPECT_EQ(Field(record->result_json, "tests_crc32"), crc);
  }
}

TEST(Service, CancelSkipsOnlyItsQueuedTarget) {
  Service service(Workers(1));
  const auto blocker = service.Submit(BlockerSpec("blocker"));
  ASSERT_TRUE(blocker.accepted) << blocker.diagnostics.ToString();
  ASSERT_TRUE(WaitUntil(
      [&] { return StateOf(service, blocker.id) == JobState::kRunning; }));
  std::vector<std::uint64_t> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(service.Submit(QuickSpec("queued")).id);
  }
  EXPECT_TRUE(service.Cancel(queued[1]));  // The middle queued job.
  ASSERT_TRUE(service.Cancel(blocker.id));
  service.Drain();
  EXPECT_EQ(StateOf(service, queued[0]), JobState::kDone);
  EXPECT_EQ(StateOf(service, queued[1]), JobState::kCancelled);
  EXPECT_EQ(StateOf(service, queued[2]), JobState::kDone);
  EXPECT_EQ(Field(service.Result(queued[1]).value(), "status"), "cancelled");
  EXPECT_FALSE(service.Cancel(queued[0]));  // Finished: not cancellable.
  EXPECT_EQ(service.cancelled(), 2u);       // The target and the blocker.
}

TEST(Service, SubmitWakesAWorkerThatIsAboutToSleep) {
  // A fresh worker checks "anything queued?" and then sleeps.  A Submit
  // whose notify could land between the two would leave its job
  // unclaimed.  Each round starts a one-worker service and submits
  // after a jittered spin, so some submissions hit that window, then
  // waits a bounded time for the job to finish.  On a timeout the test
  // fails and submits once more: the worker, asleep by then, wakes for
  // that notify, so the service drains.
  JobSpec spec;
  spec.kind = JobKind::kFaultSim;
  spec.netlist = kTinyBench;
  spec.tests = "11\n";
  std::mutex mutex;
  std::condition_variable finished_cv;
  int finished = 0;
  std::uint64_t jitter = 88172645463325252ull;
  for (int round = 0; round < 20'000; ++round) {
    Service service(Workers(1));
    service.SetCompletionCallback([&](const JobRecord&) {
      std::lock_guard<std::mutex> lock(mutex);
      ++finished;
      finished_cv.notify_all();
    });
    jitter ^= jitter << 13;
    jitter ^= jitter >> 7;
    jitter ^= jitter << 17;
    const auto spin_until = std::chrono::steady_clock::now() +
                            std::chrono::nanoseconds(jitter % 40'000);
    while (std::chrono::steady_clock::now() < spin_until) {
    }
    ASSERT_TRUE(service.Submit(spec).accepted);
    std::unique_lock<std::mutex> lock(mutex);
    if (!finished_cv.wait_for(lock, std::chrono::seconds(5),
                              [&] { return finished == round + 1; })) {
      lock.unlock();
      service.Submit(spec);
      FAIL() << "job of round " << round << " was never picked up";
    }
  }
}

TEST(Service, CompletionCallbackDeliversTheResultFrame) {
  Service service;
  std::mutex mutex;
  std::vector<JobRecord> seen;
  service.SetCompletionCallback([&](const JobRecord& record) {
    std::lock_guard<std::mutex> lock(mutex);
    seen.push_back(record);
  });
  JobSpec spec;
  spec.netlist = kTinyBench;
  spec.atpg = QuickAtpg();
  const auto submission = service.Submit(spec);
  ASSERT_TRUE(submission.accepted);
  service.Wait(submission.id);
  service.Drain();
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].id, submission.id);
  EXPECT_NE(seen[0].result_json.find("\"type\": \"result\""),
            std::string::npos);
}

TEST(Service, SpoolRecoveryResumesFromTheJournalBitIdentically) {
  const std::string spool = TempDir("recover");
  const netlist::Circuit circuit = QuickCircuit(31);

  JobSpec spec;
  spec.name = "recover-me";
  spec.atpg = QuickAtpg();
  spec.netlist = netlist::WriteBenchString(circuit);

  // The journal fingerprint covers the circuit as the service sees it
  // (parsed from the payload under the job's name), so the crash scene
  // must be fabricated from that parse, not from the builder circuit.
  const auto parsed =
      netlist::ParseBenchString(spec.netlist, spec.name, "netlist");
  ASSERT_TRUE(parsed.ok());
  const netlist::Circuit& service_circuit = *parsed.circuit;

  // Reference: an uninterrupted run of the exact engine configuration
  // the service will use.
  atpg::AtpgOptions reference_options = spec.atpg;
  reference_options.num_threads = 1;
  const atpg::AtpgResult reference =
      atpg::RunAtpg(service_circuit, reference_options);
  core::TestSet reference_set;
  reference_set.tests = reference.tests;
  char reference_crc[16];
  std::snprintf(reference_crc, sizeof(reference_crc), "%08x",
                core::Crc32(reference_set.ToText()));

  // Fabricate the crash scene a kill -9 mid-job leaves behind: the
  // spooled .job file plus a journal holding a committed prefix of the
  // run.  The journal is produced by a real run and then truncated,
  // exactly like atpg_checkpoint_test's simulated kill.
  {
    atpg::AtpgOptions journal_options = reference_options;
    journal_options.checkpoint_path = spool + "/7.journal";
    atpg::RunAtpg(service_circuit, journal_options);
    std::ifstream in(journal_options.checkpoint_path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();
    ASSERT_GT(lines.size(), 2u);
    std::ofstream out(journal_options.checkpoint_path, std::ios::trunc);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      out << lines[i] << "\n";  // Drop the tail: the "crash".
    }
  }
  {
    std::ofstream job(spool + "/7.job", std::ios::binary);
    job << BuildSubmitPayload(spec);
  }

  // A fresh service over the same spool must pick the job up under its
  // original id, replay the journal and land on the reference result.
  Service service(ServiceOptions{.num_workers = 2, .spool_dir = spool});
  const auto record = service.Wait(7);
  ASSERT_TRUE(record.has_value()) << "spooled job was not recovered";
  EXPECT_EQ(record->state, JobState::kDone);
  EXPECT_TRUE(record->resumed);
  EXPECT_EQ(Field(record->result_json, "resumed"), "true");
  EXPECT_EQ(Field(record->result_json, "tests_crc32"), reference_crc);

  // The finished result persists for RESULT queries after yet another
  // restart, while the .job/.journal pair is gone.
  service.Drain();
  EXPECT_TRUE(std::filesystem::exists(spool + "/7.result.json"));
  EXPECT_FALSE(std::filesystem::exists(spool + "/7.job"));
  EXPECT_FALSE(std::filesystem::exists(spool + "/7.journal"));
  Service after_restart(ServiceOptions{.spool_dir = spool});
  const auto persisted = after_restart.Result(7);
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(*persisted, record->result_json);

  std::filesystem::remove_all(spool);
}

TEST(Service, PreserveJobCertifiesAndMapsTests) {
  // An identity "retiming" (the circuit against itself) certifies with
  // prefix 0 and must keep the mapped coverage equal to the original
  // ATPG coverage — the paper's Theorem 1 in its smallest instance.
  const netlist::Circuit circuit = QuickCircuit(5);
  JobSpec spec;
  spec.kind = JobKind::kPreserve;
  spec.name = "identity";
  spec.atpg = QuickAtpg();
  spec.netlist = netlist::WriteBenchString(circuit);
  spec.retimed = spec.netlist;
  Service service;
  const auto submission = service.Submit(spec);
  ASSERT_TRUE(submission.accepted) << submission.diagnostics.ToString();
  const auto record = service.Wait(submission.id);
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->state, JobState::kDone) << record->result_json;
  EXPECT_EQ(Field(record->result_json, "certified"), "true");
  EXPECT_EQ(Field(record->result_json, "prefix_length"), "0");
}

TEST(Service, PreserveJobMapsTheFig3PairWithOnePrefixVector) {
  // Fig. 3's forward move across the stem of q: the served pipeline
  // certifies the pair, prepends one vector, and reports what a direct
  // core::PreservePair run of the same pair reports.
  const netlist::Circuit original = retest::testing::MakeFig3L1();
  const netlist::Circuit retimed =
      retest::testing::MakeFig3Pair().applied.circuit;
  JobSpec spec;
  spec.kind = JobKind::kPreserve;
  spec.name = "fig3";
  spec.atpg = QuickAtpg();
  spec.netlist = netlist::WriteBenchString(original);
  spec.retimed = netlist::WriteBenchString(retimed);
  Service service;
  const auto submission = service.Submit(spec);
  ASSERT_TRUE(submission.accepted) << submission.diagnostics.ToString();
  const auto record = service.Wait(submission.id);
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->state, JobState::kDone) << record->result_json;
  EXPECT_EQ(Field(record->result_json, "certified"), "true");
  EXPECT_EQ(Field(record->result_json, "prefix_length"), "1");
  EXPECT_EQ(Field(record->result_json, "retimed_dffs"),
            std::to_string(retimed.num_dffs()));

  atpg::AtpgOptions reference_options = QuickAtpg();
  reference_options.num_threads = 1;  // spec.threads default.
  const core::PreserveReport reference =
      core::PreservePair(original, retimed, reference_options);
  core::TestSet reference_set;
  reference_set.tests = reference.atpg.tests;
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", core::Crc32(reference_set.ToText()));
  EXPECT_EQ(Field(record->result_json, "tests_crc32"), crc);
  EXPECT_EQ(Field(record->result_json, "gate_evals"),
            std::to_string(reference.mapped.gate_evals));
}

}  // namespace
}  // namespace retest::core::server
