// Crash-safe checkpoint/resume and the wall-clock budget: journal
// round-trips, torn-tail recovery, corruption rejection, bit-identical
// resume at any thread count, fingerprint mismatch fallback, and
// budget preemption.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "atpg/journal.h"
#include "core/status.h"
#include "fsm/benchmarks.h"
#include "synth/synthesize.h"
#include "tests/random_circuits.h"

namespace retest::atpg {
namespace {

using core::StatusCode;
using netlist::Circuit;
using sim::V3;

Circuit MidSizeCircuit() {
  retest::testing::RandomCircuitOptions options;
  options.num_inputs = 6;
  options.num_dffs = 6;
  options.num_gates = 48;
  return retest::testing::MakeRandomCircuit(11, options);
}

std::string TempPath(const std::string& name) {
  // One directory per process, so concurrent runs of this test binary
  // cannot remove or overwrite each other's journals; it is removed
  // when the process exits.
  static const struct Dir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("retest_checkpoint_tests_" + std::to_string(::getpid()));
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  std::filesystem::create_directories(dir.path);
  const auto path = dir.path / name;
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".tmp");
  return path.string();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines,
                const std::string& torn_tail = {}) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& line : lines) out << line << '\n';
  out << torn_tail;  // no newline: simulates a write cut by a crash
}

void ExpectIdenticalResults(const AtpgResult& a, const AtpgResult& b) {
  ASSERT_EQ(a.status.size(), b.status.size());
  for (size_t i = 0; i < a.status.size(); ++i) {
    EXPECT_EQ(a.status[i], b.status[i]) << "fault " << i;
  }
  EXPECT_EQ(a.tests, b.tests);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

AtpgOptions BaseOptions() {
  AtpgOptions options;
  options.seed = 9;
  options.random_rounds = 2;
  options.time_budget_ms = 600'000;
  options.num_threads = 1;
  return options;
}

TEST(Journal, WriterLoaderRoundTrip) {
  const std::string path = TempPath("roundtrip.journal");
  core::DiagnosticList diags;
  auto writer = JournalWriter::Open(path, diags);
  ASSERT_NE(writer, nullptr);
  writer->WriteHeader(0xdeadbeef, 42, 7, "my circuit");
  JournalRandomTest random;
  random.detected = {1, 4};
  random.test = {{V3::k0, V3::k1}, {V3::kX, V3::k0}};
  writer->WriteRandomTest(random);
  writer->WriteRandomDone(3, 1, false, 5, 1234);
  JournalCommit detected;
  detected.pos = 0;
  detected.status = 'D';
  detected.evaluations = 99;
  detected.cross_retired = {2, 3};
  detected.test = {{V3::k1, V3::k1}};
  writer->WriteCommit(detected);
  JournalCommit untried;
  untried.pos = 1;
  untried.status = 'U';
  writer->WriteCommit(untried);
  writer->WriteEnd(3, 1, 0, 1);
  ASSERT_TRUE(writer->Activate(diags));
  writer->Flush();
  ASSERT_TRUE(diags.ok()) << diags.ToString();

  const auto loaded = LoadJournal(path, diags);
  ASSERT_TRUE(loaded.has_value()) << diags.ToString();
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(loaded->fingerprint, 0xdeadbeefu);
  EXPECT_EQ(loaded->seed, 42u);
  EXPECT_EQ(loaded->num_faults, 7u);
  EXPECT_EQ(loaded->circuit_name, "my circuit");
  ASSERT_EQ(loaded->random_tests.size(), 1u);
  EXPECT_EQ(loaded->random_tests[0].detected, random.detected);
  EXPECT_EQ(loaded->random_tests[0].test, random.test);
  EXPECT_TRUE(loaded->random_done);
  EXPECT_EQ(loaded->random_rounds, 3);
  EXPECT_EQ(loaded->random_useless, 1);
  EXPECT_FALSE(loaded->random_stopped);
  EXPECT_EQ(loaded->remaining_count, 5u);
  EXPECT_EQ(loaded->random_evaluations, 1234);
  ASSERT_EQ(loaded->commits.size(), 2u);
  EXPECT_EQ(loaded->commits[0].status, 'D');
  EXPECT_EQ(loaded->commits[0].evaluations, 99);
  EXPECT_EQ(loaded->commits[0].cross_retired, detected.cross_retired);
  EXPECT_EQ(loaded->commits[0].test, detected.test);
  EXPECT_EQ(loaded->commits[1].status, 'U');
  EXPECT_TRUE(loaded->complete);
}

TEST(Journal, MissingFileIsACleanFirstRun) {
  core::DiagnosticList diags;
  EXPECT_FALSE(LoadJournal(TempPath("absent.journal"), diags).has_value());
  EXPECT_TRUE(diags.empty());
}

TEST(Journal, TornFinalLineIsDroppedWithANote) {
  const std::string path = TempPath("torn.journal");
  core::DiagnosticList diags;
  auto writer = JournalWriter::Open(path, diags);
  ASSERT_NE(writer, nullptr);
  writer->WriteHeader(1, 2, 3, "c");
  writer->WriteRandomDone(0, 0, false, 3, 0);
  ASSERT_TRUE(writer->Activate(diags));
  writer->Flush();
  writer.reset();
  auto lines = ReadLines(path);
  WriteLines(path, lines, "C 0 D 17");  // half a commit, no CRC/newline

  const auto loaded = LoadJournal(path, diags);
  ASSERT_TRUE(loaded.has_value()) << diags.ToString();
  EXPECT_TRUE(loaded->random_done);
  EXPECT_TRUE(loaded->commits.empty());
  EXPECT_TRUE(diags.ok());  // a note, not an error
  EXPECT_TRUE(diags.Contains(StatusCode::kCorruptData));
}

TEST(Journal, CorruptCompleteLineIsRejected) {
  const std::string path = TempPath("corrupt.journal");
  core::DiagnosticList diags;
  auto writer = JournalWriter::Open(path, diags);
  ASSERT_NE(writer, nullptr);
  writer->WriteHeader(1, 2, 3, "c");
  writer->WriteRandomDone(0, 0, false, 3, 0);
  ASSERT_TRUE(writer->Activate(diags));
  writer->Flush();
  writer.reset();
  auto lines = ReadLines(path);
  ASSERT_GE(lines.size(), 2u);
  lines[1][2] ^= 1;  // flip a bit inside the CRC-protected body
  WriteLines(path, lines);

  EXPECT_FALSE(LoadJournal(path, diags).has_value());
  EXPECT_FALSE(diags.ok());
  EXPECT_TRUE(diags.Contains(StatusCode::kCorruptData));
}

TEST(Journal, FingerprintTracksSearchRelevantOptions) {
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options = BaseOptions();
  const auto fp = JournalFingerprint(circuit, options, 100);
  AtpgOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  EXPECT_NE(fp, JournalFingerprint(circuit, reseeded, 100));
  AtpgOptions deeper = options;
  deeper.max_frames = 16;
  EXPECT_NE(fp, JournalFingerprint(circuit, deeper, 100));
  // Threads, budgets and checkpointing must NOT change the
  // fingerprint: they never change committed results.
  AtpgOptions cosmetic = options;
  cosmetic.num_threads = 7;
  cosmetic.time_budget_ms = 1;
  cosmetic.checkpoint_path = "elsewhere.journal";
  EXPECT_EQ(fp, JournalFingerprint(circuit, cosmetic, 100));
}

TEST(Checkpoint, JournalingDoesNotChangeResults) {
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options = BaseOptions();
  const AtpgResult reference = RunAtpg(circuit, options);
  options.checkpoint_path = TempPath("noop.journal");
  const AtpgResult journaled = RunAtpg(circuit, options);
  EXPECT_FALSE(journaled.resumed);
  ExpectIdenticalResults(reference, journaled);

  core::DiagnosticList diags;
  const auto journal = LoadJournal(options.checkpoint_path, diags);
  ASSERT_TRUE(journal.has_value()) << diags.ToString();
  EXPECT_TRUE(journal->complete);
  EXPECT_EQ(journal->num_faults, reference.faults.size());
}

TEST(Checkpoint, CompleteJournalReplaysEverything) {
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options = BaseOptions();
  const AtpgResult reference = RunAtpg(circuit, options);
  options.checkpoint_path = TempPath("replay_all.journal");
  (void)RunAtpg(circuit, options);
  const AtpgResult resumed = RunAtpg(circuit, options);
  EXPECT_TRUE(resumed.resumed);
  ExpectIdenticalResults(reference, resumed);
}

// The crash-recovery acceptance test: complete a checkpointed run,
// then cut its journal after k commits -- exactly the file a kill
// leaves behind, since the journal is flushed at every commit-frontier
// advance -- and resume.  The result must be bit-identical to the
// uninterrupted run, whether the resumed run uses 1 thread or 4.
TEST(Checkpoint, ResumeAfterSimulatedKillIsBitIdentical) {
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options = BaseOptions();
  const AtpgResult reference = RunAtpg(circuit, options);

  options.checkpoint_path = TempPath("kill.journal");
  (void)RunAtpg(circuit, options);
  const auto full = ReadLines(options.checkpoint_path);
  // Locate the commit records so the cut lands mid-deterministic-phase.
  std::vector<size_t> commit_lines;
  for (size_t i = 0; i < full.size(); ++i) {
    if (full[i].rfind("C ", 0) == 0) commit_lines.push_back(i);
  }
  ASSERT_GE(commit_lines.size(), 2u) << "circuit too easy to exercise resume";

  for (int threads : {1, 4}) {
    // Keep roughly half the commits, plus a torn half-written record.
    const size_t keep = commit_lines[commit_lines.size() / 2];
    WriteLines(options.checkpoint_path,
               {full.begin(), full.begin() + static_cast<long>(keep)},
               "C 999 D 12");
    AtpgOptions resume_options = options;
    resume_options.num_threads = threads;
    const AtpgResult resumed = RunAtpg(circuit, resume_options);
    EXPECT_TRUE(resumed.resumed) << "threads=" << threads;
    ExpectIdenticalResults(reference, resumed);
    // The resume rewrote the journal; it must now be complete again.
    core::DiagnosticList diags;
    const auto journal = LoadJournal(options.checkpoint_path, diags);
    ASSERT_TRUE(journal.has_value()) << diags.ToString();
    EXPECT_TRUE(journal->complete);
  }
}

TEST(Checkpoint, CutWithinRandomPhaseRerunsItIdentically) {
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options = BaseOptions();
  const AtpgResult reference = RunAtpg(circuit, options);
  options.checkpoint_path = TempPath("cut_random.journal");
  (void)RunAtpg(circuit, options);
  const auto full = ReadLines(options.checkpoint_path);
  ASSERT_FALSE(full.empty());
  // Keep only the header: as if the crash hit before the random phase
  // finished.  The resumed run must rerun everything from scratch.
  WriteLines(options.checkpoint_path, {full.front()});
  const AtpgResult resumed = RunAtpg(circuit, options);
  EXPECT_FALSE(resumed.resumed);
  ExpectIdenticalResults(reference, resumed);
}

TEST(Checkpoint, MismatchedConfigurationStartsFresh) {
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options = BaseOptions();
  options.checkpoint_path = TempPath("mismatch.journal");
  (void)RunAtpg(circuit, options);

  AtpgOptions reseeded = options;
  reseeded.seed = options.seed + 1;
  const AtpgResult fresh = RunAtpg(circuit, reseeded);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_TRUE(fresh.diagnostics.Contains(StatusCode::kMismatch))
      << fresh.diagnostics.ToString();

  AtpgOptions no_checkpoint = reseeded;
  no_checkpoint.checkpoint_path.clear();
  ExpectIdenticalResults(RunAtpg(circuit, no_checkpoint), fresh);
}

TEST(Checkpoint, CorruptJournalIsReportedAndRewritten) {
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options = BaseOptions();
  options.checkpoint_path = TempPath("corrupt_run.journal");
  (void)RunAtpg(circuit, options);
  auto lines = ReadLines(options.checkpoint_path);
  ASSERT_GE(lines.size(), 3u);
  lines[2][0] = '#';
  WriteLines(options.checkpoint_path, lines);

  const AtpgResult fresh = RunAtpg(circuit, options);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_TRUE(fresh.diagnostics.Contains(StatusCode::kCorruptData))
      << fresh.diagnostics.ToString();
  AtpgOptions no_checkpoint = options;
  no_checkpoint.checkpoint_path.clear();
  ExpectIdenticalResults(RunAtpg(circuit, no_checkpoint), fresh);

  core::DiagnosticList diags;
  const auto rewritten = LoadJournal(options.checkpoint_path, diags);
  ASSERT_TRUE(rewritten.has_value()) << diags.ToString();
  EXPECT_TRUE(rewritten->complete);
}

TEST(Checkpoint, PreemptedRunResumesToTheUninterruptedResult) {
  // A genuinely budget-preempted run (not a simulated cut): whatever
  // the tiny budget managed to commit, resuming with a full budget
  // must land on the uninterrupted result.
  const Circuit circuit = MidSizeCircuit();
  AtpgOptions options = BaseOptions();
  const AtpgResult reference = RunAtpg(circuit, options);

  AtpgOptions tiny = options;
  tiny.checkpoint_path = TempPath("preempted.journal");
  tiny.time_budget_ms = 5;
  (void)RunAtpg(circuit, tiny);

  AtpgOptions resume = options;
  resume.checkpoint_path = tiny.checkpoint_path;
  const AtpgResult resumed = RunAtpg(circuit, resume);
  ExpectIdenticalResults(reference, resumed);
}

// The justification twin of the test above, swept over tiny budgets
// at 2 threads with the small per-fault limits of a quick HITEC-style
// run (two frame depths, shallow justification).  A stop can land in
// the last depth's justification or in its verification; the fault
// must then commit kUntried, not a cut-short kAborted, or the resumed
// run differs from the uninterrupted one.
TEST(Checkpoint, PreemptedJustificationRunResumesToTheUninterruptedResult) {
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  const Circuit circuit = Synthesize(machine, synth::SynthesisOptions{});
  AtpgOptions options = BaseOptions();
  options.style = AtpgStyle::kJustification;
  options.random_rounds = 0;
  options.num_threads = 2;
  options.max_frames = 2;
  options.backtracks_per_fault = 10;
  options.evaluations_per_fault = 2000;
  options.justify_max_depth = 4;
  options.justify_backtracks = 20;
  const AtpgResult reference = RunAtpg(circuit, options);
  ASSERT_FALSE(reference.preempted);

  for (long budget_ms = 1; budget_ms <= 28; budget_ms += 3) {
    AtpgOptions tiny = options;
    tiny.checkpoint_path = TempPath("preempted_justification.journal");
    tiny.time_budget_ms = budget_ms;
    (void)RunAtpg(circuit, tiny);

    AtpgOptions resume = options;
    resume.checkpoint_path = tiny.checkpoint_path;
    SCOPED_TRACE("budget_ms " + std::to_string(budget_ms));
    ExpectIdenticalResults(reference, RunAtpg(circuit, resume));
  }
}

// The wall-clock budget is the run's one deadline: at 1 ms it stops
// the run at the commit frontier with kUntried faults and no
// diagnostic, far inside the time the search would take.
TEST(Watchdog, DeadlineCapsTheRunCleanly) {
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  const Circuit circuit = Synthesize(machine, synthesis);
  AtpgOptions options;
  options.random_rounds = 0;
  options.num_threads = 4;
  options.time_budget_ms = 1;
  const AtpgResult result = RunAtpg(circuit, options);
  EXPECT_GT(result.Count(FaultStatus::kUntried), 0);
  EXPECT_TRUE(result.preempted);
  EXPECT_EQ(result.diagnostics.size(), 0u) << result.diagnostics.ToString();
  EXPECT_LT(result.elapsed_ms, 30'000);
}

}  // namespace
}  // namespace retest::atpg
