// Crash-safe checkpoint/resume and the wall-clock budget: journal
// round-trips, torn-tail recovery, corruption rejection, bit-identical
// resume at any thread count, fingerprint mismatch fallback, and
// budget preemption.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "atpg/journal.h"
#include "core/crc32.h"
#include "core/status.h"
#include "fsm/benchmarks.h"
#include "synth/synthesize.h"
#include "tests/journal_text.h"
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

/// `body` signed with its CRC, exactly as the writer signs a record.
std::string SignedRecord(const std::string& body) {
  char crc[10];
  std::snprintf(crc, sizeof crc, "|%08x", core::Crc32(body));
  return body + crc;
}

// Every record kind, written through the recording API and replayed by
// a second Open: the bytes on disk, the replayed statuses, tests,
// evaluations, queue and retirement map, the kUntried commit ending the
// prefix, and the accepted prefix copied as it was.
TEST(Journal, WriterLoaderRoundTrip) {
  const std::string path = TempPath("roundtrip.journal");
  const Circuit circuit = MidSizeCircuit();  // 6 inputs
  const AtpgOptions options = BaseOptions();
  constexpr std::size_t kFaults = 7;
  const sim::InputSequence random_test = {
      {V3::k0, V3::k1, V3::kX, V3::k0, V3::k1, V3::k1},
      {V3::kX, V3::k0, V3::k0, V3::k0, V3::k0, V3::k1}};
  const sim::InputSequence detected_test = {
      {V3::k1, V3::k1, V3::k1, V3::k1, V3::k1, V3::k1}};
  core::DiagnosticList diags;
  {
    auto checkpoint = Checkpoint::Open(path, circuit, options, kFaults, diags);
    AtpgResult nothing;
    std::vector<std::size_t> remaining;
    EXPECT_FALSE(checkpoint->Restore(nothing, remaining));
    checkpoint->RecordRandomTest({1, 4}, random_test);
    checkpoint->RecordRandomDone(3, 1, false, 5, 1234);
    checkpoint->RecordCommit(0, FaultStatus::kDetected, 99, {2, 3},
                             detected_test);
    checkpoint->RecordCommit(1, FaultStatus::kUntried, 0, {}, {});
    AtpgResult tallies;
    tallies.status = {FaultStatus::kDetected, FaultStatus::kDetected,
                      FaultStatus::kDetected, FaultStatus::kRedundant,
                      FaultStatus::kUntried};
    checkpoint->RecordEnd(tallies);
  }
  ASSERT_TRUE(diags.empty()) << diags.ToString();

  char fingerprint[9];
  std::snprintf(fingerprint, sizeof fingerprint, "%08x",
                JournalFingerprint(circuit, options, kFaults));
  const std::vector<std::string> bodies = {
      std::string("J1 ") + fingerprint + " 9 7 " + circuit.name(),
      "T 2 1 4 01x011,x00001",
      "R 3 1 0 5 1234",
      "C 0 D 99 2 2 3 111111",
      "C 1 U 0 0",
      "E 3 1 0 1"};
  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(lines[i], SignedRecord(bodies[i]));
  }

  auto reopened = Checkpoint::Open(path, circuit, options, kFaults, diags);
  EXPECT_TRUE(diags.empty()) << diags.ToString();
  AtpgResult result;
  std::vector<std::size_t> remaining;
  ASSERT_TRUE(reopened->Restore(result, remaining));
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(remaining, (std::vector<std::size_t>{0, 2, 3, 5, 6}));
  const FaultStatus D = FaultStatus::kDetected;
  const FaultStatus U = FaultStatus::kUntried;
  EXPECT_EQ(result.status, (std::vector<FaultStatus>{D, D, U, D, D, D, U}));
  EXPECT_EQ(result.tests,
            (std::vector<sim::InputSequence>{random_test, detected_test}));
  EXPECT_EQ(result.evaluations, 1234 + 99);
  EXPECT_EQ(reopened->frontier(), 1u);  // the kUntried commit ends it
  EXPECT_FALSE(reopened->retired(1));
  EXPECT_TRUE(reopened->retired(2));
  EXPECT_TRUE(reopened->retired(3));
  EXPECT_FALSE(reopened->retired(4));
  reopened.reset();
  EXPECT_EQ(ReadLines(path),
            (std::vector<std::string>(lines.begin(), lines.begin() + 4)));
}

TEST(Journal, MissingFileIsACleanFirstRun) {
  core::DiagnosticList diags;
  auto checkpoint = Checkpoint::Open(TempPath("absent.journal"),
                                     MidSizeCircuit(), BaseOptions(), 3,
                                     diags);
  AtpgResult result;
  std::vector<std::size_t> remaining;
  EXPECT_FALSE(checkpoint->Restore(result, remaining));
  EXPECT_EQ(checkpoint->frontier(), 0u);
  EXPECT_TRUE(diags.empty());
}

/// A journal of a header and a random-done record for 3 faults, with
/// nothing detected.
void WriteRandomDoneJournal(const std::string& path) {
  core::DiagnosticList diags;
  auto checkpoint =
      Checkpoint::Open(path, MidSizeCircuit(), BaseOptions(), 3, diags);
  checkpoint->RecordRandomDone(0, 0, false, 3, 0);
  ASSERT_TRUE(diags.empty()) << diags.ToString();
}

TEST(Journal, TornFinalLineIsDroppedWithANote) {
  const std::string path = TempPath("torn.journal");
  WriteRandomDoneJournal(path);
  auto lines = ReadLines(path);
  WriteLines(path, lines, "C 0 D 17");  // half a commit, no CRC/newline

  core::DiagnosticList diags;
  auto checkpoint =
      Checkpoint::Open(path, MidSizeCircuit(), BaseOptions(), 3, diags);
  AtpgResult result;
  std::vector<std::size_t> remaining;
  ASSERT_TRUE(checkpoint->Restore(result, remaining)) << diags.ToString();
  EXPECT_EQ(remaining.size(), 3u);
  EXPECT_EQ(checkpoint->frontier(), 0u);  // no commit survived
  EXPECT_TRUE(diags.ok());  // a note, not an error
  EXPECT_TRUE(diags.Contains(StatusCode::kCorruptData));
}

TEST(Journal, CorruptCompleteLineIsRejected) {
  const std::string path = TempPath("corrupt.journal");
  WriteRandomDoneJournal(path);
  auto lines = ReadLines(path);
  ASSERT_GE(lines.size(), 2u);
  lines[1][2] ^= 1;  // flip a bit inside the CRC-protected body
  WriteLines(path, lines);

  core::DiagnosticList diags;
  auto checkpoint =
      Checkpoint::Open(path, MidSizeCircuit(), BaseOptions(), 3, diags);
  AtpgResult result;
  std::vector<std::size_t> remaining;
  EXPECT_FALSE(checkpoint->Restore(result, remaining));
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

  const auto journal = testing::ReadJournalText(options.checkpoint_path);
  ASSERT_TRUE(journal.has_value());
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
    const auto journal = testing::ReadJournalText(options.checkpoint_path);
    ASSERT_TRUE(journal.has_value());
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

  const auto rewritten = testing::ReadJournalText(options.checkpoint_path);
  ASSERT_TRUE(rewritten.has_value());
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

// ---- Replay validation: CRC-valid journals whose contents are wrong.
// A record edited and re-signed with a correct CRC passes every
// syntax check; only the replay's semantic checks can catch it.  Each
// edit must either degrade to a fresh run with a corrupt_data note or
// end the replayed prefix, and either way the run lands on the
// uninterrupted result.

/// The whitespace-separated fields of a record line's CRC-guarded body.
std::vector<std::string> RecordFields(const std::string& line) {
  std::istringstream in(line.substr(0, line.rfind('|')));
  std::vector<std::string> fields;
  for (std::string field; in >> field;) fields.push_back(field);
  return fields;
}

std::string JoinFields(const std::vector<std::string>& fields) {
  std::string body;
  for (const std::string& field : fields) {
    if (!body.empty()) body += ' ';
    body += field;
  }
  return body;
}

enum class Outcome { kFresh, kResumed };

/// Writes a complete journal with `options`, re-signs the first record
/// for which `edit` returns true (it rewrites the record's fields),
/// resumes from it and checks the result against an uninterrupted run.
void ExpectEditedJournalReplaysSafely(
    AtpgOptions options, const std::string& name, Outcome outcome,
    const std::function<bool(std::vector<std::string>&)>& edit) {
  const Circuit circuit = MidSizeCircuit();
  const AtpgResult reference = RunAtpg(circuit, options);
  options.checkpoint_path = TempPath(name);
  (void)RunAtpg(circuit, options);
  auto lines = ReadLines(options.checkpoint_path);
  bool edited = false;
  for (std::string& line : lines) {
    std::vector<std::string> fields = RecordFields(line);
    if (edit(fields)) {
      line = SignedRecord(JoinFields(fields));
      edited = true;
      break;
    }
  }
  ASSERT_TRUE(edited) << "no record to edit in " << name;
  WriteLines(options.checkpoint_path, lines);

  const AtpgResult resumed = RunAtpg(circuit, options);
  if (outcome == Outcome::kFresh) {
    EXPECT_FALSE(resumed.resumed);
    EXPECT_TRUE(resumed.diagnostics.Contains(StatusCode::kCorruptData))
        << resumed.diagnostics.ToString();
  } else {
    EXPECT_TRUE(resumed.resumed);
  }
  ExpectIdenticalResults(reference, resumed);
}

/// Options whose journal holds deterministic commits right after the
/// header: D commits with cross-retired positions, then S commits.
AtpgOptions NoRandomPhaseOptions() {
  AtpgOptions options = BaseOptions();
  options.random_rounds = 0;
  return options;
}

/// Adds `index` to a random-test record's faults (T <n> <idx x n>
/// <sequence>).  Every fault the record already lists stays detected,
/// so the random-done record's remaining count still agrees and only
/// the check on the added index can reject the journal.
void AddDetectedIndex(std::vector<std::string>& fields,
                      const std::string& index) {
  fields[1] = std::to_string(std::stoul(fields[1]) + 1);
  fields.insert(fields.end() - 1, index);
}

TEST(Checkpoint, RandomTestWithAnOutOfRangeFaultIndexStartsFresh) {
  const std::size_t num_faults = RunAtpg(MidSizeCircuit()).faults.size();
  ExpectEditedJournalReplaysSafely(
      BaseOptions(), "random_out_of_range.journal", Outcome::kFresh,
      [&](std::vector<std::string>& fields) {
        if (fields[0] != "T") return false;
        AddDetectedIndex(fields, std::to_string(num_faults));
        return true;
      });
}

TEST(Checkpoint, RandomTestWithARepeatedFaultIndexStartsFresh) {
  ExpectEditedJournalReplaysSafely(
      BaseOptions(), "random_repeated.journal", Outcome::kFresh,
      [](std::vector<std::string>& fields) {
        if (fields[0] != "T") return false;
        AddDetectedIndex(fields, fields[2]);
        return true;
      });
}

TEST(Checkpoint, RandomTestOfTheWrongWidthStartsFresh) {
  ExpectEditedJournalReplaysSafely(
      BaseOptions(), "random_width.journal", Outcome::kFresh,
      [](std::vector<std::string>& fields) {
        if (fields[0] != "T") return false;
        fields.back().insert(0, 1, '0');
        return true;
      });
}

TEST(Checkpoint, RemainingCountDisagreeingWithTheRandomTestsStartsFresh) {
  ExpectEditedJournalReplaysSafely(
      BaseOptions(), "remaining_count.journal", Outcome::kFresh,
      [](std::vector<std::string>& fields) {
        if (fields[0] != "R") return false;
        fields[4] = std::to_string(std::stoul(fields[4]) + 1);
        return true;
      });
}

TEST(Checkpoint, CrossRetiredPositionAtItsCommitEndsThePrefix) {
  ExpectEditedJournalReplaysSafely(
      NoRandomPhaseOptions(), "cross_at_commit.journal", Outcome::kResumed,
      [](std::vector<std::string>& fields) {
        // C <pos> D <evals> <ncross> <pos x ncross> <sequence>
        if (fields[0] != "C" || fields[1] == "0" || fields[2] != "D" ||
            fields[4] == "0") {
          return false;
        }
        fields[5] = fields[1];
        return true;
      });
}

TEST(Checkpoint, DetectedCommitOfTheWrongWidthEndsThePrefix) {
  ExpectEditedJournalReplaysSafely(
      NoRandomPhaseOptions(), "commit_width.journal", Outcome::kResumed,
      [](std::vector<std::string>& fields) {
        if (fields[0] != "C" || fields[1] == "0" || fields[2] != "D") {
          return false;
        }
        fields.back().insert(0, 1, '0');
        return true;
      });
}

TEST(Checkpoint, SkipCommitAtAPositionNobodyRetiredEndsThePrefix) {
  ExpectEditedJournalReplaysSafely(
      NoRandomPhaseOptions(), "skip_unretired.journal", Outcome::kResumed,
      [](std::vector<std::string>& fields) {
        // Commit 0 is never retired: no earlier commit exists.
        if (fields[0] != "C" || fields[1] != "0") return false;
        fields = {"C", "0", "S", "0", "0"};
        return true;
      });
}

// An earlier commit's test retired this position, so the original run
// discarded its search (S).  A non-S commit there would overwrite the
// cross-retired kDetected: the prefix must end before it.
TEST(Checkpoint, NonSkipCommitAtARetiredPositionEndsThePrefix) {
  ExpectEditedJournalReplaysSafely(
      NoRandomPhaseOptions(), "retired_aborted.journal", Outcome::kResumed,
      [](std::vector<std::string>& fields) {
        if (fields[0] != "C" || fields[2] != "S") return false;
        fields[2] = "A";
        return true;
      });
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
