// Crash-safe checkpoint journal for the ATPG pipeline.
//
// RunAtpg with AtpgOptions::checkpoint_path set appends every durable
// event of a run — the header fingerprint, each random-phase test that
// was kept, the random-phase summary, and every fault-ordered commit
// of the deterministic phase — to a line-oriented journal file.  Every
// line carries a CRC-32 of its body (core/crc32), so truncation and
// bit rot are detected before a record is trusted; the writer flushes
// at the deterministic phase's commit frontier, the natural
// consistency point (atpg/parallel_driver).
//
// Resume contract: a journal is replayed only when its fingerprint
// (circuit structure + seed + every search-relevant option) matches
// the current run.  Replay applies the random-phase records, then the
// longest prefix of commit records up to the first kUntried commit —
// a kUntried commit marks a budget or cancel stop, i.e. exactly
// where the interrupted run stopped doing real work.  Because each
// fault's search is a pure function of (circuit, fault, seed), the
// resumed run re-searches the remaining suffix and lands on the same
// final test set as an uninterrupted run, bit for bit, at any thread
// count.  A torn final line (a write cut mid-record by the crash) is
// dropped with a note; a CRC mismatch on a *complete* line means the
// file is corrupt and the journal is rejected with a diagnostic.
//
// Record grammar (one record per line, "body|crc32hex"):
//   J1 <fp-hex8> <seed> <num-faults> <circuit-name>
//   T <n> <fault-idx x n> <sequence>          random-phase kept test
//   R <rounds> <useless> <stopped01> <remaining> <evaluations>
//   C <pos> <D|R|A|U|S> <evals> <ncross> <pos x ncross> [<sequence>]
//   E <detected> <redundant> <aborted> <untried>
// Sequences encode one vector per comma-separated group of 0/1/x
// characters ('-' for a zero-input circuit's empty vector).
// See docs/ROBUSTNESS.md for the full format and workflow.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "core/status.h"

namespace retest::atpg {

/// One kept random-phase sequence and the faults it newly detected
/// (global indices into AtpgResult::faults).
struct JournalRandomTest {
  std::vector<std::size_t> detected;
  sim::InputSequence test;
};

/// One deterministic-phase commit, in frontier order.  `pos` indexes
/// the post-random-phase remaining queue; `cross_retired` lists the
/// later queue positions this commit's test retired.
struct JournalCommit {
  std::size_t pos = 0;
  char status = 'U';  ///< D(etected) R(edundant) A(borted) U(ntried) S(kipped)
  long evaluations = 0;
  std::vector<std::size_t> cross_retired;
  sim::InputSequence test;  ///< Present exactly when status == 'D'.
};

/// Everything a journal file holds.
struct JournalContents {
  std::uint32_t fingerprint = 0;
  std::uint64_t seed = 0;
  std::size_t num_faults = 0;
  std::string circuit_name;

  std::vector<JournalRandomTest> random_tests;
  bool random_done = false;
  int random_rounds = 0;
  int random_useless = 0;
  bool random_stopped = false;       ///< Random phase cut by the budget.
  std::size_t remaining_count = 0;   ///< Queue size entering the det phase.
  long random_evaluations = 0;       ///< result.evaluations after random.

  std::vector<JournalCommit> commits;
  bool complete = false;  ///< End record present (clean shutdown).
};

/// Fingerprint of everything the search outcome depends on: circuit
/// structure, seed, style and every per-fault limit (thread count,
/// budgets and checkpoint settings deliberately excluded — they never
/// change committed results, only how far a run gets).
std::uint32_t JournalFingerprint(const netlist::Circuit& circuit,
                                 const AtpgOptions& options,
                                 std::size_t num_faults);

/// Loads a journal.  Returns nullopt when `path` does not exist (a
/// normal first run — no diagnostic) or when the file is corrupt (CRC
/// mismatch / malformed record — StatusCode::kCorruptData diagnostic).
/// A torn final line is dropped with a note and the intact prefix is
/// returned.
std::optional<JournalContents> LoadJournal(const std::string& path,
                                           core::DiagnosticList& diags);

/// Appending journal writer.  Records are written to "<path>.tmp"
/// until Activate() renames it over `path` — so a half-rewritten
/// resume never clobbers the previous journal, and after Activate the
/// same handle keeps appending to the real file.  All methods are
/// cheap (buffered stdio); Flush() is the durability point the driver
/// calls at each commit-frontier advance.
class JournalWriter {
 public:
  /// Opens "<path>.tmp" for writing; nullptr + kIoError diagnostic on
  /// failure.
  static std::unique_ptr<JournalWriter> Open(const std::string& path,
                                             core::DiagnosticList& diags);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void WriteHeader(std::uint32_t fingerprint, std::uint64_t seed,
                   std::size_t num_faults, const std::string& circuit_name);
  void WriteRandomTest(const JournalRandomTest& record);
  void WriteRandomDone(int rounds, int useless, bool stopped,
                       std::size_t remaining, long evaluations);
  void WriteCommit(const JournalCommit& record);
  void WriteEnd(int detected, int redundant, int aborted, int untried);

  /// Renames "<path>.tmp" over `path`; reports failure once via
  /// `diags` (the writer keeps appending to the tmp file regardless).
  /// Durability order: the tmp file is fsync'd before the rename and
  /// the parent directory after it, so the activated name can never
  /// refer to records still in the page cache and the rename itself
  /// survives a power cut (counter: atpg.journal.fsync).
  bool Activate(core::DiagnosticList& diags);

  /// Flushes buffered records to the OS (fflush; crash-of-process
  /// safe, not crash-of-kernel durable).
  void Flush();

 private:
  JournalWriter(std::FILE* file, std::string path);
  void WriteLine(const std::string& body);

  std::FILE* file_;
  std::string path_;
  bool activated_ = false;
  /// Chaos (atpg.journal.torn_write): a torn write leaves a record
  /// prefix on disk and silences the writer — the in-memory run is
  /// unaffected, but the file freezes in its crash-shaped state.
  bool torn_ = false;
};

}  // namespace retest::atpg
