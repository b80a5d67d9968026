// Crash-safe checkpoint for the ATPG pipeline: the one owner of the
// journal file, its record format and its replay rules.
//
// RunAtpg with AtpgOptions::checkpoint_path set opens a Checkpoint.
// Checkpoint::Open loads any journal already at the path, checks its
// fingerprint and validates every record against this run in a single
// pass, then starts this run's journal: a fresh header plus the
// accepted prefix's original lines, published with the durable
// tmp-file rename (core/durable).  From there RunAtpg and the
// deterministic driver record random-phase tests, commits and skips in
// FaultStatus terms; the record encoding lives in journal.cpp alone.
// Every line carries a CRC-32 of its body (core/crc32), so truncation
// and bit rot are detected before a record is trusted; the driver
// flushes once per commit-frontier drain (atpg/parallel_driver).
//
// Resume contract: a journal is replayed only when its fingerprint
// (circuit structure + seed + every search-relevant option) matches
// this run.  Replay applies the random-phase records, then the longest
// prefix of commit records that is consistent with this run, up to the
// first kUntried commit -- a kUntried commit marks a budget or cancel
// stop, exactly where the interrupted run stopped doing real work.
// Because each fault's search is a pure function of (circuit, fault,
// seed), the resumed run re-searches the remaining suffix and lands on
// the same final test set as an uninterrupted run, bit for bit, at any
// thread count.
//
// What a bad journal does:
//   * torn final line (a write cut by a crash): dropped with a note;
//   * CRC mismatch or malformed *complete* line: corrupt_data error,
//     the run starts fresh;
//   * fingerprint of another run: mismatch note, the run starts fresh;
//   * random-phase records inconsistent with this run (fault index out
//     of range or repeated, vector of the wrong width, remaining count
//     that disagrees): corrupt_data note, the run starts fresh;
//   * a commit inconsistent with the replay so far (out of order, a
//     kUntried, a skip at a position no earlier test retired, a
//     non-skip at one an earlier test did retire, a vector of the
//     wrong width, cross-retired positions not strictly increasing
//     after the commit's own, a negative evaluation count): the
//     replayed prefix ends there and the rest is re-searched.
//
// Record grammar (one record per line, "body|crc32hex"):
//   J1 <fp-hex8> <seed> <num-faults> <circuit-name>
//   T <n> <fault-idx x n> <sequence>          random-phase kept test
//   R <rounds> <useless> <stopped01> <remaining> <evaluations>
//   C <pos> <D|R|A|U|S> <evals> <ncross> <pos x ncross> [<sequence>]
//   E <detected> <redundant> <aborted> <untried>
// Sequences encode one vector per comma-separated group of 0/1/x
// characters ('-' for a zero-input circuit's empty vector).  A commit's
// status is D(etected), R(edundant), A(borted), U(ntried) or S(kipped:
// an earlier test retired the fault).  See docs/ROBUSTNESS.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "core/status.h"

namespace retest::atpg {

/// Fingerprint of everything the search outcome depends on: circuit
/// structure, seed, style and every per-fault limit (thread count,
/// budgets and checkpoint settings deliberately excluded -- they never
/// change committed results, only how far a run gets).
std::uint32_t JournalFingerprint(const netlist::Circuit& circuit,
                                 const AtpgOptions& options,
                                 std::size_t num_faults);

/// One run's checkpoint: the validated replay of the journal found at
/// its path, and the writer of this run's journal.
class Checkpoint {
 public:
  /// Loads and validates the journal at `path` (absent: a normal first
  /// run, no diagnostic), then starts this run's journal in
  /// "<path>.tmp" -- header, then the accepted prefix copied line for
  /// line -- and renames it over `path` (file fsync, rename, directory
  /// fsync; counter atpg.journal.fsync), so a crash mid-rewrite leaves
  /// the previous journal intact.  When the file cannot be opened
  /// (io_error) the replay still applies and recording is a no-op.
  /// Notes and errors go to `diags`.
  static std::unique_ptr<Checkpoint> Open(const std::string& path,
                                          const netlist::Circuit& circuit,
                                          const AtpgOptions& options,
                                          std::size_t num_faults,
                                          core::DiagnosticList& diags);
  ~Checkpoint();

  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  /// Moves the replayed run into `result` (status, tests, evaluations,
  /// resumed) and sets `remaining` to the queue the deterministic phase
  /// walks.  Returns false, touching nothing, when the journal holds no
  /// replayable random phase: the run starts fresh.  Call at most once.
  bool Restore(AtpgResult& result, std::vector<std::size_t>& remaining);

  /// Queue positions below the frontier were committed by the replay.
  std::size_t frontier() const;
  /// True when a replayed test retired queue position `pos`.
  bool retired(std::size_t pos) const;

  /// Recording.  Each appends one record; RecordRandomDone, Flush and
  /// RecordEnd also flush the stream (fflush: process-crash safe).
  void RecordRandomTest(const std::vector<std::size_t>& detected,
                        const sim::InputSequence& test);
  void RecordRandomDone(int rounds, int useless, bool stopped,
                        std::size_t remaining, long evaluations);
  /// Commit of queue position `pos`; `test` is recorded only when
  /// `status` is kDetected.
  void RecordCommit(std::size_t pos, FaultStatus status, long evaluations,
                    const std::vector<std::size_t>& cross_retired,
                    const sim::InputSequence& test);
  /// Commit of a position an earlier test retired: its search result
  /// was discarded.
  void RecordSkip(std::size_t pos);
  /// The commit-frontier flush, once per drain batch (counter
  /// atpg.checkpoint.flushes).
  void Flush();
  void RecordEnd(const AtpgResult& result);

 private:
  struct Replay;

  explicit Checkpoint(std::string path);
  static std::unique_ptr<Replay> Load(const std::string& path,
                                      std::uint32_t fingerprint,
                                      int num_inputs, std::size_t num_faults,
                                      core::DiagnosticList& diags);
  void Start(std::uint32_t fingerprint, std::uint64_t seed,
             std::size_t num_faults, const std::string& circuit_name,
             core::DiagnosticList& diags);
  void WriteRecord(const std::string& body);
  /// Appends `line` and its newline (chaos site atpg.journal.torn_write).
  void WriteLine(std::string line);
  void FlushFile();

  std::string path_;
  std::unique_ptr<Replay> replay_;  ///< Null: the run starts fresh.
  std::FILE* file_ = nullptr;       ///< Null: recording is a no-op.
  /// Chaos (atpg.journal.torn_write): a torn write leaves a record
  /// prefix on disk and silences the writer -- the in-memory run is
  /// unaffected, but the file freezes in its crash-shaped state.
  bool torn_ = false;
};

}  // namespace retest::atpg
