// Structured diagnostics — the error-reporting currency of the
// ingestion and persistence layers.
//
// The ingestion layer (netlist/bench_io, netlist/check) and the ATPG
// checkpoint journal (atpg/journal) report problems as Diagnostic
// values collected into a DiagnosticList instead of throwing on the
// first error: one invocation over a malformed input reports *every*
// problem, each anchored to a source (file, subsystem) and, where
// meaningful, a 1-based line number.  Callers that still want
// exception semantics wrap the list (ReadBench / CheckOrThrow throw a
// std::runtime_error whose message is DiagnosticList::ToString()).
//
// docs/ROBUSTNESS.md catalogues which subsystem emits which codes and
// how the bench drivers map them to exit codes.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace retest::core {

/// Broad failure class of one diagnostic.  Codes are stable: tools and
/// tests may match on them (messages are for humans and may change).
enum class StatusCode {
  kOk = 0,
  kParseError,        ///< Malformed input text (bench grammar, journal line).
  kStructuralError,   ///< Well-formed text, ill-formed circuit (netlist/check).
  kIoError,           ///< File could not be opened / read / written.
  kCorruptData,       ///< CRC mismatch or malformed binary/journal record.
  kMismatch,          ///< Valid data for a *different* run (fingerprint/seed).
  kLintFinding,       ///< Well-formed but suspect structure (analyze/lint).
  kCertifyRefused,    ///< Claimed retiming failed certification (analyze/certify).
  kInternal,          ///< Invariant violation; always a bug.
};

/// Stable name of a code ("parse_error", "corrupt_data", ...).
std::string_view ToString(StatusCode code);

/// One problem: what kind, where, and a human-readable message.
struct Diagnostic {
  StatusCode code = StatusCode::kInternal;
  std::string message;
  /// What produced it: an input file name, "bench", "check", "journal".
  std::string source;
  /// 1-based line in `source` when the problem is line-anchored; 0
  /// otherwise.
  int line = 0;

  /// "source:line: code: message" (omitting empty/zero parts).
  std::string ToString() const;
};

/// An ordered collection of diagnostics.  Empty means success; the
/// producers append every problem they find rather than stopping at
/// the first.
class DiagnosticList {
 public:
  /// True when no error-level diagnostic was recorded.  (All current
  /// producers treat every diagnostic as an error; notes use
  /// AddNote and do not affect ok().)
  bool ok() const { return error_count_ == 0; }

  /// Number of diagnostics (errors + notes).
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t error_count() const { return error_count_; }

  const Diagnostic& operator[](std::size_t i) const { return items_[i]; }
  std::vector<Diagnostic>::const_iterator begin() const {
    return items_.begin();
  }
  std::vector<Diagnostic>::const_iterator end() const { return items_.end(); }

  /// Appends an error diagnostic.
  void Add(StatusCode code, std::string message, std::string source = {},
           int line = 0);

  /// Appends an informational note: recorded and printed like an
  /// error, but does not flip ok().  Used for recoverable events the
  /// caller should still see (e.g. a torn journal tail that was
  /// dropped during crash recovery).
  void AddNote(StatusCode code, std::string message, std::string source = {},
               int line = 0);

  /// Merges `other`'s diagnostics (and error count) into this list.
  void Append(const DiagnosticList& other);

  /// True when any diagnostic (error or note) carries `code`.
  bool Contains(StatusCode code) const;

  /// All diagnostics, one per line (Diagnostic::ToString each).
  std::string ToString() const;

 private:
  std::vector<Diagnostic> items_;
  std::vector<bool> is_note_;  // parallel to items_
  std::size_t error_count_ = 0;
};

}  // namespace retest::core
