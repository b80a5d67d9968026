#include "atpg/journal.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/chaos.h"
#include "core/crc32.h"
#include "core/durable.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "sim/logic3.h"

namespace retest::atpg {
namespace {

using core::StatusCode;
using sim::InputSequence;

constexpr char kRecordSeparator = '|';

/// Cap on a replayed evaluation count: far above any real run's work,
/// so the live run's additions on top of a replayed total cannot
/// overflow.
constexpr long kMaxEvaluations = 1L << 62;

std::string EncodeSequence(const sim::InputSequence& sequence) {
  std::string out;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    if (i > 0) out += ',';
    if (sequence[i].empty()) {
      out += '-';  // zero-input circuit: the vector itself is empty
    } else {
      for (sim::V3 v : sequence[i]) out += sim::ToChar(v);
    }
  }
  return out;
}

bool DecodeSequence(const std::string& text, sim::InputSequence& out) {
  out.clear();
  if (text.empty()) return false;
  sim::InputVector vector;
  for (char c : text) {
    if (c == ',') {
      out.push_back(vector);
      vector.clear();
    } else if (c == '-') {
      // stands for an empty vector; nothing to append
    } else if (c == '0' || c == '1' || c == 'x') {
      vector.push_back(sim::FromChar(c));
    } else {
      return false;
    }
  }
  out.push_back(vector);
  return true;
}

// Incremental fingerprint helper: numbers are hashed via their decimal
// rendering with a separator, so field boundaries cannot alias.
class Hasher {
 public:
  void Text(std::string_view text) {
    crc_ = core::Crc32(text, crc_);
    crc_ = core::Crc32("\x1f", crc_);
  }
  void Number(long long value) { Text(std::to_string(value)); }
  std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

struct LineParser {
  std::istringstream in;
  bool failed = false;

  explicit LineParser(const std::string& body) : in(body) {}

  std::string Token() {
    std::string token;
    if (!(in >> token)) failed = true;
    return token;
  }
  unsigned long long Unsigned() {
    unsigned long long value = 0;
    if (!(in >> value)) failed = true;
    return value;
  }
  long long Signed() {
    long long value = 0;
    if (!(in >> value)) failed = true;
    return value;
  }
  bool AtEnd() {
    std::string extra;
    return !(in >> extra);
  }
};

/// A commit's status character: the FaultStatus values in enum order,
/// then S(kipped).
constexpr std::string_view kStatusChars = "DRAUS";

/// True when every vector of `sequence` is `num_inputs` wide.
bool Fits(const InputSequence& sequence, int num_inputs) {
  return std::all_of(sequence.begin(), sequence.end(),
                     [&](const sim::InputVector& vector) {
                       return vector.size() ==
                              static_cast<std::size_t>(num_inputs);
                     });
}

}  // namespace

std::uint32_t JournalFingerprint(const netlist::Circuit& circuit,
                                 const AtpgOptions& options,
                                 std::size_t num_faults) {
  Hasher hash;
  hash.Text("retest-atpg-journal-v1");
  hash.Text(circuit.name());
  hash.Number(circuit.size());
  for (netlist::NodeId id = 0; id < circuit.size(); ++id) {
    const netlist::Node& node = circuit.node(id);
    hash.Number(static_cast<long long>(node.kind));
    hash.Text(node.name);
    hash.Number(static_cast<long long>(node.fanin.size()));
    for (netlist::NodeId driver : node.fanin) hash.Number(driver);
  }
  hash.Number(static_cast<long long>(options.seed));
  hash.Number(static_cast<long long>(options.style));
  hash.Number(options.justify_max_depth);
  hash.Number(options.justify_backtracks);
  hash.Number(options.random_rounds);
  hash.Number(options.random_length_factor);
  hash.Number(options.random_patience);
  hash.Number(options.max_frames);
  hash.Number(options.backtracks_per_fault);
  hash.Number(options.evaluations_per_fault);
  hash.Number(options.redundancy_check ? 1 : 0);
  hash.Number(static_cast<long long>(num_faults));
  return hash.value();
}

/// The run a journal replays, built record by record as Load validates
/// it: fault statuses, tests and evaluations at the replayed commit
/// frontier, the queue entering the deterministic phase, and the
/// accepted records' original lines.
struct Checkpoint::Replay {
  std::vector<FaultStatus> status;
  std::vector<InputSequence> tests;
  long evaluations = 0;
  std::vector<std::size_t> remaining;
  std::vector<char> retired;  ///< By queue position.
  std::size_t frontier = 0;
  std::vector<std::string> lines;

  /// Applies a kept random-phase test; false when it does not fit this
  /// run (the whole replay is then discarded).
  bool RandomTest(const std::vector<std::size_t>& detected,
                  const InputSequence& test, int num_inputs) {
    if (!Fits(test, num_inputs)) return false;
    for (std::size_t index : detected) {
      if (index >= status.size() || status[index] == FaultStatus::kDetected) {
        return false;
      }
      status[index] = FaultStatus::kDetected;
    }
    tests.push_back(test);
    return true;
  }

  /// Closes the random phase: the queue is every fault it left.
  bool RandomDone(std::size_t remaining_count, long random_evaluations) {
    for (std::size_t i = 0; i < status.size(); ++i) {
      if (status[i] != FaultStatus::kDetected) remaining.push_back(i);
    }
    if (random_evaluations < 0 || random_evaluations > kMaxEvaluations ||
        remaining.size() != remaining_count) {
      return false;
    }
    evaluations = random_evaluations;
    retired.assign(remaining.size(), 0);
    return true;
  }

  /// Applies the commit at the frontier; false ends the replayed
  /// prefix there.  A skip (S) must sit at a position an earlier test
  /// retired, every other commit at one no earlier test retired.
  bool Commit(std::size_t pos, char tag, long commit_evaluations,
              const std::vector<std::size_t>& cross_retired,
              const InputSequence& test, int num_inputs) {
    if (pos != frontier || pos >= remaining.size() || tag == 'U') {
      return false;  // out of order, or the interrupted run's edge
    }
    if (tag == 'S') {
      if (retired[pos] == 0) return false;
      ++frontier;
      return true;
    }
    if (retired[pos] != 0 || commit_evaluations < 0 ||
        commit_evaluations > kMaxEvaluations - evaluations) {
      return false;
    }
    const auto outcome = static_cast<FaultStatus>(kStatusChars.find(tag));
    if (outcome == FaultStatus::kDetected) {
      if (!Fits(test, num_inputs)) return false;
      std::size_t previous = pos;
      for (std::size_t later : cross_retired) {
        if (later <= previous || later >= remaining.size() ||
            retired[later] != 0) {
          return false;
        }
        previous = later;
      }
    }
    status[remaining[pos]] = outcome;
    evaluations += commit_evaluations;
    if (outcome == FaultStatus::kDetected) {
      for (std::size_t later : cross_retired) {
        retired[later] = 1;
        status[remaining[later]] = FaultStatus::kDetected;
      }
      tests.push_back(test);
    }
    ++frontier;
    return true;
  }
};

std::unique_ptr<Checkpoint> Checkpoint::Open(const std::string& path,
                                             const netlist::Circuit& circuit,
                                             const AtpgOptions& options,
                                             std::size_t num_faults,
                                             core::DiagnosticList& diags) {
  const std::uint32_t fingerprint =
      JournalFingerprint(circuit, options, num_faults);
  std::unique_ptr<Checkpoint> checkpoint(new Checkpoint(path));
  checkpoint->replay_ =
      Load(path, fingerprint, circuit.num_inputs(), num_faults, diags);
  checkpoint->Start(fingerprint, options.seed, num_faults, circuit.name(),
                    diags);
  return checkpoint;
}

Checkpoint::Checkpoint(std::string path) : path_(std::move(path)) {}

Checkpoint::~Checkpoint() {
  if (file_ != nullptr) std::fclose(file_);
}

// One pass over the file.  A syntax fault on a complete line anywhere
// rejects the whole journal, even past the replayed prefix; the
// semantic checks run only while the journal still describes this run.
std::unique_ptr<Checkpoint::Replay> Checkpoint::Load(
    const std::string& path, std::uint32_t fingerprint, int num_inputs,
    std::size_t num_faults, core::DiagnosticList& diags) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;  // absent journal: a normal first run
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  auto replay = std::make_unique<Replay>();
  replay->status.assign(num_faults, FaultStatus::kUntried);
  bool seen_header = false;
  bool same_run = false;       // fingerprint matches this run
  bool random_valid = true;    // random-phase records fit this run
  bool random_done = false;
  bool random_stopped = false;
  bool prefix_open = true;     // no commit has ended the prefix yet
  bool complete = false;
  int line_no = 0;
  std::size_t start = 0;

  auto corrupt = [&](const std::string& what) -> std::unique_ptr<Replay> {
    diags.Add(StatusCode::kCorruptData,
              "journal record " + std::to_string(line_no) + ": " + what, path,
              line_no);
    return nullptr;
  };

  while (start < data.size()) {
    const std::size_t newline = data.find('\n', start);
    if (newline == std::string::npos) {
      // A final line without its terminator is a write torn by a
      // crash; the intact prefix is still a valid journal.
      diags.AddNote(StatusCode::kCorruptData,
                    "dropped torn final record (crash during write)", path,
                    line_no + 1);
      break;
    }
    const std::string line = data.substr(start, newline - start);
    start = newline + 1;
    ++line_no;
    if (line.empty()) continue;

    const std::size_t sep = line.rfind(kRecordSeparator);
    if (sep == std::string::npos || line.size() - sep - 1 != 8) {
      return corrupt("missing CRC suffix");
    }
    const std::string body = line.substr(0, sep);
    const std::string crc_text = line.substr(sep + 1);
    std::uint32_t expected = 0;
    if (std::sscanf(crc_text.c_str(), "%8x", &expected) != 1) {
      return corrupt("unreadable CRC suffix");
    }
    if (core::Crc32(body) != expected) return corrupt("CRC mismatch");

    LineParser parser(body);
    const std::string tag = parser.Token();
    if (!seen_header && tag != "J1") {
      return corrupt("expected J1 header record first");
    }
    if (complete) return corrupt("record after end marker");

    if (tag == "J1") {
      if (seen_header) return corrupt("duplicate header record");
      const std::string fp_text = parser.Token();
      std::uint32_t fp = 0;
      if (fp_text.size() != 8 ||
          std::sscanf(fp_text.c_str(), "%8x", &fp) != 1) {
        return corrupt("unreadable fingerprint");
      }
      // Seed and fault count: the fingerprint covers them.
      parser.Unsigned();
      parser.Unsigned();
      if (parser.failed) return corrupt("malformed header fields");
      seen_header = true;
      same_run = fp == fingerprint;
    } else if (tag == "T") {
      if (random_done) {
        return corrupt("random-test record after random-done record");
      }
      std::vector<std::size_t> detected;
      InputSequence test;
      const std::size_t n = static_cast<std::size_t>(parser.Unsigned());
      for (std::size_t i = 0; i < n && !parser.failed; ++i) {
        detected.push_back(static_cast<std::size_t>(parser.Unsigned()));
      }
      const std::string sequence = parser.Token();
      if (parser.failed || n == 0 || !parser.AtEnd() ||
          !DecodeSequence(sequence, test)) {
        return corrupt("malformed random-test record");
      }
      if (same_run && random_valid) {
        random_valid = replay->RandomTest(detected, test, num_inputs);
        replay->lines.push_back(line);
      }
    } else if (tag == "R") {
      if (random_done) return corrupt("duplicate random-done record");
      // Rounds and useless streak: for a reader's eyes only.
      parser.Signed();
      parser.Signed();
      const long long stopped = parser.Signed();
      const auto remaining = static_cast<std::size_t>(parser.Unsigned());
      const auto evaluations = static_cast<long>(parser.Signed());
      if (parser.failed || !parser.AtEnd() || (stopped != 0 && stopped != 1)) {
        return corrupt("malformed random-done record");
      }
      random_done = true;
      random_stopped = stopped == 1;
      if (same_run && random_valid && !random_stopped) {
        random_valid = replay->RandomDone(remaining, evaluations);
        replay->lines.push_back(line);
      }
    } else if (tag == "C") {
      if (!random_done) {
        return corrupt("commit record before random-done record");
      }
      const auto pos = static_cast<std::size_t>(parser.Unsigned());
      const std::string status = parser.Token();
      const auto evaluations = static_cast<long>(parser.Signed());
      const auto ncross = static_cast<std::size_t>(parser.Unsigned());
      std::vector<std::size_t> cross_retired;
      for (std::size_t i = 0; i < ncross && !parser.failed; ++i) {
        cross_retired.push_back(static_cast<std::size_t>(parser.Unsigned()));
      }
      if (parser.failed || status.size() != 1 ||
          kStatusChars.find(status[0]) == std::string_view::npos) {
        return corrupt("malformed commit record");
      }
      InputSequence test;
      if (status[0] == 'D' &&
          (!DecodeSequence(parser.Token(), test) || parser.failed)) {
        return corrupt("detected commit record without a valid test sequence");
      }
      if (!parser.AtEnd()) return corrupt("trailing fields in commit record");
      if (prefix_open && same_run && random_valid && !random_stopped) {
        prefix_open = replay->Commit(pos, status[0], evaluations,
                                     cross_retired, test, num_inputs);
        if (prefix_open) replay->lines.push_back(line);
      }
    } else if (tag == "E") {
      // The four counts are a human-debugging aid; replay recomputes
      // them from the commits themselves.
      for (int i = 0; i < 4; ++i) parser.Signed();
      if (parser.failed || !parser.AtEnd()) {
        return corrupt("malformed end record");
      }
      complete = true;
    } else {
      return corrupt("unknown record tag '" + tag + "'");
    }
  }

  // Nothing but a torn line (or an empty file) counts as absent.
  if (!seen_header) return nullptr;
  if (!same_run) {
    diags.AddNote(StatusCode::kMismatch,
                  "checkpoint journal was written by a different run "
                  "configuration (circuit / seed / search options); starting "
                  "fresh",
                  path);
    return nullptr;
  }
  // A random phase cut short is rerun from scratch: correct, and
  // necessary, since its later rounds were never recorded.
  if (!random_done || random_stopped) return nullptr;
  if (!random_valid) {
    diags.AddNote(StatusCode::kCorruptData,
                  "checkpoint journal failed replay validation; starting "
                  "fresh",
                  path);
    return nullptr;
  }
  RETEST_COUNTER_ADD("atpg.checkpoint.commits_replayed", "commits", "atpg",
                     "deterministic commits restored from a checkpoint "
                     "journal instead of re-searched",
                     static_cast<long>(replay->frontier));
  return replay;
}

void Checkpoint::Start(std::uint32_t fingerprint, std::uint64_t seed,
                       std::size_t num_faults, const std::string& circuit_name,
                       core::DiagnosticList& diags) {
  const std::string tmp = path_ + ".tmp";
  file_ = RETEST_CHAOS_FIRE("atpg.journal.open_error")
              ? nullptr
              : std::fopen(tmp.c_str(), "wb");
  if (file_ == nullptr) {
    diags.Add(StatusCode::kIoError,
              "cannot open checkpoint journal for writing", tmp);
    return;
  }
  char fp[9];
  std::snprintf(fp, sizeof fp, "%08x", fingerprint);
  WriteRecord(std::string("J1 ") + fp + ' ' + std::to_string(seed) + ' ' +
              std::to_string(num_faults) + ' ' + circuit_name);
  if (replay_ != nullptr) {
    for (std::string& line : std::exchange(replay_->lines, {})) {
      WriteLine(std::move(line));
    }
  }
  std::fflush(file_);
  if (core::PublishDurably(fileno(file_), tmp, path_)) {
    RETEST_COUNTER_ADD("atpg.journal.fsync", "syncs", "atpg",
                       "journal file + parent-directory fsync pairs at "
                       "activation",
                       1);
  } else {
    // The run keeps appending to the tmp file regardless.
    diags.Add(StatusCode::kIoError,
              "cannot sync or rename checkpoint journal into place", path_);
  }
  FlushFile();
}

bool Checkpoint::Restore(AtpgResult& result,
                         std::vector<std::size_t>& remaining) {
  if (replay_ == nullptr) return false;
  result.status = std::move(replay_->status);
  result.tests = std::move(replay_->tests);
  result.evaluations = replay_->evaluations;
  result.resumed = true;
  remaining = std::move(replay_->remaining);
  return true;
}

std::size_t Checkpoint::frontier() const {
  return replay_ != nullptr ? replay_->frontier : 0;
}

bool Checkpoint::retired(std::size_t pos) const {
  return replay_ != nullptr && pos < replay_->retired.size() &&
         replay_->retired[pos] != 0;
}

void Checkpoint::WriteRecord(const std::string& body) {
  char crc[10];
  std::snprintf(crc, sizeof crc, "%c%08x", kRecordSeparator,
                core::Crc32(body));
  WriteLine(body + crc);
}

void Checkpoint::WriteLine(std::string line) {
  if (file_ == nullptr || torn_) return;
  line += '\n';
  long keep = 0;
  if (RETEST_CHAOS_ARG("atpg.journal.torn_write",
                       static_cast<long>(line.size() / 2), &keep)) {
    // Chaos: simulate a crash mid-write.  Emit a prefix of this record
    // and go silent -- the in-memory run continues, but the file ends
    // in exactly the torn final line Load must drop on resume.
    torn_ = true;
    const std::size_t bytes = std::min(
        line.size(), static_cast<std::size_t>(std::max(0L, keep)));
    std::fwrite(line.data(), 1, bytes, file_);
    std::fflush(file_);
    return;
  }
  std::fwrite(line.data(), 1, line.size(), file_);
}

void Checkpoint::FlushFile() {
  RETEST_TRACE_SPAN(flush_span, "atpg.journal.flush");
  std::fflush(file_);
}

void Checkpoint::RecordRandomTest(const std::vector<std::size_t>& detected,
                                  const InputSequence& test) {
  if (file_ == nullptr) return;
  std::string body = "T " + std::to_string(detected.size());
  for (std::size_t index : detected) {
    body += ' ';
    body += std::to_string(index);
  }
  body += ' ';
  body += EncodeSequence(test);
  WriteRecord(body);
}

void Checkpoint::RecordRandomDone(int rounds, int useless, bool stopped,
                                  std::size_t remaining, long evaluations) {
  if (file_ == nullptr) return;
  WriteRecord("R " + std::to_string(rounds) + ' ' + std::to_string(useless) +
              ' ' + std::to_string(stopped ? 1 : 0) + ' ' +
              std::to_string(remaining) + ' ' + std::to_string(evaluations));
  FlushFile();
}

void Checkpoint::RecordCommit(std::size_t pos, FaultStatus status,
                              long evaluations,
                              const std::vector<std::size_t>& cross_retired,
                              const InputSequence& test) {
  if (file_ == nullptr) return;
  RETEST_TRACE_SPAN(write_span, "atpg.journal.write");
  std::string body = "C " + std::to_string(pos) + ' ' +
                     kStatusChars[static_cast<std::size_t>(status)] +
                     ' ' + std::to_string(evaluations) + ' ' +
                     std::to_string(cross_retired.size());
  for (std::size_t later : cross_retired) {
    body += ' ';
    body += std::to_string(later);
  }
  if (status == FaultStatus::kDetected) {
    body += ' ';
    body += EncodeSequence(test);
  }
  WriteRecord(body);
}

void Checkpoint::RecordSkip(std::size_t pos) {
  if (file_ == nullptr) return;
  RETEST_TRACE_SPAN(write_span, "atpg.journal.write");
  WriteRecord("C " + std::to_string(pos) + " S 0 0");
}

void Checkpoint::Flush() {
  if (file_ == nullptr) return;
  FlushFile();
  RETEST_COUNTER_ADD("atpg.checkpoint.flushes", "flushes", "atpg",
                     "checkpoint journal flushes at the commit "
                     "frontier (one per drain batch)",
                     1);
}

void Checkpoint::RecordEnd(const AtpgResult& result) {
  if (file_ == nullptr) return;
  WriteRecord("E " + std::to_string(result.Count(FaultStatus::kDetected)) +
              ' ' + std::to_string(result.Count(FaultStatus::kRedundant)) +
              ' ' + std::to_string(result.Count(FaultStatus::kAborted)) + ' ' +
              std::to_string(result.Count(FaultStatus::kUntried)));
  FlushFile();
}

}  // namespace retest::atpg
