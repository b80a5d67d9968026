#include "atpg/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/chaos.h"
#include "core/crc32.h"
#include "core/metrics.h"
#include "core/trace.h"
#include "sim/logic3.h"

namespace retest::atpg {
namespace {

using core::StatusCode;

constexpr char kRecordSeparator = '|';

/// Syncs the directory containing `path` so a just-completed rename
/// inside it survives a power cut.  Best-effort: some filesystems
/// refuse directory fsync; the rename is still process-crash safe.
void FsyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  if (dir.empty()) dir.assign(1, '/');  // Not `= "/"`: GCC 12 -Wrestrict.
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

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
  /// Everything after the current position, without the leading space.
  std::string Rest() {
    std::string rest;
    std::getline(in, rest);
    if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    return rest;
  }
  bool AtEnd() {
    std::string extra;
    return !(in >> extra);
  }
};

bool ValidCommitStatus(char c) {
  return c == 'D' || c == 'R' || c == 'A' || c == 'U' || c == 'S';
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

std::optional<JournalContents> LoadJournal(const std::string& path,
                                           core::DiagnosticList& diags) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // absent journal: a normal first run
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string data = buffer.str();

  JournalContents out;
  bool seen_header = false;
  int line_no = 0;
  std::size_t start = 0;

  auto corrupt = [&](const std::string& what) {
    diags.Add(StatusCode::kCorruptData,
              "journal record " + std::to_string(line_no) + ": " + what, path,
              line_no);
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
      corrupt("missing CRC suffix");
      return std::nullopt;
    }
    const std::string body = line.substr(0, sep);
    const std::string crc_text = line.substr(sep + 1);
    std::uint32_t expected = 0;
    if (std::sscanf(crc_text.c_str(), "%8x", &expected) != 1) {
      corrupt("unreadable CRC suffix");
      return std::nullopt;
    }
    if (core::Crc32(body) != expected) {
      corrupt("CRC mismatch");
      return std::nullopt;
    }

    LineParser parser(body);
    const std::string tag = parser.Token();
    if (!seen_header && tag != "J1") {
      corrupt("expected J1 header record first");
      return std::nullopt;
    }
    if (out.complete) {
      corrupt("record after end marker");
      return std::nullopt;
    }

    if (tag == "J1") {
      if (seen_header) {
        corrupt("duplicate header record");
        return std::nullopt;
      }
      const std::string fp_text = parser.Token();
      std::uint32_t fp = 0;
      if (fp_text.size() != 8 ||
          std::sscanf(fp_text.c_str(), "%8x", &fp) != 1) {
        corrupt("unreadable fingerprint");
        return std::nullopt;
      }
      out.fingerprint = fp;
      out.seed = parser.Unsigned();
      out.num_faults = static_cast<std::size_t>(parser.Unsigned());
      out.circuit_name = parser.Rest();
      if (parser.failed) {
        corrupt("malformed header fields");
        return std::nullopt;
      }
      seen_header = true;
    } else if (tag == "T") {
      if (out.random_done) {
        corrupt("random-test record after random-done record");
        return std::nullopt;
      }
      JournalRandomTest record;
      const std::size_t n = static_cast<std::size_t>(parser.Unsigned());
      for (std::size_t i = 0; i < n && !parser.failed; ++i) {
        record.detected.push_back(static_cast<std::size_t>(parser.Unsigned()));
      }
      const std::string sequence = parser.Token();
      if (parser.failed || n == 0 || !parser.AtEnd() ||
          !DecodeSequence(sequence, record.test)) {
        corrupt("malformed random-test record");
        return std::nullopt;
      }
      out.random_tests.push_back(std::move(record));
    } else if (tag == "R") {
      if (out.random_done) {
        corrupt("duplicate random-done record");
        return std::nullopt;
      }
      out.random_rounds = static_cast<int>(parser.Signed());
      out.random_useless = static_cast<int>(parser.Signed());
      const long long stopped = parser.Signed();
      out.remaining_count = static_cast<std::size_t>(parser.Unsigned());
      out.random_evaluations = static_cast<long>(parser.Signed());
      if (parser.failed || !parser.AtEnd() || (stopped != 0 && stopped != 1)) {
        corrupt("malformed random-done record");
        return std::nullopt;
      }
      out.random_stopped = stopped == 1;
      out.random_done = true;
    } else if (tag == "C") {
      if (!out.random_done) {
        corrupt("commit record before random-done record");
        return std::nullopt;
      }
      JournalCommit record;
      record.pos = static_cast<std::size_t>(parser.Unsigned());
      const std::string status = parser.Token();
      record.evaluations = static_cast<long>(parser.Signed());
      const std::size_t ncross = static_cast<std::size_t>(parser.Unsigned());
      for (std::size_t i = 0; i < ncross && !parser.failed; ++i) {
        record.cross_retired.push_back(
            static_cast<std::size_t>(parser.Unsigned()));
      }
      if (parser.failed || status.size() != 1 ||
          !ValidCommitStatus(status[0])) {
        corrupt("malformed commit record");
        return std::nullopt;
      }
      record.status = status[0];
      if (record.status == 'D') {
        const std::string sequence = parser.Token();
        if (parser.failed || !DecodeSequence(sequence, record.test)) {
          corrupt("detected commit record without a valid test sequence");
          return std::nullopt;
        }
      }
      if (!parser.AtEnd()) {
        corrupt("trailing fields in commit record");
        return std::nullopt;
      }
      out.commits.push_back(std::move(record));
    } else if (tag == "E") {
      // The four counts are a human-debugging aid; replay recomputes
      // them from the commits themselves.
      for (int i = 0; i < 4; ++i) parser.Signed();
      if (parser.failed || !parser.AtEnd()) {
        corrupt("malformed end record");
        return std::nullopt;
      }
      out.complete = true;
    } else {
      corrupt("unknown record tag '" + tag + "'");
      return std::nullopt;
    }
  }

  if (!seen_header) {
    // Nothing but a torn line (or an empty file): treat as absent.
    return std::nullopt;
  }
  return out;
}

std::unique_ptr<JournalWriter> JournalWriter::Open(
    const std::string& path, core::DiagnosticList& diags) {
  const std::string tmp = path + ".tmp";
  std::FILE* file =
      RETEST_CHAOS_FIRE("atpg.journal.open_error")
          ? nullptr
          : std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    diags.Add(StatusCode::kIoError,
              "cannot open checkpoint journal for writing", tmp);
    return nullptr;
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(file, path));
}

JournalWriter::JournalWriter(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JournalWriter::WriteLine(const std::string& body) {
  if (torn_) return;
  char crc[10];
  std::snprintf(crc, sizeof crc, "%c%08x", kRecordSeparator,
                core::Crc32(body));
  std::string line = body;
  line += crc;
  line += '\n';
  long keep = 0;
  if (RETEST_CHAOS_ARG("atpg.journal.torn_write",
                       static_cast<long>(line.size() / 2), &keep)) {
    // Chaos: simulate a crash mid-write.  Emit a prefix of this record
    // and go silent — the in-memory run continues, but the file ends
    // in exactly the torn final line LoadJournal must drop on resume.
    torn_ = true;
    const std::size_t bytes = std::min(
        line.size(), static_cast<std::size_t>(std::max(0L, keep)));
    std::fwrite(line.data(), 1, bytes, file_);
    std::fflush(file_);
    return;
  }
  std::fwrite(line.data(), 1, line.size(), file_);
}

void JournalWriter::WriteHeader(std::uint32_t fingerprint, std::uint64_t seed,
                                std::size_t num_faults,
                                const std::string& circuit_name) {
  char fp[9];
  std::snprintf(fp, sizeof fp, "%08x", fingerprint);
  WriteLine(std::string("J1 ") + fp + ' ' + std::to_string(seed) + ' ' +
            std::to_string(num_faults) + ' ' + circuit_name);
}

void JournalWriter::WriteRandomTest(const JournalRandomTest& record) {
  std::string body = "T " + std::to_string(record.detected.size());
  for (std::size_t index : record.detected) {
    body += ' ';
    body += std::to_string(index);
  }
  body += ' ';
  body += EncodeSequence(record.test);
  WriteLine(body);
}

void JournalWriter::WriteRandomDone(int rounds, int useless, bool stopped,
                                    std::size_t remaining, long evaluations) {
  WriteLine("R " + std::to_string(rounds) + ' ' + std::to_string(useless) +
            ' ' + std::to_string(stopped ? 1 : 0) + ' ' +
            std::to_string(remaining) + ' ' + std::to_string(evaluations));
}

void JournalWriter::WriteCommit(const JournalCommit& record) {
  RETEST_TRACE_SPAN(write_span, "atpg.journal.write");
  std::string body = "C " + std::to_string(record.pos) + ' ' + record.status +
                     ' ' + std::to_string(record.evaluations) + ' ' +
                     std::to_string(record.cross_retired.size());
  for (std::size_t pos : record.cross_retired) {
    body += ' ';
    body += std::to_string(pos);
  }
  if (record.status == 'D') {
    body += ' ';
    body += EncodeSequence(record.test);
  }
  WriteLine(body);
}

void JournalWriter::WriteEnd(int detected, int redundant, int aborted,
                             int untried) {
  WriteLine("E " + std::to_string(detected) + ' ' + std::to_string(redundant) +
            ' ' + std::to_string(aborted) + ' ' + std::to_string(untried));
}

bool JournalWriter::Activate(core::DiagnosticList& diags) {
  if (activated_) return true;
  // Durability order: records -> file fsync -> rename -> directory
  // fsync.  Without the first fsync the rename can publish a name
  // whose bytes are still in the page cache; without the second the
  // rename itself can vanish in a power cut (docs/ROBUSTNESS.md).
  std::fflush(file_);
  ::fsync(fileno(file_));
  if (std::rename((path_ + ".tmp").c_str(), path_.c_str()) != 0) {
    diags.Add(StatusCode::kIoError,
              "cannot rename checkpoint journal into place", path_);
    return false;
  }
  FsyncParentDir(path_);
  RETEST_COUNTER_ADD("atpg.journal.fsync", "syncs", "atpg",
                     "journal file + parent-directory fsync pairs at "
                     "activation",
                     1);
  activated_ = true;
  return true;
}

void JournalWriter::Flush() {
  RETEST_TRACE_SPAN(flush_span, "atpg.journal.flush");
  std::fflush(file_);
}

}  // namespace retest::atpg
