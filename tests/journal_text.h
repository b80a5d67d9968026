// Test-side reader of a checkpoint journal's text (atpg/journal).  It
// checks every line's CRC and reports the facts the checkpoint and
// chaos tests assert about a journal file, independently of the
// engine's own loader.
#pragma once

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/crc32.h"

namespace retest::testing {

struct JournalText {
  struct Commit {
    std::size_t pos = 0;
  };
  std::size_t num_faults = 0;       ///< From the J1 header.
  std::size_t remaining_count = 0;  ///< Queue size from the R record.
  std::vector<Commit> commits;
  bool complete = false;  ///< The last record is the E record.
};

/// Reads the journal at `path`; nullopt when it is absent, lacks a
/// leading J1 header, or holds a line (a torn tail included) whose CRC
/// does not match its body.
inline std::optional<JournalText> ReadJournalText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  JournalText out;
  bool seen_header = false;
  for (std::string line; std::getline(in, line);) {
    const std::size_t sep = line.rfind('|');
    if (sep == std::string::npos) return std::nullopt;
    const std::string body = line.substr(0, sep);
    char crc[9];
    std::snprintf(crc, sizeof crc, "%08x", core::Crc32(body));
    if (line.substr(sep + 1) != crc) return std::nullopt;
    std::istringstream fields(body);
    std::string tag;
    fields >> tag;
    if (!seen_header && tag != "J1") return std::nullopt;
    out.complete = tag == "E";
    if (tag == "J1") {
      std::string fingerprint;
      unsigned long long seed = 0;
      fields >> fingerprint >> seed >> out.num_faults;
      seen_header = true;
    } else if (tag == "R") {
      long long rounds = 0, useless = 0, stopped = 0;
      fields >> rounds >> useless >> stopped >> out.remaining_count;
    } else if (tag == "C") {
      JournalText::Commit commit;
      fields >> commit.pos;
      out.commits.push_back(commit);
    }
  }
  if (!seen_header) return std::nullopt;
  return out;
}

}  // namespace retest::testing
