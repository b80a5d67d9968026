// Fuzz target for the ATPG checkpoint journal's front door
// (atpg/journal, docs/ROBUSTNESS.md).
//
// The input bytes become the checkpoint journal of a tiny fixed
// circuit, and RunAtpg runs twice with that checkpoint_path: the first
// run loads and validates the bytes, replays whatever prefix they
// hold, and rewrites the journal as it goes; the second run replays
// the first run's rewrite.  The oracle is the checkpoint's robustness
// contract, not any particular output:
//
//   1. neither run crashes, traps a sanitizer, throws, or emits a
//      StatusCode::kInternal diagnostic (load and replay are total);
//   2. the second run reports resumed (a run's own journal replays);
//   3. the second run's statuses, tests and evaluations equal the
//      first run's (a run's own rewrite replays to that run's result,
//      whatever prefix the first run accepted).
//
// Violations call __builtin_trap() so both libFuzzer and the replay
// driver report them as crashes.  Inputs are capped at 64 KiB.  The
// corpus_journal/ seeds are journals this target's circuit and options
// write: a complete run, one cut after half of its commits (a kill),
// and one whose last record is torn mid-line.  Build the libFuzzer
// binary with -DREPRO_FUZZ=ON (requires Clang); fuzz_journal_replay
// replays corpus_journal/ under any compiler and backs the
// fuzz_journal_corpus_replay ctest.
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "atpg/engine.h"
#include "core/status.h"
#include "netlist/bench_io.h"

namespace {

constexpr std::size_t kMaxInputBytes = 64 * 1024;

// Two inputs, three DFFs: small enough for two runs per input, big
// enough for random-phase tests, cross-retiring commits and skips.
constexpr const char* kCircuit = R"(# fuzz_journal circuit
INPUT(a)
INPUT(b)
OUTPUT(z)
q0 = DFF(d0)
q1 = DFF(d1)
q2 = DFF(d2)
g0 = AND(a, q0)
g1 = OR(b, q1)
g2 = XOR(g0, q2)
d0 = NAND(g1, a)
d1 = NOR(g2, b)
d2 = AND(q1, g0)
z = XOR(g2, d1)
)";

const retest::netlist::Circuit& FuzzCircuit() {
  static const retest::netlist::Circuit circuit =
      retest::netlist::ReadBenchString(kCircuit, "fuzz_journal");
  return circuit;
}

retest::atpg::AtpgOptions FuzzOptions(const std::string& journal) {
  retest::atpg::AtpgOptions options;
  options.seed = 3;
  options.random_rounds = 1;
  options.random_length_factor = 1;
  options.max_frames = 4;
  options.num_threads = 1;
  options.time_budget_ms = 600'000;
  options.checkpoint_path = journal;
  return options;
}

/// The journal path, in a directory of this process's own that is
/// removed when the process exits.
const std::string& JournalPath() {
  static const struct Dir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("retest_fuzz_journal_" + std::to_string(::getpid()));
    std::string journal = (path / "run.journal").string();
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } dir;
  return dir.journal;
}

retest::atpg::AtpgResult Run() {
  retest::atpg::AtpgResult result;
  try {
    result = retest::atpg::RunAtpg(FuzzCircuit(), FuzzOptions(JournalPath()));
  } catch (const std::exception&) {
    __builtin_trap();  // Oracle 1: load and replay never throw.
  }
  if (result.diagnostics.Contains(retest::core::StatusCode::kInternal)) {
    __builtin_trap();
  }
  return result;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > kMaxInputBytes) return 0;
  {
    std::ofstream out(JournalPath(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  const retest::atpg::AtpgResult first = Run();
  const retest::atpg::AtpgResult second = Run();
  if (!second.resumed) __builtin_trap();  // Oracle 2.
  if (second.status != first.status || second.tests != first.tests ||
      second.evaluations != first.evaluations) {
    __builtin_trap();  // Oracle 3.
  }
  return 0;
}
