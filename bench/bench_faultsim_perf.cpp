// Fault-simulation wall-clock harness.
//
// Times PROOFS on the Table III circuits (original and retimed
// stand-in machines) at one thread and at the default thread count,
// plus the scalar serial reference on a capped fault subset.  Both
// thread counts run the whole collapsed fault list, so they take the
// 512-lane path; one more run splits the list into 64-fault chunks,
// the 64-lane path, so both lane widths enter the equivalence
// verdict.  Emits BENCH_faultsim.json into the current
// directory: per row the wall ms of each configuration first, then the
// work counters, with the host's CPU count and ISA.  Every engine must
// agree on every detection before anything is reported.
//
// Modes:
//   (default)           4 circuit variants, 256-vector sequences
//   REPRO_FULL=1        all 16 variants
//   --smoke             1 variant, short sequences (ctest budget);
//                       exit code is the equivalence verdict
// REPRO_THREADS=N sets the default thread count.
//
// Robustness (docs/ROBUSTNESS.md): a failure mid-sweep still flushes
// the finished rows to BENCH_faultsim.json with an "error" field.
// Exit codes: 0 ok, 1 engine mismatch, 2 fatal before any row, 3
// partial results, 4 JSON unwritable.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/thread_pool.h"
#include "experiments.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"
#include "faultsim/serial.h"
#include "sim/simd.h"

namespace {

using namespace retest;
using bench::HostIsa;
using bench::RandomSequence;
using bench::TimeMs;

/// One timed configuration: best-of-reps wall ms plus its work.
struct EngineRun {
  double ms = 0;
  long frames = 0;
  long gate_evals = 0;
  std::vector<faultsim::Detection> detections;
};

EngineRun RunProofs(const netlist::Circuit& circuit,
                    std::span<const fault::Fault> faults,
                    const sim::InputSequence& sequence,
                    const faultsim::ProofsOptions& options, int reps) {
  EngineRun run;
  faultsim::ProofsResult result;
  run.ms = TimeMs(
      [&] { result = faultsim::SimulateProofs(circuit, faults, sequence,
                                              options); },
      reps);
  run.frames = result.frames_evaluated;
  run.gate_evals = result.gate_evals;
  run.detections = std::move(result.detections);
  return run;
}

/// `options` over consecutive 64-fault chunks (each on the 64-lane
/// path), stitched back into one run.
EngineRun RunProofsIn64Chunks(const netlist::Circuit& circuit,
                              std::span<const fault::Fault> faults,
                              const sim::InputSequence& sequence,
                              const faultsim::ProofsOptions& options,
                              int reps) {
  EngineRun run;
  run.ms = TimeMs(
      [&] {
        run = EngineRun{};
        for (size_t begin = 0; begin < faults.size(); begin += 64) {
          const size_t size = std::min<size_t>(64, faults.size() - begin);
          faultsim::ProofsResult chunk = faultsim::SimulateProofs(
              circuit, faults.subspan(begin, size), sequence, options);
          run.frames += chunk.frames_evaluated;
          run.gate_evals += chunk.gate_evals;
          run.detections.insert(run.detections.end(),
                                chunk.detections.begin(),
                                chunk.detections.end());
        }
      },
      reps);
  return run;
}

int CountDetected(const std::vector<faultsim::Detection>& detections) {
  return static_cast<int>(
      std::count_if(detections.begin(), detections.end(),
                    [](const faultsim::Detection& d) { return d.detected; }));
}

// The configurations, in JSON and table order; the last one runs in
// 64-fault chunks.
constexpr const char* kConfigs[] = {"cone_1t", "cone_nt",
                                    "cone_1t_64chunks"};
constexpr int kNumConfigs = 3;
constexpr int kChunked = kNumConfigs - 1;

struct Row {
  std::string name;
  const char* role;  // "original" | "retimed"
  int num_nodes = 0;
  int num_faults = 0;
  int sequence_length = 0;
  int serial_faults = 0;  // serial baseline is timed on a capped subset
  double serial_ms = 0;
  EngineRun runs[kNumConfigs];
  int detected = 0;
  bool equivalent = true;
};

bool EmitJson(const std::vector<Row>& rows, int default_threads, bool smoke,
              const std::string& error) {
  const auto fields = [&](std::FILE* f) {
    std::fprintf(f, "  \"default_threads\": %d,\n", default_threads);
    std::fprintf(f,
                 "  \"lanes\": {\"up_to_64_faults\": \"%s\", "
                 "\"more_than_64_faults\": \"%s\"},\n",
                 sim::DescribeLaneWords(1).c_str(),
                 sim::DescribeLaneWords(sim::kWideLaneWords).c_str());
    std::fprintf(f, "  \"rows\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"role\": \"%s\",\n",
                   r.name.c_str(), r.role);
      std::fprintf(f, "     \"wall_ms\": {");
      for (int c = 0; c < kNumConfigs; ++c) {
        std::fprintf(f, "\"%s\": %.3f, ", kConfigs[c], r.runs[c].ms);
      }
      std::fprintf(f, "\"serial_subset\": %.3f},\n", r.serial_ms);
      std::fprintf(f,
                   "     \"nodes\": %d, \"faults\": %d, \"frames\": %d, "
                   "\"serial_faults\": %d, \"detected\": %d, "
                   "\"equivalent\": %s,\n",
                   r.num_nodes, r.num_faults, r.sequence_length,
                   r.serial_faults, r.detected,
                   r.equivalent ? "true" : "false");
      std::fprintf(f, "     \"work\": {");
      for (int c = 0; c < kNumConfigs; ++c) {
        std::fprintf(f,
                     "\"%s\": {\"frames_evaluated\": %ld, "
                     "\"gate_evals\": %ld}%s",
                     kConfigs[c], r.runs[c].frames, r.runs[c].gate_evals,
                     c + 1 < kNumConfigs ? ", " : "");
      }
      std::fprintf(f, "}}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  };
  return bench::WriteBenchJson("BENCH_faultsim.json", smoke, error, fields);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int default_threads = core::ResolveThreadCount(0);
  const auto& variants = bench::Table2Variants();
  const size_t num_variants =
      smoke ? 1 : (bench::FullMode() ? variants.size() : 4);
  const int sequence_length = smoke ? 48 : 256;
  const int reps = smoke ? 1 : 3;
  const size_t serial_cap = smoke ? 64 : 256;

  std::printf("fault-simulation wall ms (default threads=%d, %s%s)\n",
              default_threads, HostIsa().c_str(), smoke ? ", --smoke" : "");
  std::printf("%-14s %-9s %6s |", "circuit", "role", "faults");
  for (const char* config : kConfigs) std::printf(" %16s", config);
  std::printf("\n");

  faultsim::ProofsOptions options[kNumConfigs];
  options[0].num_threads = 1;
  options[1].num_threads = 0;  // default / REPRO_THREADS
  options[kChunked] = options[0];

  std::vector<Row> rows;
  bool all_equivalent = true;
  std::string error;
  for (size_t v = 0; v < num_variants && error.empty(); ++v) {
    try {
      const bench::Prepared prepared = bench::PrepareVariant(variants[v]);
      for (const auto* role : {"original", "retimed"}) {
        const netlist::Circuit& circuit = std::strcmp(role, "original") == 0
                                              ? prepared.original
                                              : prepared.retimed;
        const auto collapsed = fault::Collapse(circuit);
        const auto& faults = collapsed.representatives;
        const sim::InputSequence sequence =
            RandomSequence(circuit, sequence_length, 42 + v);

        Row row;
        row.name = circuit.name();
        row.role = role;
        row.num_nodes = circuit.size();
        row.num_faults = static_cast<int>(faults.size());
        row.sequence_length = static_cast<int>(sequence.size());

        // Serial reference on a capped subset (it is orders of magnitude
        // slower; the cap keeps the harness runnable while still timing
        // real work).
        row.serial_faults =
            static_cast<int>(std::min(serial_cap, faults.size()));
        const std::span<const fault::Fault> serial_span(
            faults.data(), static_cast<size_t>(row.serial_faults));
        std::vector<faultsim::Detection> serial_detections;
        row.serial_ms = TimeMs(
            [&] {
              serial_detections =
                  faultsim::SimulateSerial(circuit, serial_span, sequence);
            },
            1);

        for (int c = 0; c < kNumConfigs; ++c) {
          row.runs[c] = c == kChunked
                            ? RunProofsIn64Chunks(circuit, faults, sequence,
                                                  options[c], reps)
                            : RunProofs(circuit, faults, sequence, options[c],
                                        reps);
        }

        // Engine equivalence: both thread counts and both lane widths
        // agree everywhere, and the serial reference agrees on its subset.
        const auto& reference = row.runs[0].detections;
        for (const EngineRun& run : row.runs) {
          if (run.detections != reference) row.equivalent = false;
        }
        for (size_t i = 0; i < serial_detections.size(); ++i) {
          if (!(serial_detections[i] == reference[i])) row.equivalent = false;
        }
        row.detected = CountDetected(reference);
        all_equivalent = all_equivalent && row.equivalent;

        std::printf("%-14s %-9s %6d |", row.name.c_str(), role,
                    row.num_faults);
        for (const EngineRun& run : row.runs) std::printf(" %16.2f", run.ms);
        std::printf("%s\n", row.equivalent ? "" : "  MISMATCH");
        std::fflush(stdout);
        rows.push_back(std::move(row));
      }
    } catch (const std::exception& e) {
      error = std::string(variants[v].fsm) + ": " + e.what();
      std::fprintf(stderr, "bench_faultsim_perf: %s\n", error.c_str());
    }
  }

  const bool wrote = EmitJson(rows, default_threads, smoke, error);
  // As in bench_atpg_perf, an incomplete or unwritten report outranks
  // the equivalence verdict (docs/ROBUSTNESS.md).
  const int code = bench::ExitCode(wrote, !rows.empty(), error);
  if (code != bench::kExitOk) return code;
  if (!all_equivalent) {
    std::fprintf(stderr, "ENGINE MISMATCH: detections disagree\n");
    return bench::kExitMismatch;
  }
  return bench::kExitOk;
}
