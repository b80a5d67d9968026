// Measures what the structural sweep (src/analyze/sweep.h) buys the
// fault-simulation engine on the Table III circuit pairs: gate-count
// reduction after strash + constant folding + dead-logic removal,
// analysis cost, and the swept-vs-unswept PROOFS wall-clock speedup —
// while re-proving on every row that acting on the sweep changes no
// detection bit and that the original/retimed pair still certifies.
//
// Default covers eight Table III rows spanning all six FSMs; REPRO_FULL=1
// runs all sixteen variants; --smoke runs two rows with one rep.
//
// Emits BENCH_sweep.json (one row per circuit pair plus the cumulative
// engine metrics snapshot; see docs/METRICS.md) into the current
// directory.
//
// Robustness (docs/ROBUSTNESS.md): a failure on one pair flushes the
// finished rows with an "error" field; exit codes are 0 ok,
// 1 determinism mismatch (swept detections differ from unswept),
// 2 fatal-before-rows, 3 partial, 4 output unwritable.
#include <cstdio>
#include <cstring>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/certify.h"
#include "analyze/sweep.h"
#include "core/metrics.h"
#include "experiments.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"
#include "netlist/circuit.h"
#include "sim/simulator.h"

namespace {

using namespace retest;
using bench::RandomSequence;
using bench::TimeMs;

/// Sweep + faultsim measurements for one side (original or retimed).
struct SideStats {
  int nodes = 0, gates = 0;
  int swept_nodes = 0, swept_gates = 0;
  double reduction_pct = 0;  ///< Gate-count reduction from the sweep.
  double sweep_ms = 0;       ///< AnalyzeSweep wall time.
  int classes = 0, merged = 0, constants = 0, dead = 0;
  int faults = 0;
  int static_resolved = 0;  ///< Faults retired without simulation.
  double faultsim_off_ms = 0, faultsim_on_ms = 0;
  double speedup = 0;  ///< off/on; >1 means the sweep paid off.
  bool verified = false;    ///< VerifySweep simulation cross-check.
  bool equivalent = false;  ///< kOn detections == kOff detections.
};

struct Row {
  std::string name;
  SideStats original, retimed;
  bool certified = false;  ///< CertifyRetiming on the swept-checked pair.
};

SideStats MeasureSide(const netlist::Circuit& circuit, int sequence_length,
                      std::uint64_t seed, int reps) {
  SideStats side;
  side.nodes = circuit.size();
  side.gates = circuit.num_gates();

  // Sweep analysis + reduction, with the simulation cross-check.
  const analyze::SweptNetlist swept = analyze::BuildSweptNetlist(circuit);
  side.sweep_ms = swept.report.analyze_ms;
  side.swept_nodes = swept.circuit.size();
  side.swept_gates = swept.circuit.num_gates();
  side.reduction_pct =
      side.gates > 0
          ? 100.0 * (side.gates - side.swept_gates) / side.gates
          : 0;
  side.classes = swept.report.num_classes;
  side.merged = swept.report.merged_gates;
  side.constants = swept.report.constant_gates;
  side.dead = swept.report.dead_nodes;
  side.verified = analyze::VerifySweep(circuit, swept).ok;

  // Swept vs unswept PROOFS on the collapsed fault set, single thread
  // so the comparison measures the sweep and not the scheduler.
  const fault::CollapsedFaults faults = fault::Collapse(circuit);
  side.faults = static_cast<int>(faults.representatives.size());
  const fault::SweepResolution resolution = fault::ResolveFaultsWithSweep(
      circuit, swept.report, faults.representatives);
  side.static_resolved = resolution.dead_site + resolution.const_redundant;

  const sim::InputSequence sequence =
      RandomSequence(circuit, sequence_length, seed);
  faultsim::ProofsOptions off;
  off.num_threads = 1;
  off.sweep = analyze::SweepMode::kOff;
  faultsim::ProofsOptions on = off;
  on.sweep = analyze::SweepMode::kOn;

  faultsim::ProofsResult result_off, result_on;
  side.faultsim_off_ms = TimeMs(
      [&] {
        result_off = faultsim::SimulateProofs(circuit, faults.representatives,
                                              sequence, off);
      },
      reps);
  side.faultsim_on_ms = TimeMs(
      [&] {
        result_on = faultsim::SimulateProofs(circuit, faults.representatives,
                                             sequence, on);
      },
      reps);
  side.speedup = side.faultsim_on_ms > 0
                     ? side.faultsim_off_ms / side.faultsim_on_ms
                     : 0;

  side.equivalent =
      result_off.detections.size() == result_on.detections.size();
  if (side.equivalent) {
    for (size_t i = 0; i < result_off.detections.size(); ++i) {
      if (!(result_off.detections[i] == result_on.detections[i])) {
        side.equivalent = false;
        break;
      }
    }
  }
  return side;
}

Row MeasurePair(const bench::Variant& variant, int sequence_length, int reps) {
  const bench::Prepared prepared = bench::PrepareVariant(variant);
  Row row;
  row.name = prepared.original.name();
  row.original = MeasureSide(prepared.original, sequence_length, 42, reps);
  row.retimed = MeasureSide(prepared.retimed, sequence_length, 42, reps);
  row.certified =
      analyze::CertifyRetiming(prepared.original, prepared.retimed).certified;
  return row;
}

bool EmitJson(const std::vector<Row>& rows, const std::string& error,
              bool smoke) {
  std::FILE* f = std::fopen("BENCH_sweep.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_sweep.json\n");
    return false;
  }
  std::fprintf(f, "{\n  \"mode\": \"%s\",\n",
               smoke ? "smoke" : (bench::FullMode() ? "full" : "scaled"));
  if (!error.empty()) {
    std::fprintf(f, "  \"error\": \"%s\",\n",
                 bench::JsonEscape(error).c_str());
  }
  std::fprintf(f, "  \"rows\": [\n");
  auto side = [&](const char* key, const SideStats& s, const char* tail) {
    std::fprintf(
        f,
        "     \"%s\": {\"nodes\": %d, \"gates\": %d, \"swept_nodes\": %d, "
        "\"swept_gates\": %d, \"reduction_pct\": %.2f, \"sweep_ms\": %.3f,\n"
        "      \"classes\": %d, \"merged\": %d, \"constants\": %d, "
        "\"dead\": %d, \"faults\": %d, \"static_resolved\": %d,\n"
        "      \"faultsim_off_ms\": %.3f, \"faultsim_on_ms\": %.3f, "
        "\"speedup\": %.2f, \"verified\": %s, \"equivalent\": %s}%s\n",
        key, s.nodes, s.gates, s.swept_nodes, s.swept_gates, s.reduction_pct,
        s.sweep_ms, s.classes, s.merged, s.constants, s.dead, s.faults,
        s.static_resolved, s.faultsim_off_ms, s.faultsim_on_ms, s.speedup,
        s.verified ? "true" : "false", s.equivalent ? "true" : "false", tail);
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f, "    {\"name\": \"%s\",\n",
                 bench::JsonEscape(r.name).c_str());
    side("original", r.original, ",");
    side("retimed", r.retimed, ",");
    std::fprintf(f, "     \"certified\": %s}%s\n",
                 r.certified ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n",
               core::metrics::ToJson(2).c_str());
  return std::fclose(f) == 0;
}

void PrintRow(const Row& row) {
  std::printf("%-12s | %5d %5d %5.1f%% %7.2f | %5d %5d %5.1f%% %7.2f | %s %s\n",
              row.name.c_str(), row.original.gates, row.original.swept_gates,
              row.original.reduction_pct, row.original.speedup,
              row.retimed.gates, row.retimed.swept_gates,
              row.retimed.reduction_pct, row.retimed.speedup,
              row.certified ? "cert" : "REFUSED",
              row.original.equivalent && row.retimed.equivalent ? "eq"
                                                                : "MISMATCH");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // Eight Table III rows by default, spanning all six FSMs; REPRO_FULL
  // widens to the whole sixteen-variant table, --smoke narrows to two.
  const auto& variants = bench::Table2Variants();
  std::vector<size_t> picks;
  if (smoke) {
    picks = {0, 1};
  } else if (bench::FullMode()) {
    for (size_t i = 0; i < variants.size(); ++i) picks.push_back(i);
  } else {
    picks = {0, 1, 2, 5, 7, 11, 12, 14};
  }
  const int sequence_length = smoke ? 48 : 192;
  const int reps = smoke ? 1 : 3;

  std::printf("Sweep bench: gate reduction and PROOFS speedup%s\n",
              smoke ? " [smoke]" : (bench::FullMode() ? " [REPRO_FULL]" : ""));
  std::printf("%-12s | %5s %5s %6s %7s | %5s %5s %6s %7s |\n", "Circuit",
              "gates", "swept", "red", "speedup", "gates", "swept", "red",
              "speedup");

  std::vector<Row> rows;
  std::string error;
  bool mismatch = false;
  for (size_t pick : picks) {
    try {
      Row row = MeasurePair(variants[pick], sequence_length, reps);
      if (!row.original.equivalent || !row.retimed.equivalent ||
          !row.original.verified || !row.retimed.verified) {
        mismatch = true;
      }
      PrintRow(row);
      rows.push_back(std::move(row));
    } catch (const std::exception& e) {
      error = std::string(variants[pick].fsm) + ": " + e.what();
      std::fprintf(stderr, "bench_sweep: %s\n", error.c_str());
      break;
    }
  }

  const bool wrote = EmitJson(rows, error, smoke);
  if (wrote) {
    std::printf("wrote BENCH_sweep.json (%zu rows%s)\n", rows.size(),
                error.empty() ? "" : ", partial");
  }
  if (!wrote) return bench::kExitJsonWriteFailure;
  if (mismatch) {
    std::fprintf(stderr,
                 "bench_sweep: swept run NOT equivalent to unswept\n");
    return bench::kExitDeterminismMismatch;
  }
  if (!error.empty()) {
    return rows.empty() ? bench::kExitFatal : bench::kExitPartial;
  }
  return bench::kExitOk;
}
