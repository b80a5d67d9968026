// Reproduces Table II: test pattern generation on the original versus
// the performance-retimed circuits.
//
// The ATPG is the HITEC-style deterministic justification engine (see
// DESIGN.md).  Absolute CPU numbers differ from the paper's DECstation
// seconds; the columns to compare are the *shape*: retiming inflates
// #DFF, lowers %FC/%FE, and blows up the CPU ratio.  Budgets are
// scaled down by default; set REPRO_FULL=1 for 10x budgets.
//
// Besides the stdout table, emits BENCH_table2.json (one row per
// circuit pair plus the cumulative engine metrics snapshot; see
// docs/METRICS.md) into the current directory.
//
// Robustness (docs/ROBUSTNESS.md): a failure on one circuit pair does
// not discard the finished rows -- the JSON is flushed with an "error"
// field and the exit code distinguishes fatal (2), partial (3) and
// unwritable-output (4) outcomes.  REPRO_CHECKPOINT_DIR=<dir> turns on
// per-circuit ATPG checkpoint journals so an interrupted sweep resumes
// instead of restarting.  Each ATPG call is bounded by its one
// wall-clock budget (AtpgOptions::time_budget_ms, REPRO_ATPG_BUDGET_MS
// pins it).
//
// Scheduling: bench::SweepPairs runs the sixteen pairs as independent
// items of a core::ThreadPool::ParallelFor -- one pool thread per
// hardware thread (REPRO_THREADS overrides), one ATPG thread per pair,
// so a multi-core host overlaps whole circuit pairs without
// oversubscription.  Rows are printed in paper order once every pair
// finished.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analyze/certify.h"
#include "analyze/scoap.h"
#include "experiments.h"

namespace {

struct Row {
  std::string name;
  int original_dffs = 0;
  int retimed_dffs = 0;
  double original_fc = 0, original_fe = 0;
  double retimed_fc = 0, retimed_fe = 0;
  long original_cpu_ms = 0, retimed_cpu_ms = 0;
  double ratio = 0;
  // Static analysis companions (src/analyze): SCOAP testability of both
  // circuits, and the independent retiming certificate's verdict.
  retest::analyze::ScoapSummary original_scoap;
  retest::analyze::ScoapSummary retimed_scoap;
  bool certified = false;
  int certified_prefix = 0;
};

bool EmitJson(const std::vector<Row>& rows, double geomean_ratio,
              long original_budget, long retimed_budget,
              const std::string& error) {
  const auto fields = [&](std::FILE* f) {
    std::fprintf(f,
                 "  \"budget_original_ms\": %ld,\n"
                 "  \"budget_retimed_ms\": %ld,\n  \"rows\": [\n",
                 original_budget, retimed_budget);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"original\": {\"dffs\": %d, "
          "\"fc\": %.2f, \"fe\": %.2f, \"cpu_ms\": %ld}, "
          "\"retimed\": {\"dffs\": %d, \"fc\": %.2f, \"fe\": %.2f, "
          "\"cpu_ms\": %ld}, \"cpu_ratio\": %.2f,\n",
          r.name.c_str(), r.original_dffs, r.original_fc, r.original_fe,
          r.original_cpu_ms, r.retimed_dffs, r.retimed_fc, r.retimed_fe,
          r.retimed_cpu_ms, r.ratio);
      std::fprintf(f, "     \"scoap\": {\"original\": %s,\n",
                   r.original_scoap.ToJson(5).c_str());
      std::fprintf(f, "     \"retimed\": %s},\n",
                   r.retimed_scoap.ToJson(5).c_str());
      std::fprintf(f,
                   "     \"certified\": %s, \"certified_prefix\": %d}%s\n",
                   r.certified ? "true" : "false", r.certified_prefix,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"geomean_cpu_ratio\": %.3f,\n", geomean_ratio);
  };
  return retest::bench::WriteBenchJson("BENCH_table2.json", false, error,
                                       fields);
}

/// Synthesizes, retimes and runs ATPG on one Table II variant, one
/// ATPG thread per circuit.  Checkpoint journals are written per
/// circuit when REPRO_CHECKPOINT_DIR is set.  Throws on any pipeline
/// failure.
Row MeasurePair(const retest::bench::Variant& variant, long original_budget,
                long retimed_budget) {
  using namespace retest;
  const bench::Prepared prepared = bench::PrepareVariant(variant);
  auto original_options = bench::Table2AtpgOptions(original_budget);
  auto retimed_options = bench::Table2AtpgOptions(retimed_budget);
  original_options.num_threads = 1;
  retimed_options.num_threads = 1;
  original_options.checkpoint_path =
      bench::CheckpointPathFor(prepared.original.name() + ".original");
  retimed_options.checkpoint_path =
      bench::CheckpointPathFor(prepared.retimed.name() + ".retimed");
  const auto original_result =
      atpg::RunAtpg(prepared.original, original_options);
  const auto retimed_result = atpg::RunAtpg(prepared.retimed, retimed_options);
  if (original_result.resumed || retimed_result.resumed) {
    std::printf("  (%s: resumed from checkpoint)\n",
                prepared.original.name().c_str());
  }
  Row row;
  row.name = prepared.original.name();
  row.original_dffs = prepared.original.num_dffs();
  row.retimed_dffs = prepared.retimed.num_dffs();
  row.original_fc = original_result.FaultCoverage();
  row.original_fe = original_result.FaultEfficiency();
  row.retimed_fc = retimed_result.FaultCoverage();
  row.retimed_fe = retimed_result.FaultEfficiency();
  row.original_cpu_ms = original_result.elapsed_ms;
  row.retimed_cpu_ms = retimed_result.elapsed_ms;
  row.ratio = original_result.elapsed_ms > 0
                  ? static_cast<double>(retimed_result.elapsed_ms) /
                        static_cast<double>(original_result.elapsed_ms)
                  : 0.0;
  // Static companions: SCOAP predicts the ATPG blow-up before any test
  // generation runs, and the certifier independently re-establishes
  // that the retimed circuit really is a retiming (with the Theorem-4
  // prefix bound cross-checked against the move accounting).
  row.original_scoap =
      analyze::Summarize(analyze::ComputeScoap(prepared.original));
  row.retimed_scoap =
      analyze::Summarize(analyze::ComputeScoap(prepared.retimed));
  const auto cert =
      analyze::CertifyRetiming(prepared.original, prepared.retimed);
  row.certified = cert.certified;
  row.certified_prefix = cert.certificate.prefix_length;
  if (!cert.certified) {
    std::fprintf(stderr, "table2: %s: certification REFUSED:\n%s\n",
                 row.name.c_str(), cert.diagnostics.ToString().c_str());
  } else if (cert.certificate.prefix_length != prepared.moves.prefix_length()) {
    std::fprintf(stderr,
                 "table2: %s: certified prefix %d disagrees with move "
                 "accounting %d\n",
                 row.name.c_str(), cert.certificate.prefix_length,
                 prepared.moves.prefix_length());
  }
  return row;
}

/// Stdout reporting, separated from measurement: pairs complete out of
/// order, the table prints in paper order at collection time.
void PrintRow(const Row& row) {
  std::printf("%-12s | %5d %6.1f %6.1f %9ld | %5d %6.1f %6.1f %9ld | %8.1fx\n",
              row.name.c_str(), row.original_dffs, row.original_fc,
              row.original_fe, row.original_cpu_ms, row.retimed_dffs,
              row.retimed_fc, row.retimed_fe, row.retimed_cpu_ms, row.ratio);
  std::printf(
      "  static: scoap seq-cost %.0f -> %.0f, %s (prefix %d)\n",
      row.original_scoap.sequential_cost, row.retimed_scoap.sequential_cost,
      row.certified ? "certified" : "NOT certified", row.certified_prefix);
  std::fflush(stdout);
}

}  // namespace

int main() {
  using namespace retest;
  const long original_budget = bench::BudgetMs(10'000);
  const long retimed_budget = bench::BudgetMs(40'000);

  std::printf("Table II: test pattern generation results\n");
  std::printf("(CPU in ms; budgets: original %ld ms, retimed %ld ms%s)\n\n",
              original_budget, retimed_budget,
              bench::FullMode() ? " [REPRO_FULL]" : "");
  std::printf("%-12s | %5s %6s %6s %9s | %5s %6s %6s %9s | %9s\n", "Circuit",
              "#DFF", "%FC", "%FE", "#CPU", "#DFF", "%FC", "%FE", "#CPU",
              "CPU Ratio");

  const auto sweep = bench::SweepPairs([&](const bench::Variant& variant) {
    return MeasurePair(variant, original_budget, retimed_budget);
  });
  double ratio_product = 1.0;
  for (const Row& row : sweep.rows) {
    PrintRow(row);
    ratio_product *= row.ratio > 0 ? row.ratio : 1.0;
  }
  if (!sweep.error.empty()) {
    std::fprintf(stderr, "table2: %s\n", sweep.error.c_str());
  }
  double geomean = 0;
  if (!sweep.rows.empty()) {
    geomean = std::pow(ratio_product,
                       1.0 / static_cast<double>(sweep.rows.size()));
    std::printf("\ngeometric-mean CPU ratio: %.1fx\n", geomean);
  }
  const bool wrote = EmitJson(sweep.rows, geomean, original_budget,
                              retimed_budget, sweep.error);
  return bench::ExitCode(wrote, !sweep.rows.empty(), sweep.error);
}
