// Reproduces Table III: fault simulation of the test sets generated
// for the original circuits, and of the derived (prefix-extended) test
// sets on the corresponding retimed circuits.
//
// Theorem 4's procedure (core::PreservePair): the prefix length is the
// maximum number of forward retiming moves across any node, read off
// the pair's retiming certificate; most variants need none, and the
// ones that do need only the computed handful of arbitrary vectors.
// The undetected-fault counts on the original and retimed circuits
// should track each other closely (residual differences come from line
// splits/merges changing the collapsed-fault counts).
//
// Besides the stdout table, emits BENCH_table3.json (one row per
// circuit pair plus the cumulative engine metrics snapshot; see
// docs/METRICS.md) into the current directory.
//
// Robustness (docs/ROBUSTNESS.md): a failure on one circuit pair
// flushes the finished rows with an "error" field; exit codes are
// 0 ok, 2 fatal-before-rows, 3 partial, 4 output unwritable.
// REPRO_CHECKPOINT_DIR enables per-circuit ATPG checkpoint journals
// for the test-set generation step.
//
// Scheduling: like table2_atpg, bench::SweepPairs runs the sixteen
// pairs as items of one core::ParallelFor, one ATPG and
// PROOFS thread per pair; the table prints in paper order at
// collection time.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.h"
#include "experiments.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"

namespace {

struct Row {
  std::string name;
  int original_faults = 0, original_undetected = 0;
  int retimed_faults = 0, retimed_undetected = 0;
  double original_fc = 0, retimed_fc = 0;
  int prefix = 0;
};

bool EmitJson(const std::vector<Row>& rows, long budget,
              const std::string& error) {
  const auto fields = [&](std::FILE* f) {
    std::fprintf(f, "  \"atpg_budget_ms\": %ld,\n  \"rows\": [\n", budget);
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"original\": {\"faults\": %d, "
                   "\"undetected\": %d, \"fc\": %.2f}, "
                   "\"retimed\": {\"faults\": %d, \"undetected\": %d, "
                   "\"fc\": %.2f}, \"prefix\": %d}%s\n",
                   r.name.c_str(), r.original_faults,
                   r.original_undetected, r.original_fc, r.retimed_faults,
                   r.retimed_undetected, r.retimed_fc, r.prefix,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  };
  return retest::bench::WriteBenchJson("BENCH_table3.json", false, error,
                                       fields);
}

/// Runs the preservation pipeline on the pair (certify, ATPG on the
/// original, Theorem-4 prefix, PROOFS on the retimed circuit) and
/// fault-simulates the original test set on the original circuit for
/// the left-hand columns, ATPG and PROOFS on one thread each.  Throws
/// on any pipeline failure; checkpoint journals cover the ATPG step
/// when REPRO_CHECKPOINT_DIR is set.
Row MeasurePair(const retest::bench::Variant& variant, long budget) {
  using namespace retest;
  const bench::Prepared prepared = bench::PrepareVariant(variant);

  auto atpg_options = bench::TestSetAtpgOptions(budget);
  atpg_options.num_threads = 1;
  atpg_options.checkpoint_path =
      bench::CheckpointPathFor(prepared.original.name() + ".testset");
  const core::PreserveReport report =
      core::PreservePair(prepared.original, prepared.retimed, atpg_options);
  if (!report.cert.certified) {
    throw std::runtime_error("certification refused: " +
                             report.cert.diagnostics.ToString());
  }

  faultsim::ProofsOptions sim_options;
  sim_options.num_threads = 1;
  const auto original_faults = fault::Collapse(prepared.original);
  const auto original_sim = faultsim::SimulateProofs(
      prepared.original, original_faults.representatives,
      report.atpg.ConcatenatedTests(), sim_options);

  Row row;
  row.name = prepared.original.name();
  row.original_faults =
      static_cast<int>(original_faults.representatives.size());
  row.retimed_faults = static_cast<int>(report.mapped.detections.size());
  row.original_undetected = row.original_faults - original_sim.num_detected();
  row.retimed_undetected = row.retimed_faults - report.mapped.num_detected();
  row.original_fc = original_sim.FaultCoverage();
  row.retimed_fc = report.mapped.FaultCoverage();
  row.prefix = report.prefix_length();
  return row;
}

/// Stdout reporting, separated from measurement: pairs complete out of
/// order, the table prints in paper order at collection time.
void PrintRow(const Row& row) {
  std::printf("%-12s | %7d %7d %6.1f | %7d %7d %6.1f | %6d\n",
              row.name.c_str(), row.original_faults, row.original_undetected,
              row.original_fc, row.retimed_faults, row.retimed_undetected,
              row.retimed_fc, row.prefix);
  std::fflush(stdout);
}

}  // namespace

int main() {
  using namespace retest;
  const long budget = bench::BudgetMs(8'000);

  std::printf("Table III: fault simulation results\n");
  std::printf("(test sets from the fast ATPG config, budget %ld ms%s)\n\n",
              budget, bench::FullMode() ? " [REPRO_FULL]" : "");
  std::printf("%-12s | %7s %7s %6s | %7s %7s %6s | %6s\n", "Circuit",
              "#Faults", "#UnDet", "%FC", "#Faults", "#UnDet", "%FC",
              "Prefix");

  const auto sweep = bench::SweepPairs([&](const bench::Variant& variant) {
    return MeasurePair(variant, budget);
  });
  for (const Row& row : sweep.rows) PrintRow(row);
  if (!sweep.error.empty()) {
    std::fprintf(stderr, "table3: %s\n", sweep.error.c_str());
  }
  const bool wrote = EmitJson(sweep.rows, budget, sweep.error);
  return bench::ExitCode(wrote, !sweep.rows.empty(), sweep.error);
}
