// Deterministic-ATPG performance harness.
//
// Two configurations per Table II circuit pair, each timed with one
// worker (_1t) and with the multi-worker fault-parallel driver (_mt):
//
//   quick   a low-backtrack quick pass (the classic first ATPG sweep:
//           most faults fall with little search, so per-fault model
//           preparation is a large share of the cost);
//   table2  the paper's HITEC-style budget configuration (search
//           bound); its original-vs-retimed CPU ratio is the Table II
//           story.
//
// Runs of the same configuration must produce bit-identical results
// (status sets, test lists, evaluation counters) regardless of thread
// count -- the harness cross-checks this before reporting anything and
// fails loudly on a mismatch.  Emits BENCH_atpg.json (the host record,
// ATPG CPU + coverage original vs retimed, parallel speedups, thread
// scaling) into the current directory so the perf trajectory is
// tracked over PRs.
//
// Modes:
//   (default)           4 circuit variants, scaled table2 budgets
//   REPRO_FULL=1        all 16 variants, paper table2 budgets
//   --smoke             1 variant, quick config only (ctest budget);
//                       exit code is the determinism verdict
// REPRO_THREADS=N overrides the multi-worker thread count.
//
// Robustness (docs/ROBUSTNESS.md): a failure mid-sweep still flushes
// the finished circuits to BENCH_atpg.json with an "error" field.
// Exit codes: 0 ok, 1 determinism mismatch, 2 fatal before any
// circuit, 3 partial results, 4 JSON unwritable.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "atpg/engine.h"
#include "core/thread_pool.h"
#include "experiments.h"

namespace {

using namespace retest;
using bench::TimeMs;

struct RunStats {
  double ms = 0;
  double coverage = 0;
  double efficiency = 0;
  int detected = 0;
  int redundant = 0;
  int aborted = 0;
  long evaluations = 0;
  int threads_used = 1;
};

RunStats Summarize(const atpg::AtpgResult& result, double ms) {
  RunStats stats;
  stats.ms = ms;
  stats.coverage = result.FaultCoverage();
  stats.efficiency = result.FaultEfficiency();
  stats.detected = result.Count(atpg::FaultStatus::kDetected);
  stats.redundant = result.Count(atpg::FaultStatus::kRedundant);
  stats.aborted = result.Count(atpg::FaultStatus::kAborted);
  stats.evaluations = result.evaluations;
  stats.threads_used = result.threads_used;
  return stats;
}

bool SameResults(const atpg::AtpgResult& a, const atpg::AtpgResult& b) {
  return a.status == b.status && a.tests == b.tests &&
         a.evaluations == b.evaluations;
}

// A budget the bounded per-fault limits never reach: the timed runs
// must complete, or every "speedup" would just be the budget cap.
constexpr long kBudgetMs = 600'000;

/// The quick-pass sweep: forward-ILA with a near-zero backtrack limit
/// and no redundancy proofs (those belong to the thorough pass).  Easy
/// faults fall in one descent, so per-fault model preparation
/// (SetFault/GrowFrames) is a large share of the cost.
atpg::AtpgOptions QuickOptions() {
  atpg::AtpgOptions options;
  options.style = atpg::AtpgStyle::kForwardIla;
  options.random_rounds = 0;
  options.backtracks_per_fault = 2;
  options.max_frames = 16;
  options.redundancy_check = false;
  options.time_budget_ms = kBudgetMs;
  return options;
}

/// Table II configuration; paper budgets under REPRO_FULL=1, scaled
/// down 5x otherwise so the default bench stays in minutes (the
/// original-vs-retimed cost ratio shows at any budget).
atpg::AtpgOptions PaperOptions() {
  atpg::AtpgOptions options = bench::Table2AtpgOptions(kBudgetMs);
  if (!bench::FullMode()) {
    options.backtracks_per_fault /= 5;
    options.justify_backtracks /= 5;
  }
  return options;
}

struct CircuitReport {
  std::string name;
  const char* role;  // "original" | "retimed"
  int num_nodes = 0;
  int num_faults = 0;
  RunStats quick_1t;
  RunStats quick_mt;
  RunStats table2_1t;
  RunStats table2_mt;
  bool identical = true;  ///< All same-config runs agree bit-for-bit.

  double ParallelSpeedup() const {
    return quick_mt.ms > 0 ? quick_1t.ms / quick_mt.ms : 0;
  }
};

void EmitRun(std::FILE* f, const char* key, const RunStats& s, bool last) {
  std::fprintf(f,
               "      \"%s\": {\"ms\": %.3f, \"coverage\": %.2f, "
               "\"efficiency\": %.2f, \"detected\": %d, \"redundant\": %d, "
               "\"aborted\": %d, \"evaluations\": %ld, \"threads\": %d}%s\n",
               key, s.ms, s.coverage, s.efficiency, s.detected, s.redundant,
               s.aborted, s.evaluations, s.threads_used, last ? "" : ",");
}

bool EmitJson(const std::vector<CircuitReport>& reports,
              const std::vector<std::pair<int, double>>& scaling,
              int mt_threads, bool smoke, const std::string& error) {
  const atpg::AtpgOptions quick = QuickOptions();
  const atpg::AtpgOptions paper = PaperOptions();
  const auto style = [](const atpg::AtpgOptions& options) {
    return options.style == atpg::AtpgStyle::kJustification ? "justification"
                                                            : "forward_ila";
  };
  const auto fields = [&](std::FILE* f) {
    std::fprintf(f, "  \"mt_threads\": %d,\n", mt_threads);
    std::fprintf(f,
                 "  \"config\": {\"quick_style\": \"%s\", "
                 "\"quick_backtracks\": %ld, \"table2_style\": \"%s\", "
                 "\"table2_backtracks\": %ld, "
                 "\"table2_justify_backtracks\": %ld},\n",
                 style(quick), quick.backtracks_per_fault, style(paper),
                 paper.backtracks_per_fault, paper.justify_backtracks);
    std::fprintf(f, "  \"circuits\": [\n");
    for (size_t i = 0; i < reports.size(); ++i) {
      const CircuitReport& r = reports[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"role\": \"%s\",\n",
                   r.name.c_str(), r.role);
      std::fprintf(f, "     \"nodes\": %d, \"faults\": %d,\n", r.num_nodes,
                   r.num_faults);
      std::fprintf(f, "     \"runs\": {\n");
      EmitRun(f, "quick_1t", r.quick_1t, false);
      EmitRun(f, "quick_mt", r.quick_mt, smoke);
      if (!smoke) {
        EmitRun(f, "table2_1t", r.table2_1t, false);
        EmitRun(f, "table2_mt", r.table2_mt, true);
      }
      std::fprintf(f, "     },\n");
      std::fprintf(f,
                   "     \"speedup_mt_vs_1t\": %.2f, "
                   "\"identical_results\": %s}%s\n",
                   r.ParallelSpeedup(), r.identical ? "true" : "false",
                   i + 1 < reports.size() ? "," : "");
    }
    // Table II shape: the retimed/original ATPG CPU ratio per pair
    // (consecutive reports are the original/retimed halves of one pair).
    std::fprintf(f, "  ],\n  \"pairs\": [\n");
    for (size_t i = 0; i + 1 < reports.size(); i += 2) {
      const CircuitReport& o = reports[i];
      const CircuitReport& r = reports[i + 1];
      const RunStats& om = smoke ? o.quick_1t : o.table2_1t;
      const RunStats& rm = smoke ? r.quick_1t : r.table2_1t;
      std::fprintf(
          f,
          "    {\"name\": \"%s\", \"atpg_cpu_original_ms\": %.3f, "
          "\"atpg_cpu_retimed_ms\": %.3f, "
          "\"cpu_ratio_retimed_vs_original\": %.2f, "
          "\"coverage_original\": %.2f, \"coverage_retimed\": %.2f}%s\n",
          o.name.c_str(), om.ms, rm.ms, om.ms > 0 ? rm.ms / om.ms : 0,
          om.coverage, rm.coverage, i + 3 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"thread_scaling\": [\n");
    for (size_t i = 0; i < scaling.size(); ++i) {
      std::fprintf(f, "    {\"threads\": %d, \"ms\": %.3f}%s\n",
                   scaling[i].first, scaling[i].second,
                   i + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  };
  return bench::WriteBenchJson("BENCH_atpg.json", smoke, error, fields);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // The multi-worker configuration pins 4 workers (REPRO_THREADS
  // overrides) so the determinism cross-check is meaningful even on a
  // single-CPU host.
  const int mt_threads = core::ResolveThreadCount(0) > 1
                             ? core::ResolveThreadCount(0)
                             : 4;
  const auto& variants = bench::Table2Variants();
  const size_t num_variants =
      smoke ? 1 : (bench::FullMode() ? variants.size() : 4);
  const int reps = smoke ? 1 : 2;

  std::printf("deterministic ATPG perf (mt_threads=%d%s)\n", mt_threads,
              smoke ? ", --smoke" : "");
  std::printf("%-14s %-9s | %7s %6s | %9s %9s | %6s | %9s %9s\n",
              "circuit", "role", "faults", "nodes", "q:1t", "q:Nt", "par",
              "t2:1t", "t2:Nt");

  std::vector<CircuitReport> reports;
  std::string error;
  bool all_identical = true;
  for (size_t v = 0; v < num_variants && error.empty(); ++v) {
    try {
      const bench::Prepared prepared = bench::PrepareVariant(variants[v]);
      for (const auto* role : {"original", "retimed"}) {
        const netlist::Circuit& circuit = std::strcmp(role, "original") == 0
                                              ? prepared.original
                                              : prepared.retimed;
        CircuitReport report;
        report.name = circuit.name();
        report.role = role;
        report.num_nodes = circuit.size();

        // Quick pass: serial vs parallel.
        atpg::AtpgOptions quick = QuickOptions();
        atpg::AtpgResult q_1t, q_mt;
        quick.num_threads = 1;
        const double q_1t_ms =
            TimeMs([&] { q_1t = atpg::RunAtpg(circuit, quick); }, reps);
        quick.num_threads = mt_threads;
        const double q_mt_ms =
            TimeMs([&] { q_mt = atpg::RunAtpg(circuit, quick); }, reps);
        report.num_faults = static_cast<int>(q_1t.faults.size());
        report.quick_1t = Summarize(q_1t, q_1t_ms);
        report.quick_mt = Summarize(q_mt, q_mt_ms);
        report.identical = SameResults(q_1t, q_mt);

        // Table II budgets: serial vs parallel (search cost dominates
        // here, which the JSON records).
        if (!smoke) {
          atpg::AtpgOptions paper = PaperOptions();
          atpg::AtpgResult t2_1t, t2_mt;
          paper.num_threads = 1;
          const double t2_1t_ms =
              TimeMs([&] { t2_1t = atpg::RunAtpg(circuit, paper); }, 1);
          paper.num_threads = mt_threads;
          const double t2_mt_ms =
              TimeMs([&] { t2_mt = atpg::RunAtpg(circuit, paper); }, 1);
          report.table2_1t = Summarize(t2_1t, t2_1t_ms);
          report.table2_mt = Summarize(t2_mt, t2_mt_ms);
          report.identical = report.identical && SameResults(t2_1t, t2_mt);
        }
        all_identical = all_identical && report.identical;

        std::printf(
            "%-14s %-9s | %7d %6d | %9.1f %9.1f | %5.2fx | %9.1f %9.1f%s\n",
            report.name.c_str(), role, report.num_faults, report.num_nodes,
            q_1t_ms, q_mt_ms, report.ParallelSpeedup(), report.table2_1t.ms,
            report.table2_mt.ms, report.identical ? "" : "  MISMATCH");
        std::fflush(stdout);
        reports.push_back(std::move(report));
      }
    } catch (const std::exception& e) {
      error = std::string(variants[v].fsm) + ": " + e.what();
      std::fprintf(stderr, "bench_atpg_perf: %s\n", error.c_str());
    }
  }

  // Thread scaling of the fault-parallel driver (quick config, first
  // original circuit), recorded as measured; on a single-CPU host
  // extra workers buy nothing and the numbers say so.
  std::vector<std::pair<int, double>> scaling;
  if (!smoke && !reports.empty() && error.empty()) {
    try {
      const bench::Prepared prepared = bench::PrepareVariant(variants[0]);
      const int hw = static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()));
      const int max_threads = std::max(4, hw);
      for (int threads = 1; threads <= max_threads; threads *= 2) {
        atpg::AtpgOptions options = QuickOptions();
        options.num_threads = threads;
        const double ms = TimeMs(
            [&] { (void)atpg::RunAtpg(prepared.original, options); }, reps);
        scaling.emplace_back(threads, ms);
      }
    } catch (const std::exception& e) {
      error = std::string("thread scaling: ") + e.what();
      std::fprintf(stderr, "bench_atpg_perf: %s\n", error.c_str());
    }
  }

  const bool wrote = EmitJson(reports, scaling, mt_threads, smoke, error);
  // An incomplete or unwritten report certifies nothing, so its code
  // outranks the determinism verdict (docs/ROBUSTNESS.md).
  const int code = bench::ExitCode(wrote, !reports.empty(), error);
  if (code != bench::kExitOk) return code;
  if (!all_identical) {
    std::fprintf(stderr,
                 "DETERMINISM MISMATCH: 1-thread and parallel runs "
                 "disagree\n");
    return bench::kExitMismatch;
  }
  return bench::kExitOk;
}
