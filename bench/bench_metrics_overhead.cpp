// Observability overhead harness.
//
// The metrics layer (core/metrics.h) promises two things: instrumented
// engines stay bit-identical, and the instrumentation costs < 2% of
// wall time.  This harness proves both with one binary by flipping the
// runtime kill switch (metrics::SetEnabled) between otherwise
// identical runs -- a compile-time REPRO_METRICS=OFF build is strictly
// cheaper than the disabled path measured here, so the bound holds for
// it a fortiori.
//
//   primitives   per-operation cost of a counter add, a distribution
//                record, and a scoped timer, enabled and disabled
//   faultsim     SimulateProofs on a Table III circuit, enabled vs
//                disabled; detections must match exactly
//   atpg         RunAtpg (quick config) on the same circuit, enabled
//                vs disabled; status/tests/evaluations must match
//
// Modes:
//   (default)    timed runs; prints overhead %, fails (exit 1) on an
//                output mismatch or overhead >= 2%
//   --smoke      short sequences, identity check only (ctest budget);
//                timing is reported but never fails the run, because
//                sub-millisecond runs make percentages meaningless
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "core/metrics.h"
#include "experiments.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"

#if RETEST_METRICS
namespace {

using namespace retest;
using bench::RandomSequence;
namespace metrics = core::metrics;

double TimeOnceMs(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Best-of-reps for the enabled and disabled runs, interleaved
/// (on/off/on/off...) so clock drift and scheduler noise hit both
/// sides equally instead of biasing whichever ran second.
void TimePairMs(const std::function<void()>& enabled_fn,
                const std::function<void()>& disabled_fn, int reps,
                double* enabled_ms, double* disabled_ms) {
  *enabled_ms = 1e300;
  *disabled_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    metrics::SetEnabled(true);
    *enabled_ms = std::min(*enabled_ms, TimeOnceMs(enabled_fn));
    metrics::SetEnabled(false);
    *disabled_ms = std::min(*disabled_ms, TimeOnceMs(disabled_fn));
  }
  metrics::SetEnabled(true);
}

double PerOpNs(const std::function<void()>& op, long iterations) {
  const auto start = std::chrono::steady_clock::now();
  for (long i = 0; i < iterations; ++i) op();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(iterations);
}

void PrintPrimitive(const char* what, double on_ns, double off_ns) {
  std::printf("  %-24s %8.1f ns enabled   %8.1f ns disabled\n", what, on_ns,
              off_ns);
}

struct EngineCheck {
  const char* what;
  double enabled_ms = 0;
  double disabled_ms = 0;
  bool identical = true;

  double OverheadPct() const {
    return disabled_ms > 0
               ? 100.0 * (enabled_ms - disabled_ms) / disabled_ms
               : 0;
  }
};

}  // namespace
#endif  // RETEST_METRICS

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
#if !RETEST_METRICS
  // Nothing to measure: every site compiles to a no-op, so overhead is
  // zero by construction and the identity question is vacuous.
  std::printf("metrics compiled out (REPRO_METRICS=OFF); nothing to do\n");
  (void)smoke;
  return 0;
#else
  const int sequence_length = smoke ? 64 : 512;
  const int reps = smoke ? 2 : 5;
  const long primitive_iters = smoke ? 200'000 : 2'000'000;

  std::printf("observability overhead (kill-switch comparison%s)\n\n",
              smoke ? ", --smoke" : "");

  // ---- Primitive costs --------------------------------------------
  std::printf("primitive costs (%ld iterations):\n", primitive_iters);
  metrics::SetEnabled(true);
  const double counter_on = PerOpNs(
      [] {
        RETEST_COUNTER_ADD("bench.overhead.counter", "ops", "bench",
                           "overhead-harness probe counter", 1);
      },
      primitive_iters);
  const double dist_on = PerOpNs(
      [] {
        RETEST_DIST_RECORD("bench.overhead.dist", "ops", "bench",
                           "overhead-harness probe distribution", 1.0);
      },
      primitive_iters);
  metrics::SetEnabled(false);
  const double counter_off = PerOpNs(
      [] {
        RETEST_COUNTER_ADD("bench.overhead.counter", "ops", "bench",
                           "overhead-harness probe counter", 1);
      },
      primitive_iters);
  const double dist_off = PerOpNs(
      [] {
        RETEST_DIST_RECORD("bench.overhead.dist", "ops", "bench",
                           "overhead-harness probe distribution", 1.0);
      },
      primitive_iters);
  metrics::SetEnabled(true);
  PrintPrimitive("counter add", counter_on, counter_off);
  PrintPrimitive("distribution record", dist_on, dist_off);

  // ---- Engine runs, enabled vs disabled ---------------------------
  const bench::Prepared prepared =
      bench::PrepareVariant(bench::Table2Variants()[0]);
  const netlist::Circuit& circuit = prepared.original;
  const auto collapsed = fault::Collapse(circuit);
  const sim::InputSequence sequence =
      RandomSequence(circuit, sequence_length, 42);

  std::vector<EngineCheck> checks;
  {
    EngineCheck check{"faultsim.SimulateProofs"};
    // One thread: the per-site cost is thread-local (see metrics.h), so
    // a single worker is representative, and it keeps scheduler noise
    // out of a sub-2% measurement.
    faultsim::ProofsOptions proofs;
    proofs.num_threads = 1;
    faultsim::ProofsResult on, off;
    TimePairMs(
        [&] {
          on = faultsim::SimulateProofs(circuit, collapsed.representatives,
                                        sequence, proofs);
        },
        [&] {
          off = faultsim::SimulateProofs(circuit, collapsed.representatives,
                                         sequence, proofs);
        },
        reps, &check.enabled_ms, &check.disabled_ms);
    check.identical = on.detections.size() == off.detections.size() &&
                      on.frames_evaluated == off.frames_evaluated &&
                      on.gate_evals == off.gate_evals;
    for (size_t i = 0; check.identical && i < on.detections.size(); ++i) {
      if (!(on.detections[i] == off.detections[i])) check.identical = false;
    }
    checks.push_back(check);
  }
  {
    EngineCheck check{"atpg.RunAtpg"};
    atpg::AtpgOptions options;
    options.style = atpg::AtpgStyle::kForwardIla;
    options.random_rounds = 0;
    options.backtracks_per_fault = 2;
    options.max_frames = 16;
    options.redundancy_check = false;
    options.time_budget_ms = 600'000;
    options.num_threads = 1;
    atpg::AtpgResult on, off;
    TimePairMs([&] { on = atpg::RunAtpg(circuit, options); },
               [&] { off = atpg::RunAtpg(circuit, options); }, reps,
               &check.enabled_ms, &check.disabled_ms);
    check.identical = on.status == off.status && on.tests == off.tests &&
                      on.evaluations == off.evaluations;
    checks.push_back(check);
  }

  std::printf("\nengine overhead (circuit %s, %d frames, best of %d):\n",
              circuit.name().c_str(), sequence_length, reps);
  bool all_identical = true;
  bool within_bound = true;
  for (const EngineCheck& check : checks) {
    all_identical = all_identical && check.identical;
    within_bound = within_bound && check.OverheadPct() < 2.0;
    std::printf("  %-24s %8.2f ms enabled   %8.2f ms disabled   %+6.2f%%%s\n",
                check.what, check.enabled_ms, check.disabled_ms,
                check.OverheadPct(),
                check.identical ? "" : "  OUTPUT MISMATCH");
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: enabling metrics changed an engine's output\n");
    return 1;
  }
  if (!smoke && !within_bound) {
    std::fprintf(stderr, "FAIL: metrics overhead >= 2%%\n");
    return 1;
  }
  std::printf("\nOK: outputs bit-identical%s\n",
              smoke ? " (timing informational in --smoke)"
                    : ", overhead < 2%");
  return 0;
#endif
}
