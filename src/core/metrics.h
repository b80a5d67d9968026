// Process-wide counter / timer registry — the measurement surface
// every engine (sim, faultsim, atpg, core::ParallelFor) reports into.
//
// Design goals, in order:
//  1. The instrumented hot paths stay contention-free and the engines'
//     outputs stay bit-identical: metrics are observational only, and
//     every update lands in a *thread-local shard* (one uncontended
//     mutex acquisition; no cross-thread cache-line traffic).  Shards
//     are merged when a snapshot is collected and when a thread exits.
//  2. Near-zero overhead: instrumentation sites sit at batch / fault /
//     phase granularity, never per gate evaluation, and a single
//     relaxed atomic load short-circuits every update when metrics are
//     runtime-disabled (`metrics::SetEnabled(false)`).  Compiling with
//     `-DREPRO_METRICS=OFF` (CMake option; sets RETEST_METRICS=0)
//     removes the sites entirely — the RETEST_* macros expand to
//     nothing, so nothing registers and the snapshot stays empty (the
//     registry API itself remains linkable either way).
//     `bench_metrics_overhead` proves the enabled-vs-disabled delta is
//     < 2% on the PROOFS and ATPG engines.
//  3. One schema: every metric is registered with a stable dotted name
//     (`<subsystem>.<what>`), a unit and a help string; the full list
//     lives in docs/METRICS.md.  `metrics::ToJson()` renders the
//     merged snapshot as the `"metrics"` JSON object the BENCH_*.json
//     files embed.
//
// Thread-safety contract: every function in this header may be called
// from any thread at any time.  Collect()/ToJson() observe a value for
// a shard no earlier than the shard's last completed update and no
// later than its next one; updates racing with a snapshot are counted
// in the next snapshot (each shard is drained under its own mutex).
// Registration is idempotent: the same name always yields the same
// handle, whichever thread or translation unit registers first.
//
// Typical use (through the macros, so REPRO_METRICS=OFF compiles the
// site away):
//
//   RETEST_COUNTER_ADD("faultsim.batches", "batches", "faultsim",
//                      "64-fault batches simulated", 1);
//   RETEST_DIST_RECORD("sim.cone_size", "nodes", "sim",
//                      "activity-mask size per batch", cone_nodes);
//   { RETEST_SCOPED_TIMER(timer, "atpg.fault_search_ms", "atpg",
//                         "wall time of one fault's search");
//     ... timed region ... }
#pragma once

#include <string>
#include <vector>

#ifndef RETEST_METRICS
#define RETEST_METRICS 1
#endif

namespace retest::core::metrics {

/// Handle to a named monotonic counter.  Value-type, trivially
/// copyable; obtained once per site (the macros cache it in a
/// function-local static) and usable from any thread.
struct Counter {
  int id = -1;
  /// Adds `delta` to this thread's shard.  Wait-free with respect to
  /// other updating threads (only a snapshot collector can contend,
  /// briefly, on the shard mutex).  No-op when id < 0 or metrics are
  /// runtime-disabled.
  void Add(long delta) const;
};

/// Handle to a distribution (min / max / sum / count of recorded
/// values).  Same threading contract as Counter.
struct Distribution {
  int id = -1;
  void Record(double value) const;
};

/// Registers (or looks up) a counter by name.  `name` is the stable
/// schema key (docs/METRICS.md), conventionally `<subsystem>.<what>`.
/// Strings are copied; literals are not required.  Re-registering an
/// existing name returns the existing handle (unit/subsystem/help of
/// the first registration win).
Counter RegisterCounter(const std::string& name, const std::string& unit,
                        const std::string& subsystem,
                        const std::string& help);

/// Registers (or looks up) a distribution by name.
Distribution RegisterDistribution(const std::string& name,
                                  const std::string& unit,
                                  const std::string& subsystem,
                                  const std::string& help);

/// RAII wall-clock timer: records the scope's duration in
/// milliseconds into a Distribution on destruction.  Reads the clock
/// only when metrics are enabled at construction time.
class ScopedTimer {
 public:
  explicit ScopedTimer(Distribution dist);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Distribution dist_;
  long long start_ns_ = -1;  // -1: disabled at construction
};

/// A merged, point-in-time view of every registered metric.  Metrics
/// appear in registration order of first use; entries whose sites
/// never fired still appear (with value 0 / count 0) once registered.
struct CounterValue {
  std::string name, unit, subsystem, help;
  long value = 0;
};
struct DistributionValue {
  std::string name, unit, subsystem, help;
  long count = 0;
  double sum = 0, min = 0, max = 0;
  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0; }
};
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<DistributionValue> distributions;

  /// Renders the snapshot as a JSON object (schema: docs/METRICS.md),
  /// every line prefixed with `indent` spaces except the first.  Keys
  /// are emitted in sorted name order so output is diffable.
  std::string ToJson(int indent = 0) const;
};

/// Collects the current merged totals: retired-thread accumulations
/// plus every live thread-local shard (each drained under its mutex).
Snapshot Collect();

/// Collect().ToJson(indent) — what the benches embed as "metrics".
std::string ToJson(int indent = 0);

/// Runtime kill switch (default: enabled).  Disabling makes every
/// update a single relaxed atomic load; used by bench_metrics_overhead
/// to measure instrumentation cost inside one binary.
void SetEnabled(bool enabled);
bool Enabled();

/// Zeroes every counter and distribution (live shards and retired
/// accumulations) while keeping registrations.  Not atomic with
/// respect to concurrent updates: values added by a thread racing the
/// reset may survive it.  Intended for bench phase boundaries / tests.
void Reset();

}  // namespace retest::core::metrics

// ---- Site macros -----------------------------------------------------
//
// All instrumentation goes through these so that a REPRO_METRICS=OFF
// build compiles the sites to nothing.  Each macro registers its
// metric on first execution (function-local static) and then costs one
// enabled-check + one shard update per hit.

#if RETEST_METRICS

#define RETEST_COUNTER_ADD(name, unit, subsystem, help, delta)              \
  do {                                                                      \
    static const ::retest::core::metrics::Counter retest_metrics_handle =   \
        ::retest::core::metrics::RegisterCounter(name, unit, subsystem,     \
                                                 help);                     \
    retest_metrics_handle.Add(delta);                                       \
  } while (0)

#define RETEST_DIST_RECORD(name, unit, subsystem, help, value)              \
  do {                                                                      \
    static const ::retest::core::metrics::Distribution                      \
        retest_metrics_handle = ::retest::core::metrics::RegisterDistribution( \
            name, unit, subsystem, help);                                   \
    retest_metrics_handle.Record(value);                                    \
  } while (0)

/// Declares a ScopedTimer named `var` recording into distribution
/// `name` (unit: ms).  Statement context only.
#define RETEST_SCOPED_TIMER(var, name, subsystem, help)                     \
  static const ::retest::core::metrics::Distribution var##_retest_dist =    \
      ::retest::core::metrics::RegisterDistribution(name, "ms", subsystem,  \
                                                    help);                  \
  const ::retest::core::metrics::ScopedTimer var(var##_retest_dist)

#else  // !RETEST_METRICS

#define RETEST_COUNTER_ADD(name, unit, subsystem, help, delta) \
  do {                                                         \
  } while (0)
#define RETEST_DIST_RECORD(name, unit, subsystem, help, value) \
  do {                                                         \
  } while (0)
#define RETEST_SCOPED_TIMER(var, name, subsystem, help) \
  do {                                                  \
  } while (0)

#endif  // RETEST_METRICS
