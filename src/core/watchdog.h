// Watchdog budgets — wall-clock deadline and per-item timeout
// enforcement for long-running parallel phases.
//
// The fault-parallel ATPG driver (atpg/parallel_driver) hands each
// worker a per-worker stop flag from here instead of its shared
// budget flag.  A single monitor thread then:
//   - propagates the phase's *global* stop (wall-clock budget or
//     deadline exhausted) into every per-worker flag, so in-flight
//     PODEM searches — which only see PodemOptions::stop — abort
//     cooperatively;
//   - fires the *per-item* timeout: when one fault's search exceeds
//     its budget, only that worker's flag flips, the overrun search
//     aborts, the fault commits as kUntried, and the run continues.
//
// Limits come from the caller or the environment:
//   REPRO_DEADLINE_MS       whole-run wall-clock deadline (ms)
//   REPRO_FAULT_TIMEOUT_MS  per-fault search timeout (ms)
// Zero (the default) disables the corresponding limit; with both
// disabled the driver never constructs a Watchdog and behaves exactly
// as before.  Per-item timeouts make results *timing-dependent* —
// exactly like the existing wall-clock budget — so the bit-identical
// determinism guarantee holds only for runs the watchdog never
// preempts.  Preempted faults are always committed as kUntried, never
// as genuine aborts, so a checkpoint resume (atpg/journal) re-searches
// them cleanly.  See docs/ROBUSTNESS.md.
//
// Thread-safety: BeginItem/EndItem are called by worker `w` only, for
// one item at a time; StopFlag(w) may be read from any thread (PODEM
// polls it).  The monitor thread is joined in the destructor.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace retest::core {

/// Watchdog configuration.  All zero = fully disabled.
struct WatchdogLimits {
  long deadline_ms = 0;       ///< Whole-run wall clock; 0 = none.
  long fault_timeout_ms = 0;  ///< Per-item (per-fault) budget; 0 = none.

  bool active() const { return deadline_ms > 0 || fault_timeout_ms > 0; }

  /// Reads REPRO_DEADLINE_MS / REPRO_FAULT_TIMEOUT_MS (non-positive or
  /// unparsable values are treated as unset).
  static WatchdogLimits FromEnv();

  /// `explicit_limits` where set, the environment for the rest — the
  /// resolution every entry point applies (options win over env vars).
  static WatchdogLimits Resolve(const WatchdogLimits& explicit_limits);
};

class Watchdog {
 public:
  /// Starts the monitor thread.  `global_stop` is the phase's shared
  /// preemption flag (not owned): the monitor mirrors it into every
  /// per-worker flag, and sets it itself when the deadline passes.
  /// `external_stop` (optional, not owned) is an outside cancellation
  /// request — e.g. a served job's stop flag (Service::Cancel) — that
  /// the monitor latches into `global_stop` within one poll interval
  /// (<= 10 ms), so a preemptive cancel reaches in-flight PODEM
  /// searches with bounded latency even when no limit is configured.
  Watchdog(const WatchdogLimits& limits, int num_workers,
           std::atomic<bool>* global_stop,
           const std::atomic<bool>* external_stop = nullptr);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Worker `w` is starting one item: arms its timeout and clears its
  /// flag (unless the run is already globally stopped).
  void BeginItem(int worker);

  /// Worker `w` finished (or aborted) its item: disarms the timeout.
  /// Returns true when the *per-item* timeout fired for this item —
  /// the caller must discard the partial result and commit kUntried.
  /// A global stop does not count (the caller observes that itself).
  bool EndItem(int worker);

  /// The flag worker `w` must hand to cooperative-preemption consumers
  /// (PodemOptions::stop).  Set by: global stop, deadline expiry, or
  /// this worker's per-item timeout.
  const std::atomic<bool>* StopFlag(int worker) const;

  /// True once the wall-clock deadline latched the global stop.
  bool DeadlineExpired() const {
    return deadline_expired_.load(std::memory_order_relaxed);
  }

  /// Per-item timeouts fired so far (monotone; for reporting).
  long preemptions() const {
    return preemptions_.load(std::memory_order_relaxed);
  }

 private:
  struct WorkerSlot {
    /// Item start, ns since the watchdog epoch; 0 = idle.
    std::atomic<std::int64_t> started_ns{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> timed_out{false};
  };

  void MonitorLoop();
  std::int64_t NowNs() const;

  const WatchdogLimits limits_;
  std::atomic<bool>* const global_stop_;
  const std::atomic<bool>* const external_stop_;
  const std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  std::atomic<bool> deadline_expired_{false};
  std::atomic<long> preemptions_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  std::thread monitor_;
};

}  // namespace retest::core
