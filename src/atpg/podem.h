// PODEM branch-and-bound search over an unrolled model.
//
// Decision variables are the frame PIs (plus the frame-0 state bits in
// free_state mode).  Objectives alternate between exciting the fault
// and advancing the D-frontier; backtracing maps an objective to an
// unassigned decision variable.  The search is complete: exhausting the
// decision tree proves that no test exists *for this model* (which is a
// redundancy proof exactly when the model is 1 frame, free-state,
// state-observing).
#pragma once

#include <atomic>
#include <cstdint>

#include "atpg/unrolled.h"

namespace retest::atpg {

/// Search limits.
struct PodemOptions {
  long max_backtracks = 5000;
  /// Cap on node evaluations (the deterministic work measure); the
  /// search aborts when exceeded.
  long max_evaluations = 50'000'000;
  /// Optional cooperative-preemption flags (not owned, may be null):
  /// when either becomes true the search aborts at the next decision.
  /// The fault-parallel ATPG driver passes its run-wide stop (the
  /// wall-clock deadline) and the caller's cancel (AtpgOptions::stop).
  const std::atomic<bool>* stop = nullptr;
  const std::atomic<bool>* cancel = nullptr;
};

/// Search outcome.
enum class PodemStatus {
  kFound,      ///< Test found; read it off the model's InputSequence().
  kExhausted,  ///< Complete search: no test exists for this model.
  kAborted,    ///< A limit was hit first.
};

/// Search statistics (work accounting feeds the ATPG CPU numbers).
struct PodemResult {
  PodemStatus status = PodemStatus::kAborted;
  long backtracks = 0;
  long evaluations = 0;
};

/// Runs PODEM on `model` (which carries the fault and frame count).
/// On kFound the satisfying assignment is left in the model.
PodemResult RunPodem(UnrolledModel& model, const PodemOptions& options = {});

}  // namespace retest::atpg
