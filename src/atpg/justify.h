// HITEC-style backward state justification.
//
// Given a required state cube (per-DFF values, X = don't care), search
// for an input sequence that drives the machine from the completely
// unknown state into a state compatible with the cube.  The search
// proceeds one time frame at a time: a frame solver enumerates
// (input vector, predecessor state cube) pairs whose next-state
// function covers the target, and the driver recurses on the
// predecessor cube until it relaxes to all-X (reachable from anywhere).
//
// This is the paper's pain point: a retimed circuit's registers can
// hold combinations "inconsistent with the values produced by the
// logical structure" (Section III), so justification on retimed
// circuits fails late and explosively -- which is what Table II's CPU
// ratios measure.
#pragma once

#include <atomic>
#include <optional>
#include <vector>

#include "fault/fault.h"
#include "sim/compiled.h"
#include "sim/simulator.h"

namespace retest::atpg {

/// Limits for a justification search.  `budget` members are shared
/// across the whole recursion.
struct JustifyOptions {
  int max_depth = 24;          ///< Frames of backward recursion.
  long max_backtracks = 4000;  ///< Total decision flips across the search.
  long max_evaluations = 20'000'000;
  /// Cooperative preemption, as PodemOptions: when either flag is set
  /// and becomes true, the search aborts at the next budget check.
  const std::atomic<bool>* stop = nullptr;
  const std::atomic<bool>* cancel = nullptr;
};

enum class JustifyStatus {
  kJustified,
  kFailed,   ///< Search space exhausted within depth: no sequence.
  kAborted,  ///< Limits hit.
};

struct JustifyResult {
  JustifyStatus status = JustifyStatus::kAborted;
  /// On success: applying this sequence from the all-X state leaves
  /// every non-X target bit at its required value.
  sim::InputSequence sequence;
  long backtracks = 0;
  long evaluations = 0;
};

/// Runs the backward justification for `target` (size = num_dffs).
/// When `fault` is given, justification runs on the composite
/// good/faulty machine (the fault injected in every frame): every
/// assigned target bit must be reached in BOTH machines, which is what
/// test generation needs (Lemmas 4/5: the faulty machine must be
/// synchronized too).  Without a fault, only the good machine is
/// constrained.
///
/// Each frame solver keeps its frame's values current event-driven: a
/// decision or backtrack re-evaluates only the fanout cone of the PI
/// or pseudo-PI it changed.  The work measure is not that cone: every
/// solver step charges one full combinational frame (the node count
/// less the PIs and DFFs) to JustifyResult::evaluations and against
/// max_evaluations, so the count and the bound do not depend on how
/// much of the frame a step re-evaluates.
JustifyResult JustifyState(const sim::CompiledNetlist& net,
                           const std::vector<sim::V3>& target,
                           const JustifyOptions& options = {},
                           const std::optional<fault::Fault>& fault =
                               std::nullopt);

}  // namespace retest::atpg
