// Fault-parallel deterministic ATPG phase.
//
// Remaining faults are the items of one core::ParallelFor, claimed from
// its shared counter in fault order.  The phase compiles the circuit once
// (sim::CompiledNetlist); every worker's models and justification
// searches read that one image.  Each worker keeps two reusable
// unrolled models (the 1-frame redundancy prover and the depth-doubling
// search model) and re-arms them per fault with UnrolledModel::SetFault
// / GrowFrames, so the per-fault path performs no model reconstruction.
//
// Determinism at any thread count: each fault's search is a pure
// function of (circuit, fault, seed) -- per-fault RNG streams, no
// shared learned state -- and results commit strictly in fault order.
// The one structure the workers share is an exact justification memo:
// a map from (fault, state cube) to the JustifyState result, built per
// run under a mutex.  JustifyState is itself a pure function of those
// keys, so a hit returns what a fresh call would -- the same status,
// sequence and charged evaluations -- whichever worker stored it.  A
// register-blind fault (site not a DFF, no DFF data driver in its
// combinational fanout cone) justifies exactly like the good machine,
// so its key carries no fault and such faults share entries.  A result
// computed while a stop was raised is never stored.
// A committed test is fault-simulated (cone-restricted PROOFS) against
// the faults beyond the commit frontier; the retired ones are marked
// detected, and a speculative search result for a retired fault is
// discarded at commit, exactly as if the fault had never been
// searched.  Workers consult the retirement map when they claim a
// fault, so one worker's test retires other workers' *queued* faults
// early -- that cooperation only saves wall clock; the committed
// outcome (status sets, test list, evaluation counters) is identical
// to a 1-thread run of the same seed.
//
// Stopping: one predicate, the driver's stop flag or the caller's
// cancel (AtpgOptions::stop).  A worker latches the stop flag when it
// finds the run's deadline passed or the cancel raised; PODEM and
// JustifyState poll both flags at every decision, so a cancel reaches
// an in-flight search without any monitor thread.  A fault whose search
// a stop cut short commits kUntried, never kAborted.
//
// Scaling: workers never block on the frontier.  A finished search is
// *parked* lock-free (release store into the fault's slot); the
// frontier is then drained by whichever single worker wins a try_lock
// on the commit mutex, so the heavy commit-path work -- the retirement
// fault simulation and the checkpoint journal writes/flushes -- runs
// concurrently with every other worker's searches instead of
// serializing them.  Journal flushes are batched per drain, keeping
// durability at the same consistency points with far fewer flushes.
// The atpg.frontier.wait_ms distribution records what little frontier
// service time remains on the worker path.
//
// tests/atpg_parallel_test.cpp locks the contract in;
// docs/ARCHITECTURE.md states it alongside the other subsystem
// invariants.  The phase's atpg.det.* / atpg.justify.* metrics and
// atpg.* trace spans (docs/METRICS.md) are observational only --
// budget-preemption *counts* vary run to run, committed results never
// do.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "atpg/engine.h"

namespace retest::atpg {

class Checkpoint;

/// Runs the deterministic phase of RunAtpg over `remaining` (indices
/// into result.faults that the random phase left undetected), updating
/// result.status / tests / evaluations / threads_used / preempted in
/// place.  `deadline` is the run's wall-clock deadline.  A non-null
/// `checkpoint` (not owned) resumes the phase at its replayed commit
/// frontier and retirement map, records every commit and is flushed
/// once per drain batch.
void RunDeterministicPhase(const netlist::Circuit& circuit,
                           const AtpgOptions& options,
                           const std::vector<std::size_t>& remaining,
                           std::chrono::steady_clock::time_point deadline,
                           AtpgResult& result,
                           Checkpoint* checkpoint);

}  // namespace retest::atpg
