// PROOFS-style sequential fault simulator, lane-group wide.
//
// Simulates 64*W faulty machines per pass using the bit-parallel
// 3-valued engine (Niermann/Cheng/Patel, DAC 1990 — the simulator the
// paper's Section V.C experiments used).  The lane width follows one
// rule on the run's input: a run that batches at most 64 faults uses
// W=1 (one 64-lane word), every larger run W=8 (512 faults per pass;
// sim/simd.h, docs/ARCHITECTURE.md).  Each faulty machine keeps its
// own DFF state across the whole sequence.
//
// The simulator has one configuration, built on PROOFS' two key ideas
// and on batch locality:
//  - fault dropping: a detected fault's lane is retired at once, and a
//    batch stops as soon as all its faults are detected;
//  - cone restriction: a fault can only perturb values inside the
//    structural fanout cone of its site (transitive through DFFs), so
//    each fault batch evaluates only the union of its cones and seeds
//    everything else from the shared read-only scalar good-machine
//    trace (sim::Trace, one byte per node and frame at any width; a
//    value is broadcast to the lanes only where a cone gate reads it);
//  - batch locality: a run of more than one batch orders its faults
//    by the topological position of their site before batching, so
//    faults sharing a word share cones and the union stays small (a
//    single-batch run keeps input order: its one cone union is the
//    same in any lane order).  Wider lanes amortize the shared
//    cone-union work over more faults per evaluation.
// All workers evaluate one shared, immutable CompiledNetlist
// (sim/compiled.h) — the flattened SoA image of the circuit — instead
// of walking per-node heap vectors.  Independent batches are the items
// of one core::ParallelFor (ProofsOptions::num_threads / the
// REPRO_THREADS env override).
//
// Thread-safety and determinism contract (docs/ARCHITECTURE.md):
//  - SimulateProofs is safe to call concurrently from multiple threads
//    (it shares no mutable state between runs), and each run's workers
//    share only the immutable good-machine trace and compiled netlist;
//    all per-batch scratch is worker-owned and merged by batch index.
//  - Detections are a pure function of (circuit, faults, sequence):
//    bit-identical at any num_threads AND either lane width (so a run
//    equals the concatenation of its runs over 64-fault chunks).
//    frames_evaluated and gate_evals are a pure function of the same
//    inputs: invariant across thread counts and independent of the
//    host.  Tier-1 tests and the
//    bench_faultsim_perf exit code enforce this.
//  - Instrumentation (faultsim.* metrics, faultsim.* trace spans; see
//    docs/METRICS.md) is observational only and never alters results.
#pragma once

#include <span>
#include <vector>

#include "fault/fault.h"
#include "faultsim/serial.h"
#include "sim/simulator.h"

namespace retest::faultsim {

/// Options for the parallel fault simulator: only its thread count.
struct ProofsOptions {
  /// Worker threads for independent fault batches (the items of one
  /// core::ParallelFor).  <= 0 means core::ResolveThreadCount(0) (the
  /// REPRO_THREADS env var when set, else hardware concurrency).
  int num_threads = 0;
};

/// Aggregate result of a fault-simulation run.
struct ProofsResult {
  /// One entry per fault, in input order (independent of sorting,
  /// batching, thread count and lane width).
  std::vector<Detection> detections;
  /// Total circuit-frame evaluations performed (deterministic work
  /// measure; each frame covers `lanes` machines).
  long frames_evaluated = 0;
  /// Total node evaluations across all frames (deterministic work
  /// measure, unchanged by threading; each evaluation covers `lanes`
  /// machines).
  long gate_evals = 0;
  /// Threads the run actually used.
  int threads_used = 1;
  /// Faulty machines simulated per pass: 64 when the run batches at
  /// most 64 faults, else 512.
  int lanes = 64;

  int num_detected() const {
    int count = 0;
    for (const Detection& d : detections) count += d.detected ? 1 : 0;
    return count;
  }
  /// %FC over the simulated faults (100 for an empty fault list).
  double FaultCoverage() const {
    return detections.empty() ? 100.0
                              : 100.0 * num_detected() /
                                    static_cast<double>(detections.size());
  }
};

/// Fault simulates `sequence` over `faults` (64 or 512 per pass).
ProofsResult SimulateProofs(const netlist::Circuit& circuit,
                            std::span<const fault::Fault> faults,
                            const sim::InputSequence& sequence,
                            const ProofsOptions& options = {});

}  // namespace retest::faultsim
