// The sequential ATPG driver (HITEC stand-in).
//
// Pipeline: equivalence-collapse the fault universe; a random phase
// (random sequences kept when they detect new faults, PROOFS-style
// dropping); then deterministic PODEM per remaining fault over an
// adaptively deepened unrolled model, with a combinational-redundancy
// proof (1 frame, free + observed state) identifying untestable faults.
// Every knob that the paper's Table II budget story depends on (time
// budget, backtrack limits, frame caps) is explicit in AtpgOptions.
//
// The deterministic phase is fault-parallel: remaining faults are
// dispatched across a core::ThreadPool, the workers share one compiled
// image of the circuit, each worker reuses one set of unrolled models
// (SetFault/GrowFrames instead of reconstruction), and
// every found test is fault-simulated against the still-pending
// universe so one worker's test retires other workers' queued faults.
// Results commit in fault order with per-fault seeded RNGs, so the
// detected/redundant/aborted sets, the test list and the evaluation
// counters are identical for a given seed at any thread count (see
// parallel_driver.h).
//
// Stopping: a run has one wall-clock deadline, time_budget_ms after it
// starts, and one cancel flag, AtpgOptions::stop.  The random phase and
// the deterministic driver compare against the deadline; every search
// polls the driver's stop and the cancel flag at each decision.  Either
// way the run ends at the commit frontier with the unfinished faults
// kUntried, and no thread besides the ThreadPool workers watches it.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "fault/collapse.h"
#include "fault/fault.h"
#include "sim/simulator.h"

namespace retest::atpg {

/// Deterministic-search architecture.
enum class AtpgStyle {
  /// Forward search over the unrolled array with a pinned unknown
  /// initial state (tests are correct by construction).
  kForwardIla,
  /// HITEC-style: combinational test with a free state, then backward
  /// state justification, then fault-simulation verification.  This is
  /// the architecture whose cost explodes on retimed circuits
  /// (Table II).
  kJustification,
};

/// ATPG configuration.
struct AtpgOptions {
  std::uint64_t seed = 1;
  AtpgStyle style = AtpgStyle::kForwardIla;
  /// kJustification: backward-justification limits per fault.
  int justify_max_depth = 24;
  long justify_backtracks = 4000;
  /// Random-phase: number of candidate sequences and their length in
  /// multiples of (#DFF + 4); the phase ends early after
  /// `random_patience` consecutive useless sequences.
  int random_rounds = 64;
  int random_length_factor = 4;
  int random_patience = 8;
  /// Deterministic-phase: unrolled depth starts at 1 and doubles up to
  /// max_frames (0 = auto: 4 * #DFF + 8, clamped to [8, 64]).
  int max_frames = 0;
  long backtracks_per_fault = 2000;
  long evaluations_per_fault = 5'000'000;
  /// Overall wall-clock budget in milliseconds (the paper's #CPU role):
  /// the run's one deadline.  When it passes, queued faults commit as
  /// kUntried and the result reports preempted.
  long time_budget_ms = 10'000;
  /// Attempt the combinational-redundancy proof per aborted fault.
  bool redundancy_check = true;
  /// Worker threads for the deterministic phase.  <= 0 means
  /// core::ResolveThreadCount's default (the REPRO_THREADS env var
  /// when set, else hardware concurrency).  The result is identical at
  /// any thread count for a given seed (only wall clock changes),
  /// except when the time budget cuts the run short.
  int num_threads = 0;
  /// Crash-safe checkpoint journal (atpg/journal).  Empty = disabled.
  /// When set, every random-phase test and every deterministic commit
  /// is appended (CRC-guarded, flushed at the commit frontier); a
  /// matching journal found at the path on startup is replayed, so a
  /// killed run resumes from its last committed fault and still lands
  /// on the bit-identical result of an uninterrupted run, at any
  /// thread count.
  std::string checkpoint_path;
  /// External cooperative-cancel flag (not owned; may be null).  When
  /// it turns true mid-run the engine preempts exactly like a
  /// wall-clock budget expiry: in-flight searches abort at their next
  /// decision, unfinished faults commit as kUntried (journal-resumable),
  /// and the result reports preempted.  The daemon's Service wires each
  /// job's stop flag in here so a per-job Cancel interrupts a running
  /// ATPG job.  Every search reads this flag directly.
  /// Not part of the journal fingerprint: a resumed run may pass a
  /// different pointer and still land on the bit-identical result.
  const std::atomic<bool>* stop = nullptr;
};

/// Per-fault outcome.
enum class FaultStatus : std::uint8_t {
  kDetected,
  kRedundant,  ///< Proven untestable (counts toward fault efficiency).
  kAborted,    ///< Search gave up within its limits.
  kUntried,    ///< Time budget exhausted before this fault was tried.
};

/// Everything the Table II columns need.
struct AtpgResult {
  /// The collapsed fault list targeted (representatives).
  std::vector<fault::Fault> faults;
  std::vector<FaultStatus> status;
  /// Generated tests, in generation order; the full test set is their
  /// concatenation.
  std::vector<sim::InputSequence> tests;
  long evaluations = 0;  ///< Deterministic work measure.
  long elapsed_ms = 0;   ///< Wall clock (#CPU column analogue).
  int threads_used = 1;  ///< Deterministic-phase workers actually used.
  /// True when the wall-clock budget or a cancel cut the run short
  /// (some faults committed kUntried without being searched).
  bool preempted = false;
  /// True when a checkpoint journal was replayed into this run.
  bool resumed = false;
  /// Non-fatal events of this run: checkpoint corruption/mismatch
  /// notes, journal I/O errors.  Never contains
  /// errors about the circuit itself (RunAtpg assumes a checked
  /// circuit).
  core::DiagnosticList diagnostics;

  int Count(FaultStatus wanted) const;
  /// %FC: detected / total.
  double FaultCoverage() const;
  /// %FE: (detected + redundant) / total.
  double FaultEfficiency() const;
  /// All test vectors back to back (the stream the paper fault
  /// simulates).
  sim::InputSequence ConcatenatedTests() const;
};

/// Runs the ATPG on a circuit.
AtpgResult RunAtpg(const netlist::Circuit& circuit,
                   const AtpgOptions& options = {});

}  // namespace retest::atpg
