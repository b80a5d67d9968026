// Shared harness for the paper-reproduction benches: the sixteen
// Table II circuit variants, the synthesis + performance-retiming
// pipeline that produces each original/retimed pair, and budget knobs.
//
// Budgets scale with REPRO_FULL=1 (x10) for closer-to-paper runs; the
// defaults keep the whole bench suite runnable in minutes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "atpg/engine.h"
#include "core/json.h"
#include "netlist/circuit.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/graph.h"
#include "retime/moves.h"
#include "synth/synthesize.h"

namespace retest::bench {

/// One Table II row: which FSM, encoding and script produced it.
///
/// Note on prefixes: the paper's pma.jo.sd / s510.jc.sd / scf.jo.sd
/// retimings contained one forward move (prefix length 1); our
/// register-minimal retimings of the stand-in netlists happen to be
/// realizable with backward moves only (prefix 0 on every row, like
/// the paper's other 13 rows).  The prefix machinery itself is
/// exercised by the fig1/fig3/fig5 benches, the prefix ablation and
/// the Theorem-4 property tests.
struct Variant {
  const char* fsm;
  synth::EncodingStyle encoding;
  synth::ScriptStyle script;
};

/// The sixteen circuit variants of Tables II/III, in paper order.
const std::vector<Variant>& Table2Variants();

/// An original/retimed circuit pair prepared the way the paper's
/// experiments need it: synthesize, then min-period retiming (FEAS)
/// with a register-minimization post-pass subject to the achieved
/// period.
struct Prepared {
  netlist::Circuit original;
  netlist::Circuit retimed;
  retime::BuildResult build;      ///< Graph of the original.
  retime::Retiming retiming;      ///< original -> retimed lags.
  retime::MoveCounts moves;
  int period_before = 0;
  int period_after = 0;
};

/// The synthesized original circuit of `variant` (its FSM, encoding,
/// script and the FSM's explicit-reset flag).
netlist::Circuit SynthesizeVariant(const Variant& variant);

Prepared PrepareVariant(const Variant& variant);

/// The rows of a Table II/III sweep, in paper order up to the first
/// failing pair, and that failure as "<fsm>: <what>" ("" when none).
template <typename Row>
struct PairSweep {
  std::vector<Row> rows;
  std::string error;
};

/// Runs `measure(i)` for every Table II variant index as the items of
/// one core::ParallelFor, each item catching its own
/// exception.  Returns how many leading variants succeeded and sets
/// `error` from the first one that threw.
std::size_t RunPairs(const std::function<void(std::size_t)>& measure,
                     std::string& error);

/// `measure(variant)` for the sixteen Table II variants, run
/// concurrently.  Like a sequential loop, the first failing pair ends
/// the table there: later rows are dropped, and the JSON keeps its
/// "finished rows + error" shape.
template <typename Measure>
auto SweepPairs(Measure measure) {
  using Row = std::invoke_result_t<Measure&, const Variant&>;
  const std::vector<Variant>& variants = Table2Variants();
  PairSweep<Row> sweep;
  sweep.rows.resize(variants.size());
  sweep.rows.resize(RunPairs(
      [&](std::size_t i) { sweep.rows[i] = measure(variants[i]); },
      sweep.error));
  return sweep;
}

/// Exit codes shared by the bench drivers (see docs/ROBUSTNESS.md).
/// On 2 and 3 the driver still flushes whatever JSON it finished,
/// with an "error" field describing the failure.
enum : int {
  kExitOk = 0,
  kExitMismatch = 1,          ///< perf driver cross-check failed
  kExitFatal = 2,             ///< failure before any row completed
  kExitPartial = 3,           ///< failure mid-run; JSON holds finished rows
  kExitJsonWriteFailure = 4,  ///< rows computed but output file unwritable
};

/// The exit code of a driver that wrote (`wrote`) its JSON with or
/// without rows and with `error` ("" on success): 4, then 2 or 3, then
/// 0.  A perf driver maps its cross-check verdict to 1 only when this
/// returns 0 -- an incomplete report certifies nothing.
int ExitCode(bool wrote, bool any_rows, const std::string& error);

/// Writes `file` (a BENCH_*.json) in the current directory with the
/// shared head -- "mode" ("smoke", "default" or "full", from `smoke`
/// and FullMode()), "host" {"nproc", "isa"} and "error" when `error`
/// is non-empty -- then the driver's own keys from `fields`, each
/// written as `  "key": value,\n`, and the cumulative "metrics"
/// snapshot last (docs/METRICS.md).  Prints "wrote <file>" on success;
/// prints "cannot write <file>" and returns false when the file cannot
/// be opened or written.
bool WriteBenchJson(const char* file, bool smoke, const std::string& error,
                    const std::function<void(std::FILE*)>& fields);

/// Best-of-`reps` wall time of `fn` in milliseconds (steady clock).
double TimeMs(const std::function<void()>& fn, int reps);

/// A deterministic binary input sequence of `length` vectors for
/// `circuit`, drawn from a 64-bit LCG seeded with `seed`.
sim::InputSequence RandomSequence(const netlist::Circuit& circuit, int length,
                                  std::uint64_t seed);

/// The one JSON string escape (core/json.h), also reached as
/// bench::JsonEscape by perfbench.
using core::JsonEscape;

/// The host's vector extensions, for the BENCH_*.json host records; the
/// engines are built for the baseline ISA whatever the host offers.
std::string HostIsa();

/// Checkpoint journal path for `circuit_name` under the
/// REPRO_CHECKPOINT_DIR environment directory, or "" when the variable
/// is unset (checkpointing off).
std::string CheckpointPathFor(const std::string& circuit_name);

/// True when REPRO_FULL=1 is set (longer, closer-to-paper budgets).
bool FullMode();

/// Milliseconds scaled by FullMode (x10).  The REPRO_ATPG_BUDGET_MS
/// environment variable, when set to a positive integer, overrides
/// both with that absolute value — raised far enough that the budget
/// never binds, an ATPG run becomes fully deterministic (the
/// per-fault search limits are the only remaining stops), which the
/// sweep-equivalence gate depends on.
long BudgetMs(long base_ms);

/// The ATPG configuration used for Table II: deterministic
/// HITEC-style justification search (no random phase, no learned
/// state), which is the architecture whose cost the paper measures.
/// Each run keeps an exact justification memo: a repeated (fault,
/// state cube) request, or a cube that a register-blind fault asks
/// for again, reuses the recorded result and charges its recorded
/// evaluations, so results and evaluations are those of the searches
/// it stands in for, at any thread count (atpg/parallel_driver.h).
atpg::AtpgOptions Table2AtpgOptions(long budget_ms);

/// Fast high-coverage configuration used to *generate* test sets for
/// Table III / Fig. 6 (random phase + forward-ILA deterministic).
atpg::AtpgOptions TestSetAtpgOptions(long budget_ms);

}  // namespace retest::bench
