// Shared pieces of the benchmark driver: the span recorder that splits
// a traced run across the repository's layers, circuit-pair
// preparation with a span around every public call, the op model the
// workloads share, and JSON helpers for the raw report run.py reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "netlist/circuit.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start);

// ---- Spans -----------------------------------------------------------

/// Records spans around the driver's calls into the repository's
/// layers.  Spans live in memory and are written once, at exit.  Only
/// the driver's own thread records (engine worker threads run inside a
/// span, never around one), so no locking is needed.
class Tracer {
 public:
  void Enable(bool on) { on_ = on; }
  bool enabled() const { return on_; }
  /// Every span opened until the next call belongs to op `op` (-1 for
  /// set-up and checks).
  void SetOp(int op) { op_ = op; }

  /// Runs `body` inside a span named `layer`.
  template <class Body>
  auto Span(const char* layer, Body&& body) {
    if (!on_) return body();
    const int id = Open(layer);
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() { tracer->Close(id); }
    } closer{this, id};
    return body();
  }

  /// Self time per layer (span duration minus the time its child spans
  /// cover), summed over all spans recorded so far.
  std::map<std::string, double> SelfMs() const;
  /// Drops recorded spans (keeps the enabled state).
  void Clear();
  /// Chrome trace_event JSON of every recorded span; false when the
  /// file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Record {
    const char* layer;
    double start_ms;
    double end_ms;
    double child_ms;
    int parent;
    int op;
  };
  int Open(const char* layer);
  void Close(int id);

  bool on_ = false;
  int op_ = -1;
  int open_ = -1;
  std::vector<Record> spans_;
};

/// The driver's one recorder.
Tracer& Trace();

// ---- Circuit pairs ---------------------------------------------------

/// An original circuit K and its min-period, register-minimized
/// retiming K', with what the Theorem-4 audit needs to relate them.
struct Pair {
  std::string name;
  retest::netlist::Circuit original;
  retest::retime::BuildResult build;
  retest::retime::Retiming retiming;
  retest::retime::ApplyResult applied;  ///< applied.circuit is K'.
  int prefix = 0;  ///< Theorem-4 prefix length.

  const retest::netlist::Circuit& retimed() const { return applied.circuit; }
};

/// Synthesizes Table II variant `index` (bench::Table2Variants order)
/// and retimes it the way the paper's experiments do.
Pair PrepareTable2Pair(int index);
/// Retimes an already-built circuit the same way.
Pair PrepareRetimedPair(retest::netlist::Circuit original);
/// Certifies `pair` with the independent certifier; returns "" or the
/// reason it is refused (or disagrees with the retiming's prefix).
std::string CertifyPair(const Pair& pair);

// ---- Ops -------------------------------------------------------------

/// The deterministic result of one op.
struct Outcome {
  long faults = 0;     ///< Collapsed faults targeted or simulated.
  long detected = 0;
  long redundant = 0;  ///< Proven untestable (ATPG ops only).
  /// Host-independent result fields, compared with the golden file.
  std::string golden;
  /// Every field that must repeat exactly on this host (golden plus
  /// lane-width-dependent work counts).
  std::string repeat;
  /// Set when the op itself failed (preempted, rejected, error).
  std::string error;
};

struct Op {
  std::string name;
  std::function<Outcome()> run;
};

/// Whole rounds one run measures: the `seconds` budget at the workload's
/// nominal round time, but at least enough rounds for `min_ops` ops.  The
/// count depends only on the arguments, so every run of a configuration
/// does the same fixed op set and its percentiles sit
/// at the same ranks; a faster program finishes sooner.
int RoundsFor(double seconds, double nominal_round_s, int ops_per_round,
              int min_ops);

/// An op problem found by the checks after the timed loop.
struct Finding {
  std::string op;
  std::string what;
};

// ---- Runs ------------------------------------------------------------

/// The set-up runs of one benchmark run.
struct Setups {
  std::vector<double> seconds;  ///< One entry per set-up run.
  /// Self time per layer, summed over the runs.
  std::map<std::string, double> layers_ms;
};

/// Runs `setup` until five runs or eight seconds of it, each inside a
/// "bench.setup" span, traced when `trace` is set.  The caller uses
/// the inputs of the last run; the report gives the median.
Setups RunSetups(bool trace, const std::function<void()>& setup);

/// The timed part of a run: whole rounds of the op set.
struct Phase {
  std::vector<double> round_s;
  std::vector<bool> round_traced;
  std::vector<double> op_ms;  ///< One per op, in run order.
  std::vector<std::string> op_names;
  /// Metrics snapshot (the daemon's STATS frame when served) around
  /// the rounds.
  std::string metrics_before;
  std::string metrics_after;
  /// Further per-op samples, by name.
  std::map<std::string, std::vector<double>> series;
};

/// What a workload run reports, whichever way it ran.
struct Run {
  Setups setups;
  Phase phase;
  /// The first outcome of every op name.
  std::map<std::string, Outcome> outcomes;
  std::vector<Finding> findings;
  std::map<std::string, double> layers_ms;  ///< Traced self time.
  int layer_rounds = 0;  ///< Rounds (or replays) layers_ms covers.
  long peak_rss_kb = 0;
};

/// The report's members for `run`.  An op named by a finding failed;
/// coverage sums the outcomes of the ops that did not.
std::string RunJson(const Run& run);

/// Appends `<workload> <op> <golden>` for every outcome to `path`,
/// except ops whose name starts with `skip_prefix` (when not empty).
void AppendGolden(const std::string& path, const std::string& workload,
                  const std::map<std::string, Outcome>& outcomes,
                  const std::string& skip_prefix = "");

/// `text` with `"id": N` and `"elapsed_ms": N` members removed: the two
/// fields of a served result that legitimately differ between runs.
std::string NormalizeResult(const std::string& text);

/// Pulls `"key": <integer>` (first occurrence at or after `from`).
long JsonLong(const std::string& json, const std::string& key,
              std::size_t from = 0);

std::string JsonEscape(const std::string& text);
/// JSON array of `values`, with all their digits.
std::string DoublesJson(const std::vector<double>& values);
/// JSON object of layer -> ms / `divisor`.
std::string LayersJson(const std::map<std::string, double>& layers,
                       double divisor);
/// JSON array of "op: what" strings.
std::string FindingsJson(const std::vector<Finding>& findings);

/// CRC-32 of a detection vector (flags and first-detection times).
std::uint32_t DetectionsCrc(const std::vector<bool>& detected,
                            const std::vector<int>& times);

/// The golden file: lines `<workload> <op> <golden>`.
std::map<std::string, std::string> ReadGolden(const std::string& path,
                                              const std::string& workload);

}  // namespace perfbench
