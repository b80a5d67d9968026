// Structural sweep: netlist equivalence-class analysis.
//
// A static pass over netlist::Circuit that proves, once, facts every
// engine otherwise re-derives frame after frame:
//
//   * structural hash classes ("strash"): gates with the same kind and
//     the same (canonically ordered) fanin classes compute the same
//     value in every frame.  DFFs with equivalent data drivers merge
//     too (both power up X and latch equal values ever after), and the
//     class assignment is iterated to a fixpoint because DFF merges
//     can enable further combinational merges and vice versa.
//   * constant propagation: ternary evaluation from tied kConst0/
//     kConst1 sources with gate simplification (dominant values,
//     neutral-input dropping, single-survivor alias detection).  A
//     node is marked constant only when its value is the same for
//     EVERY assignment of the non-constant sources — in particular it
//     holds in frame 0 when all DFFs are still X, so the fact is safe
//     for bit-identical simulation.  Constants are deliberately NOT
//     propagated through DFFs: a DFF fed by a constant is X in frame 0
//     and only settles later, which is exactly the distinction the
//     paper's all-X power-up model cares about.
//   * dead logic: nodes with no forward path — through any number of
//     register crossings — to a primary output.  This subsumes the
//     weaker "no path to any PO or register" criterion: logic that
//     only feeds registers which themselves never reach a PO is dead
//     as well.  Dead values can never influence a detection.
//
// The pass produces a SweepReport (per-node class representative,
// constant value, dead flag, per-rule counts) and, via
// BuildSweptNetlist, a reduced circuit plus a TOTAL old->new node map:
// every original node either maps to the swept node carrying its value
// in every frame, or to netlist::kNoNode when the value is still fully
// known without one — the class is dead (never read by live logic), or
// it is a proven constant folded into every consumer, in which case
// SweepReport::const_of records the value.  Primary inputs and outputs
// are always preserved, in order, so input vectors and PO responses
// keep their shape.
//
// The sweep is an analysis reported by `repro_lint --sweep`
// (docs/ANALYSIS.md); no engine consumes it.  Its facts hold for the
// GOOD machine only: a fault breaks the structural-equivalence premise
// (the fault site may feed one class member's cone and not another's).
// VerifySweep is the determinism gate: it re-simulates original and
// swept side by side over ternary stimuli and insists every mapped
// node agrees exactly, X included.
#pragma once

#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "sim/logic3.h"

namespace retest::analyze {

/// Which rule families AnalyzeSweep applies.
struct SweepOptions {
  bool strash = true;      ///< Structural hash classes + DFF merging.
  bool const_prop = true;  ///< Ternary constant propagation.
  bool dead_logic = true;  ///< Backward reachability from the POs.
};

/// The analysis result: one entry per original node throughout.
struct SweepReport {
  /// Class representative (the first member in (level, id) order; for
  /// constant classes, the first constant-valued node).  Invariant:
  /// class_of[class_of[n]] == class_of[n].
  std::vector<netlist::NodeId> class_of;
  /// Proven constant value of the node's net, kX when not constant.
  std::vector<sim::V3> const_of;
  /// True when the node has no forward path to any primary output.
  std::vector<char> dead;

  int num_classes = 0;     ///< Distinct equivalence classes.
  int merged_gates = 0;    ///< Non-representative, non-constant members.
  int constant_gates = 0;  ///< Gates proven constant (sources excluded).
  int dead_nodes = 0;      ///< Dead nodes, PIs/POs excluded.
  int rule_strash = 0;     ///< Merges by signature match.
  int rule_alias = 0;      ///< Merges by single-survivor identity.
  int rule_const = 0;      ///< Constant folds (gates only).
  int rule_dff = 0;        ///< DFFs merged into an earlier DFF.
  int iterations = 0;      ///< Fixpoint rounds (>= 1).
  double analyze_ms = 0;   ///< Wall time of the analysis.

  bool IsConst(netlist::NodeId id) const {
    return const_of[static_cast<size_t>(id)] != sim::V3::kX;
  }
  bool IsDead(netlist::NodeId id) const {
    return dead[static_cast<size_t>(id)] != 0;
  }
};

/// Runs the analysis (no netlist surgery).  Records sweep.* metrics.
SweepReport AnalyzeSweep(const netlist::Circuit& circuit,
                         const SweepOptions& options = {});

/// A reduced circuit plus the total node map back to the original.
struct SweptNetlist {
  netlist::Circuit circuit;
  /// For every original node: the swept node whose net carries the
  /// same value in every frame, or kNoNode when no swept node is
  /// needed — the node's class is dead, or it is a proven constant
  /// folded into every consumer (report.const_of holds its value).
  /// PIs and POs always map, in order.
  std::vector<netlist::NodeId> node_map;
  SweepReport report;
};

/// Analyzes and reduces: one node per live class (constants collapse
/// to at most one kConst0 and one kConst1 source), neutral constant
/// fanins dropped, duplicate AND/OR-family fanins deduplicated, dead
/// classes removed.  Node names are inherited from representatives.
SweptNetlist BuildSweptNetlist(const netlist::Circuit& circuit,
                               const SweepOptions& options = {});

/// Outcome of the simulation cross-check.
struct SweepVerdict {
  bool ok = true;
  std::string detail;  ///< First disagreement, empty when ok.
};

/// The determinism gate: simulates original and swept circuits side by
/// side over deterministic ternary stimuli (binary and X-laden) and
/// checks that every PO and every mapped node agrees exactly in every
/// frame.  Interface shape (PI/PO names and order) is checked first.
SweepVerdict VerifySweep(const netlist::Circuit& original,
                         const SweptNetlist& swept);

}  // namespace retest::analyze
