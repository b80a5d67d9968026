// SCOAP testability measures (Goldstein 1979), combinational and
// sequential, computed statically from the netlist.
//
// Controllability CC0/CC1 counts how many line assignments are needed
// to force a net to 0/1; observability CO counts the assignments
// needed to propagate the net to a primary output.  The sequential
// counterparts SC0/SC1/SO count *time frames* instead: every DFF
// crossed adds one frame.  They are estimates only: across the Table II
// pairs the sequential-cost ratio does not rank with the measured ATPG
// time ratio (see docs/ANALYSIS.md, which also gives the transfer rules
// and the fixed-point treatment of register feedback loops).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.h"

namespace retest::analyze {

/// Saturation value for unachievable measures: a net that no input
/// assignment can set (or no output can observe) holds kScoapInf.
inline constexpr std::int64_t kScoapInf =
    std::int64_t{1} << 40;  // survives summation without overflow

/// The six measures of one net (the output line of one node).
struct ScoapValues {
  std::int64_t cc0 = kScoapInf;  ///< Combinational 0-controllability.
  std::int64_t cc1 = kScoapInf;  ///< Combinational 1-controllability.
  std::int64_t co = kScoapInf;   ///< Combinational observability.
  std::int64_t sc0 = kScoapInf;  ///< Sequential 0-controllability (frames).
  std::int64_t sc1 = kScoapInf;  ///< Sequential 1-controllability (frames).
  std::int64_t so = kScoapInf;   ///< Sequential observability (frames).
};

/// Per-net SCOAP values for a whole circuit, indexed by NodeId.
struct ScoapResult {
  std::vector<ScoapValues> nets;
  /// Fixed-point sweeps until convergence (>= 1; grows with the depth
  /// of register feedback).
  int iterations = 0;

  const ScoapValues& of(netlist::NodeId id) const {
    return nets[static_cast<size_t>(id)];
  }
};

/// Circuit-level summary: the aggregates `repro_lint --scoap` prints.
/// Means/maxima are taken over nets with finite values; infinite nets
/// are counted separately (they are exactly the structurally untestable
/// lines the lint passes flag).
struct ScoapSummary {
  int num_nets = 0;
  int uncontrollable_nets = 0;  ///< cc0 or cc1 (hence sc) infinite.
  int unobservable_nets = 0;    ///< co (hence so) infinite.
  double mean_cc = 0, max_cc = 0;  ///< Over finite max(cc0, cc1).
  double mean_co = 0, max_co = 0;
  double mean_sc = 0, max_sc = 0;  ///< Over finite max(sc0, sc1).
  double mean_so = 0, max_so = 0;
  /// Total sequential testability cost: sum of sc0 + sc1 + so over
  /// finite nets.
  double sequential_cost = 0;

  /// Renders the summary as a JSON object.
  std::string ToJson() const;
};

/// Computes all six measures for every net by forward (controllability)
/// and backward (observability) fixed-point sweeps over the levelized
/// netlist.  Requires netlist::Check to pass.
ScoapResult ComputeScoap(const netlist::Circuit& circuit);

/// Aggregates a result into the circuit-level summary.
ScoapSummary Summarize(const ScoapResult& result);

}  // namespace retest::analyze
