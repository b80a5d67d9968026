// Leiserson-Saxe minimum-period retiming.
#pragma once

#include <optional>

#include "retime/graph.h"

namespace retest::retime {

/// Result of min-period retiming.
struct MinPeriodResult {
  Retiming retiming;      ///< Legal lags achieving `period`.
  int period = 0;         ///< Achieved clock period.
  int original_period = 0;
};

/// Tests whether clock period `phi` is achievable by retiming (with
/// PI/PO lags pinned to 0) using the FEAS relaxation.  Returns the lags
/// on success.
///
/// FEAS only ever raises lags, and a legal retiming needs
/// r(v) <= w(p) on every path p from v to a vertex whose lag stays 0
/// (a PO, or a sink).  So the relaxation stops with nullopt as soon as
/// a lag exceeds the fewest registers on any such path, instead of
/// running out its |V| - 1 passes: the final legality check would
/// reject the lags anyway.  The result is the same as without the
/// early exit; infeasible periods just cost a few passes.
std::optional<Retiming> Feasible(const Graph& graph, int phi);

/// Finds the minimum achievable clock period by binary search over
/// integer periods, and returns a retiming realizing it.  The path
/// register bounds of the early exit are computed once per call.  The returned
/// lags are the FEAS fixed point: all lags are >= 0 (backward moves
/// only).
MinPeriodResult MinimizePeriod(const Graph& graph);

}  // namespace retest::retime
