#include "retime/leiserson_saxe.h"

#include <algorithm>
#include <climits>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "core/metrics.h"

namespace retest::retime {
namespace {

/// True for the vertices FEAS never moves: an I/O pin, or a dangling
/// vertex with no registers to move across.  Their lags stay 0.
bool Pinned(const Graph& graph, size_t v) {
  const VertexKind kind = graph.vertices[v].kind;
  return kind == VertexKind::kPi || kind == VertexKind::kPo ||
         graph.out_edges[v].empty() || graph.in_edges[v].empty();
}

/// The fewest registers on any path from each vertex to a pinned
/// vertex (a PO or a sink): a Dijkstra from the pinned vertices over
/// in-edges, with the as-built edge weights as lengths.  INT_MAX where
/// no pinned vertex is reachable.
std::vector<int> LagBounds(const Graph& graph) {
  const size_t n = graph.vertices.size();
  std::vector<int> bound(n, INT_MAX);
  using Entry = std::pair<int, VertexId>;  // (registers, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  for (size_t v = 0; v < n; ++v) {
    if (Pinned(graph, v)) {
      bound[v] = 0;
      queue.emplace(0, static_cast<VertexId>(v));
    }
  }
  while (!queue.empty()) {
    const auto [dist, v] = queue.top();
    queue.pop();
    if (dist > bound[static_cast<size_t>(v)]) continue;
    for (int e : graph.in_edges[static_cast<size_t>(v)]) {
      const Edge& edge = graph.edges[static_cast<size_t>(e)];
      const int via = dist + edge.weight;
      if (via < bound[static_cast<size_t>(edge.from)]) {
        bound[static_cast<size_t>(edge.from)] = via;
        queue.emplace(via, edge.from);
      }
    }
  }
  return bound;
}

/// FEAS with the early exit against `bound` (see Feasible()).
std::optional<Retiming> Feas(const Graph& graph, int phi,
                             const std::vector<int>& bound) {
  RETEST_COUNTER_ADD("retime.feas.calls", "calls", "retime",
                     "FEAS feasibility tests of one clock period", 1);
  const size_t n = graph.vertices.size();
  std::vector<int> lags(n, 0);
  std::vector<int> arrival;
  // FEAS: at most |V| - 1 relaxation passes.
  for (int pass = 0; pass < graph.num_vertices() - 1; ++pass) {
    RETEST_COUNTER_ADD("retime.feas.passes", "passes", "retime",
                       "FEAS relaxation passes (one arrival DP each)", 1);
    if (!graph.Arrival(lags, arrival)) return std::nullopt;
    bool changed = false;
    for (size_t v = 0; v < n; ++v) {
      // A path ending at a pinned vertex that is too long can only be
      // shortened by retiming its predecessors, which FEAS attempts on
      // later passes.
      if (arrival[v] <= phi || Pinned(graph, v)) continue;
      // Lags never decrease, so past the bound the final legality
      // check is bound to fail.
      if (++lags[v] > bound[v]) return std::nullopt;
      changed = true;
    }
    if (!changed) break;
  }
  if (!graph.Arrival(lags, arrival)) return std::nullopt;
  for (size_t v = 0; v < n; ++v) {
    if (arrival[v] > phi) return std::nullopt;
  }
  if (!graph.IsLegal(lags)) return std::nullopt;
  return Retiming{std::move(lags)};
}

}  // namespace

std::optional<Retiming> Feasible(const Graph& graph, int phi) {
  return Feas(graph, phi, LagBounds(graph));
}

MinPeriodResult MinimizePeriod(const Graph& graph) {
  MinPeriodResult result;
  result.original_period = graph.ClockPeriod();

  int lo = 0;
  for (const Vertex& vertex : graph.vertices) lo = std::max(lo, vertex.delay);
  int hi = result.original_period;
  const std::vector<int> bound = LagBounds(graph);
  std::optional<Retiming> best = Feas(graph, hi, bound);
  if (!best) {
    // The as-built weights achieve `hi`, so this cannot happen.
    throw std::runtime_error("MinimizePeriod: original period infeasible");
  }
  int best_phi = hi;
  while (lo < best_phi) {
    const int mid = lo + (best_phi - lo) / 2;
    if (auto r = Feas(graph, mid, bound)) {
      best = std::move(r);
      best_phi = mid;
    } else {
      lo = mid + 1;
    }
  }
  result.retiming = std::move(*best);
  result.period = graph.ClockPeriod(result.retiming.lags);
  return result;
}

}  // namespace retest::retime
