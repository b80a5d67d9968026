#include "retime/graph.h"

#include <algorithm>
#include <stdexcept>

namespace retest::retime {

VertexId Graph::AddVertex(Vertex vertex) {
  const VertexId id = static_cast<VertexId>(vertices.size());
  vertices.push_back(std::move(vertex));
  out_edges.emplace_back();
  in_edges.emplace_back();
  return id;
}

int Graph::AddEdge(Edge edge) {
  const int index = static_cast<int>(edges.size());
  out_edges[static_cast<size_t>(edge.from)].push_back(index);
  in_edges[static_cast<size_t>(edge.to)].push_back(index);
  edges.push_back(std::move(edge));
  return index;
}

long Graph::TotalRegisters() const {
  long total = 0;
  for (const Edge& edge : edges) total += edge.weight;
  return total;
}

int Graph::RetimedWeight(int index, const std::vector<int>& lags) const {
  const Edge& edge = edges[static_cast<size_t>(index)];
  if (lags.empty()) return edge.weight;
  return edge.weight + lags[static_cast<size_t>(edge.to)] -
         lags[static_cast<size_t>(edge.from)];
}

bool Graph::IsLegal(const std::vector<int>& lags) const {
  if (lags.size() != vertices.size()) return false;
  for (size_t v = 0; v < vertices.size(); ++v) {
    const VertexKind kind = vertices[v].kind;
    if ((kind == VertexKind::kPi || kind == VertexKind::kPo) && lags[v] != 0) {
      return false;
    }
    // A vertex with no out-edges (dangling gate) or no in-edges has no
    // registers to move across: a nonzero lag would fabricate or
    // destroy registers vacuously.
    if (lags[v] != 0 && (out_edges[v].empty() || in_edges[v].empty())) {
      return false;
    }
  }
  for (int e = 0; e < num_edges(); ++e) {
    if (RetimedWeight(e, lags) < 0) return false;
  }
  return true;
}

bool Graph::Arrival(const std::vector<int>& lags,
                    std::vector<int>& arrival) const {
  // Longest-path DP in topological order over the zero-weight subgraph
  // (acyclic in a legal synchronous circuit: every cycle carries a
  // register).
  const size_t n = vertices.size();
  arrival.assign(n, 0);
  std::vector<int> pending(n, 0);
  for (int e = 0; e < num_edges(); ++e) {
    if (RetimedWeight(e, lags) == 0) {
      ++pending[static_cast<size_t>(edges[static_cast<size_t>(e)].to)];
    }
  }
  std::vector<VertexId> ready;
  for (size_t v = 0; v < n; ++v) {
    if (pending[v] == 0) {
      ready.push_back(static_cast<VertexId>(v));
      arrival[v] = vertices[v].delay;
    }
  }
  size_t processed = 0;
  while (!ready.empty()) {
    const VertexId v = ready.back();
    ready.pop_back();
    ++processed;
    for (int e : out_edges[static_cast<size_t>(v)]) {
      if (RetimedWeight(e, lags) != 0) continue;
      const VertexId to = edges[static_cast<size_t>(e)].to;
      arrival[static_cast<size_t>(to)] =
          std::max(arrival[static_cast<size_t>(to)],
                   arrival[static_cast<size_t>(v)] +
                       vertices[static_cast<size_t>(to)].delay);
      if (--pending[static_cast<size_t>(to)] == 0) ready.push_back(to);
    }
  }
  return processed == n;
}

int Graph::ClockPeriod(const std::vector<int>& lags) const {
  std::vector<int> arrival;
  if (!Arrival(lags, arrival)) {
    throw std::runtime_error(
        "ClockPeriod: zero-weight cycle (illegal synchronous circuit)");
  }
  int period = 0;
  for (int a : arrival) period = std::max(period, a);
  return period;
}

}  // namespace retest::retime
