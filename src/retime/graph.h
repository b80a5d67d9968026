// Leiserson–Saxe retiming graph.
//
// Vertices are primary inputs, primary outputs, combinational gates and
// explicit *fanout stem* points; edge weights count the DFFs along each
// interconnection (paper Section III).  Stems are first-class vertices
// so that "registers shared before a fanout" versus "per-branch
// registers" is structural, which is what makes forward/backward moves
// across stems observable (Fig. 1(b)).
#pragma once

#include <string>
#include <vector>

#include "fault/fault.h"
#include "netlist/circuit.h"

namespace retest::retime {

/// Vertex index within a Graph.
using VertexId = int;

/// The role of a retiming-graph vertex.
enum class VertexKind : std::uint8_t {
  kPi,    ///< Primary input (lag pinned to 0).
  kPo,    ///< Primary output pin (lag pinned to 0).
  kGate,  ///< Single-output combinational gate.
  kStem,  ///< Fanout stem (zero delay, one in-edge, >= 2 out-edges).
};

/// One retiming-graph vertex.
struct Vertex {
  VertexKind kind = VertexKind::kGate;
  /// For kPi/kPo/kGate: the node in the source netlist.  kNoNode for
  /// stems (they are implicit fanout points of a net).
  netlist::NodeId origin = netlist::kNoNode;
  /// Propagation delay d(v) >= 0 (stems and I/O pins have 0).
  int delay = 0;
  /// Diagnostic name.
  std::string name;
};

/// One edge u -> v with w(e) registers on it.
struct Edge {
  VertexId from = -1;
  VertexId to = -1;
  /// Number of DFFs along the interconnection.
  int weight = 0;
  /// For edges whose sink is a kGate/kPo vertex: which fanin pin of the
  /// sink node this edge feeds.  -1 for stem sinks.
  int sink_pin = -1;
  /// Fault sites of the w+1 line segments of this edge, in the
  /// *source* netlist, ordered from `from` to `to` (paper Fig. 4).
  std::vector<fault::Site> segments;
};

/// How gate delays d(v) are assigned.
enum class DelayModel {
  kUnit,        ///< Every gate has delay 1.
  kFaninCount,  ///< Delay equals the number of fanins (paper Fig. 2).
};

/// The retiming graph.  Built from a netlist by BuildGraph().
struct Graph {
  std::vector<Vertex> vertices;
  std::vector<Edge> edges;
  /// Outgoing/incoming edge indices per vertex.
  std::vector<std::vector<int>> out_edges;
  std::vector<std::vector<int>> in_edges;

  int num_vertices() const { return static_cast<int>(vertices.size()); }
  int num_edges() const { return static_cast<int>(edges.size()); }

  /// Appends a vertex and returns its id.
  VertexId AddVertex(Vertex vertex);
  /// Appends an edge and returns its index; maintains adjacency.
  int AddEdge(Edge edge);

  /// Total number of registers: the sum of edge weights.  Register
  /// sharing before a fanout is already structural (stem in-edges).
  long TotalRegisters() const;

  /// True when lags r are legal for this graph: retimed weights
  /// w(e) + r(to) - r(from) are all non-negative and I/O lags are 0.
  bool IsLegal(const std::vector<int>& lags) const;

  /// Retimed weight of edge `index` under lags r.
  int RetimedWeight(int index, const std::vector<int>& lags) const;

  /// Arrival times Delta(v): the longest combinational delay of a path
  /// ending at v (inclusive of d(v)) over edges whose `lags`-retimed
  /// weight is zero (pass empty lags for the as-built weights).
  /// Returns false when that zero-weight subgraph has a cycle, which no
  /// synchronous circuit has; `arrival` is then incomplete.
  bool Arrival(const std::vector<int>& lags, std::vector<int>& arrival) const;

  /// Clock period: the maximum pure-combinational path delay when edge
  /// weights are taken as `lags`-retimed (pass empty lags for the
  /// as-built weights).
  int ClockPeriod(const std::vector<int>& lags = {}) const;
};

/// A retiming: per-vertex lags.  r(v) > 0 means v was moved backward
/// r(v) times (registers moved from its outputs to its inputs);
/// r(v) < 0 means -r(v) forward moves.
struct Retiming {
  std::vector<int> lags;
};

}  // namespace retest::retime
