#include "retime/apply.h"

#include <functional>
#include <stdexcept>

#include "netlist/check.h"

namespace retest::retime {
namespace {

using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;
using netlist::kNoNode;

}  // namespace

ApplyResult ApplyRetiming(const Circuit& original, const BuildResult& build,
                          const Retiming& retiming, std::string name) {
  const Graph& graph = build.graph;
  if (!graph.IsLegal(retiming.lags)) {
    throw std::invalid_argument("ApplyRetiming: illegal retiming for '" +
                                original.name() + "'");
  }
  ApplyResult result;
  result.circuit.set_name(name.empty() ? original.name() + ".re" : name);
  Circuit& out = result.circuit;
  result.segments.resize(static_cast<size_t>(graph.num_edges()));

  // Phase 1: recreate every non-register node, fanins deferred.
  std::vector<NodeId> node_of_vertex(graph.vertices.size(), kNoNode);
  for (size_t v = 0; v < graph.vertices.size(); ++v) {
    const Vertex& vertex = graph.vertices[v];
    if (vertex.kind == VertexKind::kStem) continue;
    const netlist::Node& src = original.node(vertex.origin);
    node_of_vertex[v] = out.Add(src.kind, src.name);
  }

  // Phase 2: materialize each edge's register chain.  chain_end[e] is
  // the new-circuit node whose output the edge delivers to its sink.
  std::vector<NodeId> chain_end(static_cast<size_t>(graph.num_edges()),
                                kNoNode);
  // out_net(v): the node driving vertex v's output signal.
  std::function<NodeId(VertexId)> out_net;
  std::function<NodeId(int)> build_chain;

  out_net = [&](VertexId v) -> NodeId {
    if (node_of_vertex[static_cast<size_t>(v)] != kNoNode) {
      return node_of_vertex[static_cast<size_t>(v)];
    }
    // Stem: its signal is the end of its single in-edge's chain.
    const auto& incoming = graph.in_edges[static_cast<size_t>(v)];
    if (incoming.size() != 1) {
      throw std::logic_error("ApplyRetiming: stem with in-degree != 1");
    }
    return build_chain(incoming.front());
  };

  build_chain = [&](int e) -> NodeId {
    NodeId& cached = chain_end[static_cast<size_t>(e)];
    if (cached != kNoNode) return cached;
    const Edge& edge = graph.edges[static_cast<size_t>(e)];
    const int weight = graph.RetimedWeight(e, retiming.lags);
    NodeId net = out_net(edge.from);
    auto& segs = result.segments[static_cast<size_t>(e)];
    segs.assign(static_cast<size_t>(weight) + 1, {});

    const bool from_stem =
        graph.vertices[static_cast<size_t>(edge.from)].kind ==
        VertexKind::kStem;
    const bool to_stem = graph.vertices[static_cast<size_t>(edge.to)].kind ==
                         VertexKind::kStem;
    if (weight == 0 && from_stem && to_stem) {
      // The branch would vanish into the upstream fanout; keep the line
      // explicit with a buffer.  Its input branch and output stem are
      // the same graph line.
      const NodeId buf =
          out.Add(NodeKind::kBuf, out.FreshName("stembuf"), {net});
      segs[0].push_back({buf, 0});
      segs[0].push_back({buf, -1});
      cached = buf;
      return cached;
    }

    // Appending rather than `"r" + std::to_string(e)`: GCC 12 at -O3
    // reports a false -Wrestrict on the inlined concatenation.
    std::string dff_base = "r";
    dff_base += std::to_string(e);
    for (int k = 1; k <= weight; ++k) {
      const NodeId dff =
          out.Add(NodeKind::kDff, out.FreshName(dff_base), {net});
      if (k == 1 && from_stem) {
        segs[0].push_back({dff, 0});  // branch read by the first DFF
      }
      segs[static_cast<size_t>(k)].push_back({dff, -1});
      net = dff;
    }
    if (!from_stem) {
      segs[0].push_back({out_net(edge.from), -1});
    } else if (weight == 0) {
      // Branch read directly by the sink node (filled during phase 3,
      // when the sink pin is known).
      segs[0].push_back(
          {node_of_vertex[static_cast<size_t>(edge.to)], edge.sink_pin});
    }
    cached = net;
    return cached;
  };

  for (int e = 0; e < graph.num_edges(); ++e) build_chain(e);

  // Phase 3: wire gate and PO fanins in pin order.
  for (size_t v = 0; v < graph.vertices.size(); ++v) {
    const Vertex& vertex = graph.vertices[v];
    if (vertex.kind == VertexKind::kStem) continue;
    const auto& incoming = graph.in_edges[v];
    const size_t arity = original.node(vertex.origin).fanin.size();
    if (incoming.size() != arity) {
      throw std::logic_error("ApplyRetiming: arity mismatch at '" +
                             vertex.name + "'");
    }
    std::vector<NodeId> by_pin(arity, kNoNode);
    for (int e : incoming) {
      const Edge& edge = graph.edges[static_cast<size_t>(e)];
      if (edge.sink_pin < 0 || edge.sink_pin >= static_cast<int>(arity) ||
          by_pin[static_cast<size_t>(edge.sink_pin)] != kNoNode) {
        throw std::logic_error("ApplyRetiming: bad sink pin at '" +
                               vertex.name + "'");
      }
      by_pin[static_cast<size_t>(edge.sink_pin)] =
          chain_end[static_cast<size_t>(e)];
    }
    for (NodeId driver : by_pin) {
      out.AddPin(node_of_vertex[v], driver);
    }
  }

  netlist::CheckOrThrow(out);
  return result;
}

}  // namespace retest::retime
