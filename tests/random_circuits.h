// Deterministic random circuit / retiming generators for property
// tests.  Circuits are acyclic-by-construction (gates only reference
// earlier nets), every DFF output is consumed (so the retiming-graph
// builder accepts them), and DFF inputs close the feedback loops.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/builder.h"
#include "netlist/check.h"
#include "retime/graph.h"

namespace retest::testing {

struct TestRng {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int Below(int bound) {
    return static_cast<int>(Next() % static_cast<std::uint64_t>(bound));
  }
  bool Bit() { return Next() & 1; }
};

/// `prefix` followed by `index`.  Built by appending: GCC 12 reports a
/// false -Wrestrict on the inlined `"x" + std::to_string(i)` at -O2+.
inline std::string IndexedName(const char* prefix, int index) {
  std::string name = prefix;
  name += std::to_string(index);
  return name;
}

struct RandomCircuitOptions {
  int num_inputs = 3;
  int num_dffs = 3;
  int num_gates = 10;
};

inline netlist::Circuit MakeRandomCircuit(std::uint64_t seed,
                                          const RandomCircuitOptions& options =
                                              {}) {
  TestRng rng{seed * 0x9e3779b97f4a7c15ull + 0x1234567};
  netlist::Builder builder("rand" + std::to_string(seed));
  std::vector<std::string> nets;
  for (int i = 0; i < options.num_inputs; ++i) {
    const std::string name = IndexedName("x", i);
    builder.Input(name);
    nets.push_back(name);
  }
  std::vector<std::string> dffs;
  for (int i = 0; i < options.num_dffs; ++i) {
    const std::string name = IndexedName("q", i);
    builder.Dff(name);
    nets.push_back(name);
    dffs.push_back(name);
  }
  std::vector<std::string> gate_nets;
  for (int i = 0; i < options.num_gates; ++i) {
    const std::string name = IndexedName("g", i);
    auto pick = [&] { return nets[static_cast<size_t>(rng.Below(
                          static_cast<int>(nets.size())))]; };
    // The first num_dffs gates each consume one DFF output so no
    // register dangles.
    const std::string first =
        i < options.num_dffs ? dffs[static_cast<size_t>(i)] : pick();
    switch (rng.Below(6)) {
      case 0: builder.And(name, {first, pick()}); break;
      case 1: builder.Or(name, {first, pick()}); break;
      case 2: builder.Nand(name, {first, pick()}); break;
      case 3: builder.Nor(name, {first, pick()}); break;
      case 4: builder.Xor(name, {first, pick()}); break;
      default: builder.Not(name, first); break;
    }
    nets.push_back(name);
    gate_nets.push_back(name);
  }
  for (const std::string& q : dffs) {
    builder.SetDffInput(
        q, gate_nets[static_cast<size_t>(
               rng.Below(static_cast<int>(gate_nets.size())))]);
  }
  builder.Output("z0", gate_nets.back());
  builder.Output("z1", gate_nets[gate_nets.size() / 2]);
  netlist::Circuit circuit = builder.Build();
  // Expose every dangling gate as an extra PO so all logic is
  // observable and the retiming graph has no sink-less gates.
  int extra = 2;
  for (netlist::NodeId id = 0; id < circuit.size(); ++id) {
    if (netlist::IsGate(circuit.node(id).kind) &&
        circuit.node(id).fanout.empty()) {
      circuit.Add(netlist::NodeKind::kOutput, IndexedName("z", extra++),
                  {id});
    }
  }
  netlist::CheckOrThrow(circuit);
  return circuit;
}

/// A random *legal* retiming: a random walk of single-vertex moves,
/// each applied only if edge weights stay non-negative.  Produces both
/// forward and backward moves.
inline retime::Retiming MakeRandomRetiming(const retime::Graph& graph,
                                           std::uint64_t seed, int moves = 12) {
  TestRng rng{seed ^ 0xabcdef12345ull};
  retime::Retiming retiming;
  retiming.lags.assign(static_cast<size_t>(graph.num_vertices()), 0);
  for (int m = 0; m < moves; ++m) {
    const int v = rng.Below(graph.num_vertices());
    const auto kind = graph.vertices[static_cast<size_t>(v)].kind;
    if (kind == retime::VertexKind::kPi || kind == retime::VertexKind::kPo) {
      continue;
    }
    const int direction = rng.Bit() ? 1 : -1;
    retiming.lags[static_cast<size_t>(v)] += direction;
    if (!graph.IsLegal(retiming.lags)) {
      retiming.lags[static_cast<size_t>(v)] -= direction;
    }
  }
  return retiming;
}

}  // namespace retest::testing
