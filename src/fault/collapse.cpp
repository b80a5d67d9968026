#include "fault/collapse.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>

namespace retest::fault {
namespace {

using netlist::Circuit;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int Find(int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
  }
};

}  // namespace

CollapsedFaults Collapse(const Circuit& circuit) {
  CollapsedFaults result;
  result.all = EnumerateFaults(circuit);
  // EnumerateFaults emits faults in strictly increasing Fault order
  // (node, then pin with the stem's -1 first, then stuck-at value), so
  // `all` is its own index: a binary search finds a fault's position.
  assert(std::adjacent_find(result.all.begin(), result.all.end(),
                            std::greater_equal<>()) == result.all.end());
  UnionFind classes(result.all.size());

  // The line a gate reads on pin `pin`: the branch if the driver fans
  // out, otherwise the driver's stem.
  auto input_line = [&](NodeId id, int pin) -> Site {
    const Node& node = circuit.node(id);
    const NodeId driver = node.fanin[static_cast<size_t>(pin)];
    if (circuit.node(driver).fanout.size() >= 2) return Site{id, pin};
    return Site{driver, -1};
  };
  auto index_of = [&](const Fault& fault) -> int {
    auto it = std::lower_bound(result.all.begin(), result.all.end(), fault);
    if (it == result.all.end() || *it != fault) return -1;
    return static_cast<int>(it - result.all.begin());
  };
  auto unite = [&](const Fault& a, const Fault& b) {
    const int ia = index_of(a);
    const int ib = index_of(b);
    if (ia >= 0 && ib >= 0) classes.Union(ia, ib);
  };

  for (NodeId id = 0; id < circuit.size(); ++id) {
    const Node& node = circuit.node(id);
    const Site out{id, -1};
    switch (node.kind) {
      case NodeKind::kAnd:
      case NodeKind::kNand: {
        const bool out_val = node.kind == NodeKind::kNand;
        for (int pin = 0; pin < static_cast<int>(node.fanin.size()); ++pin) {
          unite({input_line(id, pin), false}, {out, out_val});
        }
        break;
      }
      case NodeKind::kOr:
      case NodeKind::kNor: {
        const bool out_val = node.kind != NodeKind::kNor;
        for (int pin = 0; pin < static_cast<int>(node.fanin.size()); ++pin) {
          unite({input_line(id, pin), true}, {out, out_val});
        }
        break;
      }
      case NodeKind::kBuf:
        unite({input_line(id, 0), false}, {out, false});
        unite({input_line(id, 0), true}, {out, true});
        break;
      case NodeKind::kNot:
        unite({input_line(id, 0), false}, {out, true});
        unite({input_line(id, 0), true}, {out, false});
        break;
      default:
        break;  // XOR/XNOR, DFF, I/O: no equivalence rule.
    }
  }

  result.class_of.resize(result.all.size());
  std::vector<bool> is_rep(result.all.size(), false);
  for (size_t i = 0; i < result.all.size(); ++i) {
    const int root = classes.Find(static_cast<int>(i));
    result.class_of[i] = root;
    is_rep[static_cast<size_t>(root)] = true;
  }
  for (size_t i = 0; i < result.all.size(); ++i) {
    if (is_rep[i]) result.representatives.push_back(result.all[i]);
  }
  // `all` is sorted, so the representatives are too: in Fault order,
  // independent of how the union-find picked roots.
  return result;
}

}  // namespace retest::fault
