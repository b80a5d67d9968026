#include "netlist/circuit.h"

#include <cassert>
#include <stdexcept>

namespace retest::netlist {

std::string_view ToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kInput: return "INPUT";
    case NodeKind::kOutput: return "OUTPUT";
    case NodeKind::kDff: return "DFF";
    case NodeKind::kBuf: return "BUF";
    case NodeKind::kNot: return "NOT";
    case NodeKind::kAnd: return "AND";
    case NodeKind::kNand: return "NAND";
    case NodeKind::kOr: return "OR";
    case NodeKind::kNor: return "NOR";
    case NodeKind::kXor: return "XOR";
    case NodeKind::kXnor: return "XNOR";
    case NodeKind::kConst0: return "CONST0";
    case NodeKind::kConst1: return "CONST1";
  }
  return "?";
}

bool IsGate(NodeKind kind) {
  switch (kind) {
    case NodeKind::kBuf:
    case NodeKind::kNot:
    case NodeKind::kAnd:
    case NodeKind::kNand:
    case NodeKind::kOr:
    case NodeKind::kNor:
    case NodeKind::kXor:
    case NodeKind::kXnor:
      return true;
    default:
      return false;
  }
}

bool IsVarArity(NodeKind kind) {
  switch (kind) {
    case NodeKind::kAnd:
    case NodeKind::kNand:
    case NodeKind::kOr:
    case NodeKind::kNor:
    case NodeKind::kXor:
    case NodeKind::kXnor:
      return true;
    default:
      return false;
  }
}

NodeId Circuit::Add(NodeKind kind, std::string name,
                    std::vector<NodeId> fanin) {
  if (name.empty()) throw std::invalid_argument("node name must be non-empty");
  if (by_name_.contains(name)) {
    throw std::invalid_argument("duplicate node name: " + name);
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node node;
  node.kind = kind;
  node.name = std::move(name);
  node.fanin = std::move(fanin);
  for (NodeId driver : node.fanin) {
    assert(driver >= 0 && driver < id);
    nodes_[static_cast<size_t>(driver)].fanout.push_back(id);
  }
  by_name_.emplace(node.name, id);
  switch (kind) {
    case NodeKind::kInput: inputs_.push_back(id); break;
    case NodeKind::kOutput: outputs_.push_back(id); break;
    case NodeKind::kDff: dffs_.push_back(id); break;
    default: break;
  }
  nodes_.push_back(std::move(node));
  return id;
}

void Circuit::Rewire(NodeId id, int pin, NodeId driver) {
  Node& node = nodes_[static_cast<size_t>(id)];
  const NodeId old = node.fanin[static_cast<size_t>(pin)];
  if (old == driver) return;
  auto& old_fanout = nodes_[static_cast<size_t>(old)].fanout;
  for (auto it = old_fanout.begin(); it != old_fanout.end(); ++it) {
    if (*it == id) {
      old_fanout.erase(it);
      break;
    }
  }
  node.fanin[static_cast<size_t>(pin)] = driver;
  nodes_[static_cast<size_t>(driver)].fanout.push_back(id);
}

void Circuit::AddPin(NodeId id, NodeId driver) {
  nodes_[static_cast<size_t>(id)].fanin.push_back(driver);
  nodes_[static_cast<size_t>(driver)].fanout.push_back(id);
}

NodeId Circuit::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kNoNode : it->second;
}

int Circuit::num_gates() const {
  int count = 0;
  for (const Node& node : nodes_) {
    if (IsGate(node.kind)) ++count;
  }
  return count;
}

std::vector<NodeId> Circuit::AllNodes() const {
  std::vector<NodeId> ids(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) ids[i] = static_cast<NodeId>(i);
  return ids;
}

void Circuit::RebuildFanout() {
  for (Node& node : nodes_) node.fanout.clear();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (NodeId driver : nodes_[i].fanin) {
      nodes_[static_cast<size_t>(driver)].fanout.push_back(
          static_cast<NodeId>(i));
    }
  }
}

std::string Circuit::FreshName(std::string_view stem) {
  std::string base(stem);
  if (!by_name_.contains(base)) return base;
  int& i = next_suffix_[base];
  for (;; ++i) {
    std::string candidate = base + "_" + std::to_string(i);
    if (!by_name_.contains(candidate)) return candidate;
  }
}

}  // namespace retest::netlist
