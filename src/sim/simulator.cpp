#include "sim/simulator.h"

#include <sstream>
#include <stdexcept>

namespace retest::sim {

using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;

std::string ToString(std::span<const V3> values) {
  std::string out;
  out.reserve(values.size());
  for (V3 v : values) out.push_back(ToChar(v));
  return out;
}

std::vector<V3> FromString(const std::string& text) {
  std::vector<V3> out;
  out.reserve(text.size());
  for (char c : text) out.push_back(FromChar(c));
  return out;
}

V3 EvalGate3(NodeKind kind, std::span<const V3> fanin) {
  switch (kind) {
    case NodeKind::kConst0:
      return V3::k0;
    case NodeKind::kConst1:
      return V3::k1;
    case NodeKind::kBuf:
      return fanin[0];
    case NodeKind::kNot:
      return Not3(fanin[0]);
    case NodeKind::kAnd:
    case NodeKind::kNand: {
      V3 acc = V3::k1;
      for (V3 v : fanin) acc = And3(acc, v);
      return kind == NodeKind::kAnd ? acc : Not3(acc);
    }
    case NodeKind::kOr:
    case NodeKind::kNor: {
      V3 acc = V3::k0;
      for (V3 v : fanin) acc = Or3(acc, v);
      return kind == NodeKind::kOr ? acc : Not3(acc);
    }
    case NodeKind::kXor:
    case NodeKind::kXnor: {
      V3 acc = V3::k0;
      for (V3 v : fanin) acc = Xor3(acc, v);
      return kind == NodeKind::kXor ? acc : Not3(acc);
    }
    default:
      throw std::invalid_argument("EvalGate3: not a combinational kind");
  }
}

Simulator::Simulator(const netlist::Circuit& circuit)
    : circuit_(&circuit),
      levels_(Levelize(circuit)),
      values_(static_cast<size_t>(circuit.size()), V3::kX),
      state_(static_cast<size_t>(circuit.num_dffs()), V3::kX) {}

void Simulator::Reset(V3 init) {
  state_.assign(state_.size(), init);
}

void Simulator::SetState(std::span<const V3> state) {
  if (state.size() != state_.size()) {
    throw std::invalid_argument("SetState: wrong state width");
  }
  state_.assign(state.begin(), state.end());
}

std::vector<V3> Simulator::State() const { return state_; }

bool Simulator::StateIsBinary() const {
  for (V3 v : state_) {
    if (v == V3::kX) return false;
  }
  return true;
}

void Simulator::EvaluateCombinational(std::span<const V3> inputs) {
  if (inputs.size() != static_cast<size_t>(circuit_->num_inputs())) {
    throw std::invalid_argument("Step: wrong input width");
  }
  // Seed sources.
  const auto& pis = circuit_->inputs();
  for (size_t i = 0; i < pis.size(); ++i) {
    values_[static_cast<size_t>(pis[i])] = inputs[i];
  }
  const auto& dffs = circuit_->dffs();
  for (size_t i = 0; i < dffs.size(); ++i) {
    values_[static_cast<size_t>(dffs[i])] = state_[i];
  }
  // One pass in topological order.
  std::vector<V3> fanin_values;
  for (NodeId id : levels_.order) {
    const Node& node = circuit_->node(id);
    switch (node.kind) {
      case NodeKind::kInput:
      case NodeKind::kDff:
        break;  // seeded above
      case NodeKind::kOutput:
        values_[static_cast<size_t>(id)] =
            values_[static_cast<size_t>(node.fanin[0])];
        break;
      default: {
        fanin_values.clear();
        for (NodeId driver : node.fanin) {
          fanin_values.push_back(values_[static_cast<size_t>(driver)]);
        }
        values_[static_cast<size_t>(id)] = EvalGate3(node.kind, fanin_values);
        break;
      }
    }
  }
}

std::vector<V3> Simulator::Step(std::span<const V3> inputs) {
  EvaluateCombinational(inputs);
  std::vector<V3> outputs;
  outputs.reserve(circuit_->outputs().size());
  for (NodeId id : circuit_->outputs()) {
    outputs.push_back(values_[static_cast<size_t>(id)]);
  }
  // Clock edge: latch D values.
  const auto& dffs = circuit_->dffs();
  for (size_t i = 0; i < dffs.size(); ++i) {
    const Node& dff = circuit_->node(dffs[i]);
    state_[i] = values_[static_cast<size_t>(dff.fanin[0])];
  }
  return outputs;
}

std::vector<std::vector<V3>> Simulator::Run(const InputSequence& sequence) {
  std::vector<std::vector<V3>> outputs;
  outputs.reserve(sequence.size());
  for (const InputVector& vec : sequence) outputs.push_back(Step(vec));
  return outputs;
}

Trace::Trace(const netlist::Circuit& circuit, const InputSequence& sequence)
    : frames_(sequence.size()),
      num_nodes_(static_cast<size_t>(circuit.size())) {
  values_.resize(frames_ * num_nodes_);
  Simulator simulator(circuit);
  simulator.Reset();
  for (size_t t = 0; t < frames_; ++t) {
    simulator.Step(sequence[t]);
    V3* frame = values_.data() + t * num_nodes_;
    for (size_t id = 0; id < num_nodes_; ++id) {
      frame[id] = simulator.value(static_cast<netlist::NodeId>(id));
    }
  }
}

}  // namespace retest::sim
