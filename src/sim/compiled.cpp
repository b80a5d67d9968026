#include "sim/compiled.h"

#include <algorithm>

namespace retest::sim {

using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;

CompiledNetlist::CompiledNetlist(const netlist::Circuit& circuit)
    : circuit_(&circuit), num_nodes_(circuit.size()) {
  const auto n = static_cast<size_t>(num_nodes_);
  const Levelization levels = Levelize(circuit);
  depth_ = levels.depth;

  kind_.resize(n);
  level_.assign(n, 0);
  pi_index_.assign(n, -1);
  dff_index_.assign(n, -1);
  fanin_begin_.assign(n + 1, 0);
  fanout_begin_.assign(n + 1, 0);

  size_t total_fanin = 0;
  for (NodeId id = 0; id < num_nodes_; ++id) {
    const Node& node = circuit.node(id);
    kind_[static_cast<size_t>(id)] = node.kind;
    level_[static_cast<size_t>(id)] = levels.level[static_cast<size_t>(id)];
    total_fanin += node.fanin.size();
  }
  // Fanin CSR in pin order; the fanout CSR is derived from it so the
  // consumer order is deterministic (by (sink, pin)), independent of
  // the Circuit's incremental fanout bookkeeping.
  fanin_.reserve(total_fanin);
  for (NodeId id = 0; id < num_nodes_; ++id) {
    fanin_begin_[static_cast<size_t>(id)] =
        static_cast<std::uint32_t>(fanin_.size());
    for (NodeId driver : circuit.node(id).fanin) {
      fanin_.push_back(static_cast<std::uint32_t>(driver));
    }
  }
  fanin_begin_[n] = static_cast<std::uint32_t>(fanin_.size());

  std::vector<std::uint32_t> degree(n, 0);
  for (NodeId sink = 0; sink < num_nodes_; ++sink) {
    for (std::uint32_t driver : fanins(static_cast<std::uint32_t>(sink))) {
      ++degree[driver];
    }
  }
  for (size_t id = 0; id < n; ++id) {
    fanout_begin_[id + 1] = fanout_begin_[id] + degree[id];
  }
  fanout_.resize(fanout_begin_[n]);
  std::vector<std::uint32_t> cursor(fanout_begin_.begin(),
                                    fanout_begin_.end() - 1);
  for (NodeId sink = 0; sink < num_nodes_; ++sink) {
    for (std::uint32_t driver : fanins(static_cast<std::uint32_t>(sink))) {
      fanout_[cursor[driver]++] = static_cast<std::uint32_t>(sink);
    }
  }

  // Level-contiguous evaluation schedule over gates and output pins.
  // Within a level the run is sorted by (kind, id): level order is the
  // only correctness requirement (every fanin sits at a strictly lower
  // level), and grouping by kind turns the evaluator's dispatch into
  // monotone batches.
  level_begin_.assign(static_cast<size_t>(depth_) + 2, 0);
  schedule_.reserve(n);
  for (NodeId id = 0; id < num_nodes_; ++id) {
    const NodeKind kind = kind_[static_cast<size_t>(id)];
    if (kind == NodeKind::kInput || kind == NodeKind::kDff ||
        kind == NodeKind::kConst0 || kind == NodeKind::kConst1) {
      continue;
    }
    schedule_.push_back(static_cast<std::uint32_t>(id));
  }
  std::sort(schedule_.begin(), schedule_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (level_[a] != level_[b]) return level_[a] < level_[b];
              if (kind_[a] != kind_[b]) return kind_[a] < kind_[b];
              return a < b;
            });
  for (std::uint32_t id : schedule_) {
    ++level_begin_[static_cast<size_t>(level_[id]) + 1];
  }
  for (size_t l = 1; l < level_begin_.size(); ++l) {
    level_begin_[l] += level_begin_[l - 1];
  }

  inputs_.reserve(circuit.inputs().size());
  for (size_t i = 0; i < circuit.inputs().size(); ++i) {
    const NodeId id = circuit.inputs()[i];
    inputs_.push_back(static_cast<std::uint32_t>(id));
    pi_index_[static_cast<size_t>(id)] = static_cast<std::int32_t>(i);
  }
  outputs_.reserve(circuit.outputs().size());
  output_src_.reserve(circuit.outputs().size());
  for (NodeId id : circuit.outputs()) {
    outputs_.push_back(static_cast<std::uint32_t>(id));
    output_src_.push_back(
        static_cast<std::uint32_t>(circuit.node(id).fanin[0]));
  }
  dffs_.reserve(circuit.dffs().size());
  dff_data_.reserve(circuit.dffs().size());
  for (size_t i = 0; i < circuit.dffs().size(); ++i) {
    const NodeId id = circuit.dffs()[i];
    dffs_.push_back(static_cast<std::uint32_t>(id));
    dff_data_.push_back(static_cast<std::uint32_t>(circuit.node(id).fanin[0]));
    dff_index_[static_cast<size_t>(id)] = static_cast<std::int32_t>(i);
  }

  // PI reachability in schedule order: every fanin of a scheduled node
  // is a source or sits at a lower level.
  pi_reachable_.assign(n, 0);
  for (std::uint32_t id : inputs_) pi_reachable_[id] = 1;
  for (std::uint32_t id : schedule_) {
    for (std::uint32_t driver : fanins(id)) {
      pi_reachable_[id] |= pi_reachable_[driver];
    }
  }

  // Register reachability in reverse schedule order: every same-frame
  // consumer of a scheduled node sits at a higher level.  Sources come
  // last; their consumers are all scheduled.
  register_reachable_.assign(n, 0);
  for (std::uint32_t data : dff_data_) register_reachable_[data] = 1;
  auto mark = [&](std::uint32_t id) {
    for (std::uint32_t sink : fanouts(id)) {
      if (kind_[sink] != NodeKind::kDff) {
        register_reachable_[id] |= register_reachable_[sink];
      }
    }
  };
  for (auto it = schedule_.rbegin(); it != schedule_.rend(); ++it) mark(*it);
  for (NodeId id = 0; id < num_nodes_; ++id) {
    const NodeKind kind = kind_[static_cast<size_t>(id)];
    if (kind == NodeKind::kInput || kind == NodeKind::kDff ||
        kind == NodeKind::kConst0 || kind == NodeKind::kConst1) {
      mark(static_cast<std::uint32_t>(id));
    }
  }
}

std::shared_ptr<const CompiledNetlist> Compile(
    const netlist::Circuit& circuit) {
  return std::make_shared<const CompiledNetlist>(circuit);
}

}  // namespace retest::sim
