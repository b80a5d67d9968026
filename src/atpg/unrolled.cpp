#include "atpg/unrolled.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/metrics.h"

namespace retest::atpg {

using netlist::NodeId;
using netlist::NodeKind;
using sim::V3;

namespace {

bool IsSource(NodeKind kind) {
  return kind == NodeKind::kInput || kind == NodeKind::kDff ||
         kind == NodeKind::kConst0 || kind == NodeKind::kConst1;
}

/// Calls `fn(id)` for every node, each gate after its same-frame
/// fanins: the sources (PIs, DFFs, constants) first, then the compiled
/// schedule.
template <typename Fn>
void ForEachInOrder(const sim::CompiledNetlist& net, Fn&& fn) {
  for (std::uint32_t id = 0;
       id < static_cast<std::uint32_t>(net.num_nodes()); ++id) {
    if (IsSource(net.kind(id))) fn(static_cast<NodeId>(id));
  }
  for (std::uint32_t id : net.schedule()) fn(static_cast<NodeId>(id));
}

}  // namespace

UnrolledModel::UnrolledModel(std::shared_ptr<const sim::CompiledNetlist> net,
                             const fault::Fault& fault, int frames,
                             bool free_state, bool observe_state)
    : net_(std::move(net)),
      num_nodes_(static_cast<size_t>(net_->num_nodes())),
      fault_(fault),
      frames_(frames),
      free_state_(free_state),
      observe_state_(observe_state) {
  if (frames <= 0) throw std::invalid_argument("UnrolledModel: frames <= 0");
  observe_node_ = ObserveNodeFor(fault_);
  state_assignments_.assign(net_->dffs().size(), V3::kX);
  EnsureCapacity(frames);
  Reset();
}

UnrolledModel::UnrolledModel(const netlist::Circuit& circuit,
                             const fault::Fault& fault, int frames,
                             bool free_state, bool observe_state)
    : UnrolledModel(sim::Compile(circuit), fault, frames, free_state,
                    observe_state) {}

netlist::NodeId UnrolledModel::ObserveNodeFor(const fault::Fault& fault) const {
  return fault.site.pin < 0
             ? fault.site.node
             : static_cast<NodeId>(
                   net_->fanins(static_cast<std::uint32_t>(fault.site.node))
                       [static_cast<size_t>(fault.site.pin)]);
}

void UnrolledModel::EnsureCapacity(int frames) {
  if (frames <= frames_built_) return;
  const sim::CompiledNetlist& net = *net_;
  const size_t total = static_cast<size_t>(frames) * num_nodes_;
  assignments_.resize(static_cast<size_t>(frames),
                      std::vector<V3>(net.inputs().size(), V3::kX));
  values_.resize(total, V5::X());
  queued_.resize(total, 0);
  buckets_.resize(static_cast<size_t>(frames) *
                  static_cast<size_t>(net.depth() + 2));
  latched_effect_.resize(static_cast<size_t>(frames) * net.dffs().size(), 0);
  excited_.resize(static_cast<size_t>(frames), 0);
  const auto data_of = [&](std::uint32_t dff) {
    return static_cast<NodeId>(net.fanins(dff)[0]);
  };

  // Static controllability: a decision input lies in the cone.  The
  // per-frame recurrence only looks at frame t-1, so new frames extend
  // the existing tables.
  controllable_.resize(total, 0);
  for (int t = frames_built_; t < frames; ++t) {
    ForEachInOrder(net, [&](NodeId id) {
      const auto node = static_cast<std::uint32_t>(id);
      char value = 0;
      switch (net.kind(node)) {
        case NodeKind::kInput:
          value = 1;
          break;
        case NodeKind::kDff:
          value = t == 0 ? (free_state_ ? 1 : 0)
                         : controllable_[index(t - 1, data_of(node))];
          break;
        case NodeKind::kConst0:
        case NodeKind::kConst1:
          value = 0;
          break;
        default:
          for (std::uint32_t driver : net.fanins(node)) {
            value |= controllable_[index(t, static_cast<NodeId>(driver))];
          }
          break;
      }
      controllable_[index(t, id)] = value;
    });
  }
  // Real-PI reachability (state bits excluded even in free_state).
  pi_reachable_.resize(total, 0);
  for (int t = frames_built_; t < frames; ++t) {
    ForEachInOrder(net, [&](NodeId id) {
      const auto node = static_cast<std::uint32_t>(id);
      char value = 0;
      switch (net.kind(node)) {
        case NodeKind::kInput:
          value = 1;
          break;
        case NodeKind::kDff:
          value = t == 0 ? 0 : pi_reachable_[index(t - 1, data_of(node))];
          break;
        case NodeKind::kConst0:
        case NodeKind::kConst1:
          break;
        default:
          for (std::uint32_t driver : net.fanins(node)) {
            value |= pi_reachable_[index(t, static_cast<NodeId>(driver))];
          }
          break;
      }
      pi_reachable_[index(t, id)] = value;
    });
  }
  // Fault-free all-X baseline (the Reset restore image).  Frame t only
  // reads frame t-1, so new frames extend the existing image.
  baseline_.resize(total, V5::X());
  for (int t = frames_built_; t < frames; ++t) {
    const V5* frame = baseline_.data() + static_cast<size_t>(t) * num_nodes_;
    ForEachInOrder(net, [&](NodeId id) {
      const auto node = static_cast<std::uint32_t>(id);
      V5 value = V5::X();  // PIs, and frame-0 state, are unknown
      if (net.kind(node) == NodeKind::kDff) {
        if (t > 0) value = baseline_[index(t - 1, data_of(node))];
      } else if (net.kind(node) != NodeKind::kInput) {
        value = EvalNode5(net.kind(node), net.fanins(node), frame, -1, V3::kX);
      }
      baseline_[index(t, id)] = value;
    });
  }
  frames_built_ = frames;
}

void UnrolledModel::Reset() {
  RETEST_COUNTER_ADD("atpg.model.resets", "resets", "atpg",
                     "UnrolledModel baseline restores", 1);
  for (auto& vector : assignments_) {
    std::fill(vector.begin(), vector.end(), V3::kX);
  }
  std::fill(state_assignments_.begin(), state_assignments_.end(), V3::kX);
  // Restore the fault-free all-X baseline over the logical frames.
  // Frames beyond frames_ may hold stale values from an earlier,
  // deeper search, but nothing reads them before a later Reset (via
  // GrowFrames/SetFault) restores that range too.
  const size_t active = static_cast<size_t>(frames_) * num_nodes_;
  std::copy(baseline_.begin(), baseline_.begin() + static_cast<long>(active),
            values_.begin());
  std::fill(latched_effect_.begin(), latched_effect_.end(), 0);
  effect_nodes_.clear();
  observed_count_ = 0;
  // Excitation bookkeeping against the restored values: the good value
  // at the observe node is the baseline one (fault injection only
  // changes faulty components, and only downstream).
  const V3 stuck = fault_.stuck_at_1 ? V3::k1 : V3::k0;
  std::fill(excited_.begin(), excited_.end(), 0);
  excited_count_ = 0;
  for (int t = 0; t < frames_; ++t) {
    const V3 good = values_[index(t, observe_node_)].good;
    if (good != V3::kX && good != stuck) {
      excited_[static_cast<size_t>(t)] = 1;
      ++excited_count_;
    }
  }
  // Pseudo-PO observations of the restored image.  A fault on a DFF
  // data pin shows as a latched effect even where the values match the
  // baseline (LatchedValue applies the pin fault itself), so this must
  // be re-derived rather than zeroed.
  if (observe_state_) {
    for (int t = 0; t < frames_; ++t) {
      for (size_t i = 0; i < net_->dffs().size(); ++i) {
        UpdateLatchedObservation(t, static_cast<int>(i));
      }
    }
  }
  // Re-inject the fault: only its downstream cone can differ from the
  // fault-free baseline.
  for (int t = 0; t < frames_; ++t) Touch(t, fault_.site.node);
  Propagate();
}

void UnrolledModel::SetFault(const fault::Fault& fault, int frames) {
  RETEST_COUNTER_ADD("atpg.model.set_fault", "re-arms", "atpg",
                     "UnrolledModel re-arms for another fault", 1);
  fault_ = fault;
  observe_node_ = ObserveNodeFor(fault_);
  if (frames > 0) {
    EnsureCapacity(frames);
    frames_ = frames;
  }
  Reset();
}

void UnrolledModel::GrowFrames(int frames) {
  if (frames <= 0) throw std::invalid_argument("GrowFrames: frames <= 0");
  RETEST_COUNTER_ADD("atpg.model.grow_frames", "re-arms", "atpg",
                     "UnrolledModel unroll-depth changes", 1);
  RETEST_DIST_RECORD("atpg.model.frames", "frames", "atpg",
                     "unroll depth requested via GrowFrames", frames);
  EnsureCapacity(frames);
  frames_ = frames;
  Reset();
}

V5 UnrolledModel::Compute(int t, NodeId id) const {
  const sim::CompiledNetlist& net = *net_;
  const auto node = static_cast<std::uint32_t>(id);
  const NodeKind kind = net.kind(node);
  const V3 forced = fault_.stuck_at_1 ? V3::k1 : V3::k0;
  const bool at_site = fault_.site.node == id;
  const int fault_pin = at_site ? fault_.site.pin : -1;

  V5 out;
  if (kind == NodeKind::kInput) {
    out = Both(assignments_[static_cast<size_t>(t)]
                           [static_cast<size_t>(net.pi_index(node))]);
  } else if (kind == NodeKind::kDff) {
    if (t == 0) {
      out = free_state_ ? Both(state_assignments_[static_cast<size_t>(
                              net.dff_index(node))])
                        : V5::X();
    } else {
      out = values_[index(t - 1, static_cast<NodeId>(net.fanins(node)[0]))];
      if (fault_pin == 0) out.faulty = forced;  // data-pin fault
    }
  } else {
    out = EvalNode5(kind, net.fanins(node),
                    values_.data() + static_cast<size_t>(t) * num_nodes_,
                    fault_pin, forced);
  }
  if (at_site && fault_.site.pin < 0) out.faulty = forced;  // stem fault
  return out;
}

void UnrolledModel::UpdateLatchedObservation(int t, int dff_index) {
  const size_t slot = static_cast<size_t>(t) * net_->dffs().size() +
                      static_cast<size_t>(dff_index);
  const char now = LatchedValue(t, dff_index).IsFaultEffect() ? 1 : 0;
  if (now != latched_effect_[slot]) {
    latched_effect_[slot] = now;
    observed_count_ += now ? 1 : -1;
  }
}

bool UnrolledModel::Install(int t, NodeId id, const V5& value) {
  V5& slot = values_[index(t, id)];
  if (slot == value) return false;
  const bool was_effect = slot.IsFaultEffect();
  const bool is_effect = value.IsFaultEffect();
  slot = value;
  if (was_effect != is_effect) {
    if (is_effect) {
      effect_nodes_.insert({t, id});
    } else {
      effect_nodes_.erase({t, id});
    }
    if (net_->kind(static_cast<std::uint32_t>(id)) == NodeKind::kOutput) {
      observed_count_ += is_effect ? 1 : -1;
    }
  }
  if (id == observe_node_) {
    const V3 stuck = fault_.stuck_at_1 ? V3::k1 : V3::k0;
    const char now =
        (value.good != V3::kX && value.good != stuck) ? 1 : 0;
    if (now != excited_[static_cast<size_t>(t)]) {
      excited_[static_cast<size_t>(t)] = now;
      excited_count_ += now ? 1 : -1;
    }
  }
  return true;
}

void UnrolledModel::Touch(int t, NodeId id) {
  if (t >= frames_) return;
  const size_t slot = index(t, id);
  if (queued_[slot]) return;
  queued_[slot] = 1;
  const size_t key =
      static_cast<size_t>(t) * static_cast<size_t>(net_->depth() + 2) +
      static_cast<size_t>(net_->level(static_cast<std::uint32_t>(id)));
  buckets_[key].push_back(id);
  if (queue_pending_ == 0 || key < queue_cursor_) queue_cursor_ = key;
  ++queue_pending_;
}

void UnrolledModel::Propagate() {
  const sim::CompiledNetlist& net = *net_;
  const size_t keys_per_frame = static_cast<size_t>(net.depth() + 2);
  // The cursor only moves forward here (a node schedules larger keys
  // only), so the frame is re-derived only when the cursor leaves it.
  int t = static_cast<int>(queue_cursor_ / keys_per_frame);
  size_t next_frame_key = static_cast<size_t>(t + 1) * keys_per_frame;
  while (queue_pending_ > 0) {
    auto& bucket = buckets_[queue_cursor_];
    if (bucket.empty()) {
      ++queue_cursor_;
      continue;
    }
    if (queue_cursor_ >= next_frame_key) {
      t = static_cast<int>(queue_cursor_ / keys_per_frame);
      next_frame_key = static_cast<size_t>(t + 1) * keys_per_frame;
    }
    const NodeId id = bucket.back();
    bucket.pop_back();
    --queue_pending_;
    queued_[index(t, id)] = 0;
    ++evaluations_;
    const V5 value = Compute(t, id);
    if (!Install(t, id, value)) continue;
    // Same-frame consumers; DFF consumers observe in the next frame.
    for (std::uint32_t sink : net.fanouts(static_cast<std::uint32_t>(id))) {
      if (net.kind(sink) == NodeKind::kDff) {
        Touch(t + 1, static_cast<NodeId>(sink));
        if (observe_state_) UpdateLatchedObservation(t, net.dff_index(sink));
      } else {
        Touch(t, static_cast<NodeId>(sink));
      }
    }
  }
}

void UnrolledModel::AssignPi(const FramePi& pi, V3 value) {
  auto& slot =
      assignments_[static_cast<size_t>(pi.frame)][static_cast<size_t>(pi.pi)];
  if (slot == value) return;
  slot = value;
  Touch(pi.frame,
        static_cast<NodeId>(net_->inputs()[static_cast<size_t>(pi.pi)]));
  Propagate();
}

V3 UnrolledModel::PiValue(const FramePi& pi) const {
  return assignments_[static_cast<size_t>(pi.frame)]
                     [static_cast<size_t>(pi.pi)];
}

void UnrolledModel::AssignState(int dff_index, V3 value) {
  if (!free_state_) {
    throw std::logic_error("AssignState requires free_state mode");
  }
  auto& slot = state_assignments_[static_cast<size_t>(dff_index)];
  if (slot == value) return;
  slot = value;
  Touch(0, static_cast<NodeId>(net_->dffs()[static_cast<size_t>(dff_index)]));
  Propagate();
}

V5 UnrolledModel::LatchedValue(int t, int dff_index) const {
  const auto i = static_cast<size_t>(dff_index);
  const auto dff = static_cast<NodeId>(net_->dffs()[i]);
  V5 value = values_[index(t, static_cast<NodeId>(net_->dff_data(i)))];
  if (fault_.site.node == dff && fault_.site.pin == 0) {
    value.faulty = fault_.stuck_at_1 ? V3::k1 : V3::k0;
  }
  return value;
}

std::vector<int> UnrolledModel::ActivationFrames() const {
  std::vector<int> frames;
  for (int t = 0; t < frames_; ++t) {
    if (values_[index(t, observe_node_)].good == V3::kX) frames.push_back(t);
  }
  return frames;
}

std::vector<FrameNode> UnrolledModel::DFrontier() const {
  // Fault effects drive the frontier: any consumer with an unknown
  // output is a propagation opportunity.
  const netlist::Circuit& circuit = net_->circuit();
  std::vector<FrameNode> frontier;
  for (const FrameNode& effect : effect_nodes_) {
    for (NodeId sink : circuit.node(effect.node).fanout) {
      const NodeKind kind = net_->kind(static_cast<std::uint32_t>(sink));
      if (kind == NodeKind::kDff) continue;  // handled next frame
      if (!netlist::IsGate(kind)) continue;
      const FrameNode candidate{effect.frame, sink};
      if (!values_[index(candidate.frame, candidate.node)].HasUnknown()) {
        continue;
      }
      frontier.push_back(candidate);
    }
  }
  return frontier;
}

long UnrolledModel::Evaluate() {
  // Full recomputation in topological order; bookkeeping goes through
  // Install so counters stay exact.
  long count = 0;
  for (int t = 0; t < frames_; ++t) {
    ForEachInOrder(*net_, [&](NodeId id) {
      Install(t, id, Compute(t, id));
      ++count;
    });
  }
  if (observe_state_) {
    for (int t = 0; t < frames_; ++t) {
      for (size_t i = 0; i < net_->dffs().size(); ++i) {
        UpdateLatchedObservation(t, static_cast<int>(i));
      }
    }
  }
  evaluations_ += count;
  return count;
}

}  // namespace retest::atpg
