#include "sim/parallel.h"

#include <algorithm>
#include <stdexcept>

#include "core/metrics.h"

namespace retest::sim {

using netlist::NodeKind;

namespace {

/// Shared gate function over an explicit fanin span.  Also the body of
/// the public EvalGateWide; kept as a local inline so the frame
/// evaluators pay no cross-TU call in their hot loops.
template <int W>
inline Vec3<W> EvalGateSpan(NodeKind kind, std::span<const Vec3<W>> fanin) {
  switch (kind) {
    case NodeKind::kConst0:
      return Vec3<W>::Broadcast(V3::k0);
    case NodeKind::kConst1:
      return Vec3<W>::Broadcast(V3::k1);
    case NodeKind::kBuf:
      return fanin[0];
    case NodeKind::kNot:
      return NotV(fanin[0]);
    case NodeKind::kAnd:
    case NodeKind::kNand: {
      Vec3<W> acc = fanin[0];
      for (size_t i = 1; i < fanin.size(); ++i) acc = AndV(acc, fanin[i]);
      return kind == NodeKind::kAnd ? acc : NotV(acc);
    }
    case NodeKind::kOr:
    case NodeKind::kNor: {
      Vec3<W> acc = fanin[0];
      for (size_t i = 1; i < fanin.size(); ++i) acc = OrV(acc, fanin[i]);
      return kind == NodeKind::kOr ? acc : NotV(acc);
    }
    case NodeKind::kXor:
    case NodeKind::kXnor: {
      Vec3<W> acc = fanin[0];
      for (size_t i = 1; i < fanin.size(); ++i) acc = XorV(acc, fanin[i]);
      return kind == NodeKind::kXor ? acc : NotV(acc);
    }
    default:
      throw std::invalid_argument("EvalGateWide: not a combinational kind");
  }
}

inline bool IsSource(NodeKind kind) {
  return kind == NodeKind::kInput || kind == NodeKind::kDff ||
         kind == NodeKind::kConst0 || kind == NodeKind::kConst1;
}

}  // namespace

template <int W>
Vec3<W> EvalGateWide(NodeKind kind, std::span<const Vec3<W>> fanin) {
  if (fanin.empty() && kind != NodeKind::kConst0 && kind != NodeKind::kConst1) {
    throw std::invalid_argument("EvalGateWide: empty fanin");
  }
  return EvalGateSpan<W>(kind, fanin);
}

template <int W>
WideFrame<W>::WideFrame(const netlist::Circuit& circuit)
    : WideFrame(Compile(circuit)) {}

template <int W>
WideFrame<W>::WideFrame(std::shared_ptr<const CompiledNetlist> compiled)
    : compiled_(std::move(compiled)),
      values_(static_cast<size_t>(compiled_->num_nodes())),
      by_node_(static_cast<size_t>(compiled_->num_nodes())),
      in_cone_(static_cast<size_t>(compiled_->num_nodes()), 0),
      dirty_(static_cast<size_t>(compiled_->num_nodes()), 0),
      scheduled_(static_cast<size_t>(compiled_->num_nodes()), 0),
      buckets_(static_cast<size_t>(compiled_->depth()) + 1) {}

template <int W>
void WideFrame<W>::SetInjections(std::span<const Injection> injections) {
  for (std::uint32_t id : touched_nodes_) by_node_[id].clear();
  touched_nodes_.clear();
  active_lanes_ = LaneMask<W>::All();
  for (const Injection& inj : injections) {
    assert(inj.lane >= 0 && inj.lane < Vec3<W>::kLanes);
    auto& list = by_node_[static_cast<size_t>(inj.node)];
    if (list.empty()) {
      touched_nodes_.push_back(static_cast<std::uint32_t>(inj.node));
    }
    list.push_back(inj);
  }

  in_cone_.assign(in_cone_.size(), 0);
  dirty_.assign(in_cone_.size(), 0);
  dirty_list_.clear();
  forced_.clear();
  cone_dffs_.clear();
  active_outputs_.clear();

  // Activity mask: forward reachability from every injection site.  A
  // branch fault (pin >= 0) perturbs the reading node's output; a stem
  // fault perturbs the node's own output — either way the site node is
  // the cone root.  Fanout edges naturally chain through DFFs: a DFF
  // whose D cone differs latches a faulty state, perturbing its Q
  // consumers on later frames.
  std::vector<std::uint32_t> worklist;
  for (std::uint32_t id : touched_nodes_) {
    if (!in_cone_[id]) {
      in_cone_[id] = 1;
      worklist.push_back(id);
    }
  }
  while (!worklist.empty()) {
    const std::uint32_t id = worklist.back();
    worklist.pop_back();
    for (std::uint32_t sink : compiled_->fanouts(id)) {
      if (!in_cone_[sink]) {
        in_cone_[sink] = 1;
        worklist.push_back(sink);
      }
    }
  }

  cone_size_ = 0;
  for (char mark : in_cone_) cone_size_ += mark;
  // Injected gates/POs must be (re)evaluated whenever any of their
  // lanes is still live, even on frames where no fanin is dirty.
  // Sources (PIs, DFFs, constants) are seeded instead.
  for (std::uint32_t id : touched_nodes_) {
    if (IsSource(compiled_->kind(id))) continue;
    LaneMask<W> mask;
    for (const Injection& inj : by_node_[id]) mask.set(inj.lane);
    forced_.emplace_back(id, mask);
  }
  const auto dffs = compiled_->dffs();
  for (size_t i = 0; i < dffs.size(); ++i) {
    if (in_cone_[dffs[i]]) cone_dffs_.push_back(i);
  }
  const auto outputs = compiled_->outputs();
  for (size_t o = 0; o < outputs.size(); ++o) {
    if (in_cone_[outputs[o]]) active_outputs_.push_back(static_cast<int>(o));
  }
  RETEST_COUNTER_ADD("sim.cone_restrictions", "calls", "sim",
                     "fault batches armed (SetInjections)", 1);
  RETEST_DIST_RECORD("sim.cone_size", "nodes", "sim",
                     "activity-mask size (nodes) per fault batch",
                     cone_size_);
}

template <int W>
void WideFrame<W>::Step(std::vector<Vec3<W>>& state,
                        std::span<const V3> good_frame) {
  if (state.size() != compiled_->dffs().size() ||
      good_frame.size() != values_.size()) {
    throw std::invalid_argument("WideFrame::Step: width mismatch");
  }
  const V3* good = good_frame.data();
  const LaneMask<W> live = active_lanes_;
  // Dropped lanes are clamped to the good machine wherever a vector
  // enters the frontier, so retired faults generate no events.
  auto clamp = [&](const Vec3<W>& v, std::uint32_t id) {
    const PlaneWords g = PlaneWordsOf(good[id]);
    Vec3<W> r;
    for (int w = 0; w < W; ++w) {
      r.one[w] = (v.one[w] & live.bits[w]) | (g.one & ~live.bits[w]);
      r.zero[w] = (v.zero[w] & live.bits[w]) | (g.zero & ~live.bits[w]);
    }
    return r;
  };
  auto schedule_fanouts = [&](std::uint32_t id) {
    for (std::uint32_t sink : compiled_->fanouts(id)) {
      if (!in_cone_[sink] || scheduled_[sink]) continue;
      if (compiled_->kind(sink) == NodeKind::kDff) continue;  // latched
      scheduled_[sink] = 1;
      buckets_[static_cast<size_t>(compiled_->level(sink))].push_back(sink);
    }
  };
  auto mark = [&](std::uint32_t id) {
    const PlaneWords g = PlaneWordsOf(good[id]);
    const Vec3<W>& v = values_[id];
    std::uint64_t diff = 0;
    for (int w = 0; w < W; ++w) {
      diff |= (v.one[w] ^ g.one) | (v.zero[w] ^ g.zero);
    }
    const bool now = diff != 0;
    if (now && !dirty_[id]) dirty_list_.push_back(id);
    dirty_[id] = now;
    return now;
  };

  // Last frame's dirty flags are stale: a node off this frame's
  // frontier is clean by construction.
  for (std::uint32_t id : dirty_list_) dirty_[id] = 0;
  dirty_list_.clear();

  // Seed the frontier.  A cone DFF is dirty when some live lane
  // latched a value the good machine did not; an injected source is
  // dirty when the forced lane disagrees with the good value this
  // frame (fault excitation).
  const auto dffs = compiled_->dffs();
  for (size_t i : cone_dffs_) {
    const std::uint32_t id = dffs[i];
    values_[id] = clamp(state[i], id);
    if (mark(id)) schedule_fanouts(id);
  }
  for (std::uint32_t id : touched_nodes_) {
    const NodeKind kind = compiled_->kind(id);
    if (!IsSource(kind)) continue;
    // A non-DFF source's good word is its broadcast value itself.
    if (kind != NodeKind::kDff) values_[id] = Vec3<W>::Broadcast(good[id]);
    for (const Injection& inj : by_node_[id]) {
      if (inj.pin < 0 && live.test(inj.lane)) {
        values_[id].SetLane(inj.lane, inj.value);
      }
    }
    if (mark(id)) schedule_fanouts(id);
  }
  for (const auto& [id, mask] : forced_) {
    if (mask.intersects(live) && !scheduled_[id]) {
      scheduled_[id] = 1;
      buckets_[static_cast<size_t>(compiled_->level(id))].push_back(id);
    }
  }

  // Drain the event queue level by level; a gate only ever schedules
  // strictly deeper sinks, so each bucket is complete when reached.
  for (auto& bucket : buckets_) {
    for (size_t bi = 0; bi < bucket.size(); ++bi) {
      const std::uint32_t id = bucket[bi];
      scheduled_[id] = 0;
      fanin_scratch_.clear();
      for (std::uint32_t driver : compiled_->fanins(id)) {
        fanin_scratch_.push_back(dirty_[driver]
                                     ? values_[driver]
                                     : Vec3<W>::Broadcast(good[driver]));
      }
      for (const Injection& inj : by_node_[id]) {
        if (inj.pin >= 0 && live.test(inj.lane)) {
          fanin_scratch_[static_cast<size_t>(inj.pin)].SetLane(inj.lane,
                                                               inj.value);
        }
      }
      const NodeKind kind = compiled_->kind(id);
      Vec3<W> out = kind == NodeKind::kOutput
                        ? fanin_scratch_[0]
                        : EvalGateSpan<W>(kind, fanin_scratch_);
      for (const Injection& inj : by_node_[id]) {
        if (inj.pin < 0 && live.test(inj.lane)) {
          out.SetLane(inj.lane, inj.value);
        }
      }
      values_[id] = clamp(out, id);
      if (mark(id)) schedule_fanouts(id);
      ++gate_evals_;
    }
    bucket.clear();
  }

  // Clock edge for cone registers only.
  for (size_t i : cone_dffs_) {
    const std::uint32_t d_node = compiled_->dff_data(i);
    Vec3<W> d = dirty_[d_node] ? values_[d_node]
                               : Vec3<W>::Broadcast(good[d_node]);
    for (const Injection& inj : by_node_[dffs[i]]) {
      if (inj.pin >= 0 && live.test(inj.lane)) {
        d.SetLane(inj.lane, inj.value);
      }
    }
    state[i] = d;
  }
}

template class WideFrame<1>;
template class WideFrame<8>;
template Vec3<1> EvalGateWide<1>(NodeKind, std::span<const Vec3<1>>);
template Vec3<8> EvalGateWide<8>(NodeKind, std::span<const Vec3<8>>);

}  // namespace retest::sim
