// W-lane bit-parallel 3-valued logic (the PROOFS machine-word engine,
// generalized over lane-group width).
//
// A Vec3<W> packs 64*W independent 3-valued values as two planes of W
// machine words: bit i of plane `one` set means machine i sees 1, bit
// i of plane `zero` set means it sees 0, neither means X (both set is
// invalid).  W=1 is the classic 1990-era PROOFS width (one uint64_t
// per plane, 64 faulty machines per pass); W=8 packs 512 machines.
// Both widths are portable word loops (sim/simd.h says which run
// uses which), and every width computes bit-identical per-lane
// results.
//
// WideFrame<W> is the frame evaluator over these words.  It runs on a
// CompiledNetlist (sim/compiled.h): flattened CSR fanin/fanout arrays
// and per-node levels, instead of chasing per-node std::vector
// pointers through the Circuit on every gate evaluation.  It evaluates
// only the fanout cones of its injections, reads the good machine from
// one frame of the scalar sim::Trace (one V3 byte per node) and
// broadcasts a value to all lanes only where it reads it.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "netlist/circuit.h"
#include "sim/compiled.h"
#include "sim/levelizer.h"
#include "sim/logic3.h"

namespace retest::sim {

/// The plane words of a scalar value broadcast to 64 lanes: all-ones
/// in `one` for 1, in `zero` for 0, neither for X.
struct PlaneWords {
  std::uint64_t one = 0;
  std::uint64_t zero = 0;
};

/// Branch-free from V3's 2-bit encoding (k0=0, k1=1, kX=2).
inline PlaneWords PlaneWordsOf(V3 v) {
  static_assert(static_cast<int>(V3::k0) == 0 &&
                static_cast<int>(V3::k1) == 1 &&
                static_cast<int>(V3::kX) == 2);
  const auto bits = static_cast<std::uint64_t>(v);
  return {0 - (bits & 1), 0 - static_cast<std::uint64_t>(bits == 0)};
}

/// 64*W packed 3-valued values (two bit-planes of W machine words).
template <int W>
struct Vec3 {
  static_assert(W >= 1);
  /// Lanes per vector: the number of faulty machines one Vec3 carries.
  static constexpr int kLanes = 64 * W;

  std::array<std::uint64_t, W> one{};
  std::array<std::uint64_t, W> zero{};

  /// Broadcasts a scalar value to all lanes.
  static Vec3 Broadcast(V3 v) {
    const PlaneWords p = PlaneWordsOf(v);
    Vec3 r;
    r.one.fill(p.one);
    r.zero.fill(p.zero);
    return r;
  }

  /// Value of lane i.  The shift is performed on the masked unsigned
  /// bit index, so it is well defined for every in-range lane (the
  /// 1995 code shifted `1ull << i` with a signed int — UB from lane 64
  /// up, exactly where the wide widths live); out-of-range lanes are
  /// an assertion failure.
  V3 Lane(int i) const {
    assert(i >= 0 && i < kLanes);
    const auto word = static_cast<unsigned>(i) >> 6;
    const std::uint64_t m = 1ull << (static_cast<unsigned>(i) & 63u);
    if (one[word % W] & m) return V3::k1;
    if (zero[word % W] & m) return V3::k0;
    return V3::kX;
  }

  /// Forces lane i to a binary value (same domain contract as Lane).
  void SetLane(int i, bool v) {
    assert(i >= 0 && i < kLanes);
    const auto word = static_cast<unsigned>(i) >> 6;
    const std::uint64_t m = 1ull << (static_cast<unsigned>(i) & 63u);
    if (v) {
      one[word % W] |= m;
      zero[word % W] &= ~m;
    } else {
      zero[word % W] |= m;
      one[word % W] &= ~m;
    }
  }

  friend bool operator==(const Vec3&, const Vec3&) = default;
};

/// The 3-valued algebra, word-parallel over all lanes.  Plain loops by
/// design: every width runs on every CPU.
template <int W>
inline Vec3<W> NotV(const Vec3<W>& a) {
  Vec3<W> r;
  r.one = a.zero;
  r.zero = a.one;
  return r;
}

template <int W>
inline Vec3<W> AndV(const Vec3<W>& a, const Vec3<W>& b) {
  Vec3<W> r;
  for (int w = 0; w < W; ++w) {
    r.one[w] = a.one[w] & b.one[w];
    r.zero[w] = a.zero[w] | b.zero[w];
  }
  return r;
}

template <int W>
inline Vec3<W> OrV(const Vec3<W>& a, const Vec3<W>& b) {
  Vec3<W> r;
  for (int w = 0; w < W; ++w) {
    r.one[w] = a.one[w] | b.one[w];
    r.zero[w] = a.zero[w] & b.zero[w];
  }
  return r;
}

template <int W>
inline Vec3<W> XorV(const Vec3<W>& a, const Vec3<W>& b) {
  Vec3<W> r;
  for (int w = 0; w < W; ++w) {
    r.one[w] = (a.one[w] & b.zero[w]) | (a.zero[w] & b.one[w]);
    r.zero[w] = (a.one[w] & b.one[w]) | (a.zero[w] & b.zero[w]);
  }
  return r;
}

/// Evaluates a combinational gate over W-word vectors.
template <int W>
Vec3<W> EvalGateWide(netlist::NodeKind kind, std::span<const Vec3<W>> fanin);

/// A set of lanes (one bit per faulty machine), W words wide.  Used
/// for PROOFS fault dropping and the detection scan.
template <int W>
struct LaneMask {
  std::array<std::uint64_t, W> bits{};

  static LaneMask None() { return {}; }
  static LaneMask All() {
    LaneMask m;
    m.bits.fill(~0ull);
    return m;
  }
  /// The first n lanes set (a partial final batch's live set).
  static LaneMask FirstN(int n) {
    assert(n >= 0 && n <= 64 * W);
    LaneMask m;
    for (int w = 0; w < W && n > 0; ++w, n -= 64) {
      m.bits[w] = n >= 64 ? ~0ull : ((1ull << (static_cast<unsigned>(n) & 63u)) - 1);
    }
    return m;
  }

  bool test(int lane) const {
    assert(lane >= 0 && lane < 64 * W);
    return (bits[static_cast<unsigned>(lane) >> 6] >>
            (static_cast<unsigned>(lane) & 63u)) & 1;
  }
  void set(int lane) {
    assert(lane >= 0 && lane < 64 * W);
    bits[static_cast<unsigned>(lane) >> 6] |=
        1ull << (static_cast<unsigned>(lane) & 63u);
  }
  void reset(int lane) {
    assert(lane >= 0 && lane < 64 * W);
    bits[static_cast<unsigned>(lane) >> 6] &=
        ~(1ull << (static_cast<unsigned>(lane) & 63u));
  }

  bool any() const {
    for (int w = 0; w < W; ++w) {
      if (bits[w] != 0) return true;
    }
    return false;
  }
  int count() const {
    int n = 0;
    for (int w = 0; w < W; ++w) n += std::popcount(bits[w]);
    return n;
  }
  bool intersects(const LaneMask& other) const {
    for (int w = 0; w < W; ++w) {
      if (bits[w] & other.bits[w]) return true;
    }
    return false;
  }

  LaneMask& operator&=(const LaneMask& o) {
    for (int w = 0; w < W; ++w) bits[w] &= o.bits[w];
    return *this;
  }
  LaneMask& operator|=(const LaneMask& o) {
    for (int w = 0; w < W; ++w) bits[w] |= o.bits[w];
    return *this;
  }
  LaneMask operator~() const {
    LaneMask r;
    for (int w = 0; w < W; ++w) r.bits[w] = ~bits[w];
    return r;
  }
  friend LaneMask operator&(LaneMask a, const LaneMask& b) {
    a &= b;
    return a;
  }
  friend LaneMask operator|(LaneMask a, const LaneMask& b) {
    a |= b;
    return a;
  }

  friend bool operator==(const LaneMask&, const LaneMask&) = default;
};

/// A forced value at a fault site, applied during frame evaluation.
/// `pin == -1` forces the node's output (stem fault); `pin >= 0` forces
/// what the node reads on that fanin branch only.
struct Injection {
  netlist::NodeId node = netlist::kNoNode;
  int pin = -1;
  bool value = false;  ///< stuck-at value
  int lane = 0;        ///< which of the frame's 64*W machines it applies to
};

/// One-clock-frame evaluator over 64*W parallel machines with fault
/// injection.  Owns per-node vector storage; the caller owns the state.
///
/// Evaluation is limited to the union of the injection sites'
/// structural fanout cones (transitive through DFFs) — the activity
/// mask.  Everything outside behaves exactly like the good machine and
/// is read from the scalar good-machine Trace, one byte per node,
/// broadcast to all lanes where it is used (the PROOFS insight: a
/// fault cannot perturb values outside its fanout cone).  Within the
/// cone the evaluation is event-driven: dirty nodes (vector differs
/// from the good machine this frame) schedule their cone fanouts into
/// per-level buckets, so only gates on the active frontier are visited
/// at all.  Detected faults can be retired per lane with DropLanes,
/// after which their lanes are clamped to the good machine and stop
/// generating events.  Per-frame cost is O(|active frontier|), which
/// decays as faults are detected and dropped.
template <int W>
class WideFrame {
 public:
  /// Compiles the circuit privately.  Prefer the shared-netlist
  /// overload when many frames evaluate the same circuit (the PROOFS
  /// batch workers share one CompiledNetlist).
  explicit WideFrame(const netlist::Circuit& circuit);
  explicit WideFrame(std::shared_ptr<const CompiledNetlist> compiled);

  /// Installs the batch's injections (grouped by node internally),
  /// re-activates every lane and computes the activity mask: the union
  /// of the fanout cones of all injection sites, transitive through
  /// DFFs (a faulty value latched into a register keeps perturbing its
  /// Q consumers on later frames).
  void SetInjections(std::span<const Injection> injections);

  /// Number of nodes inside the active cones.
  int cone_size() const { return cone_size_; }

  /// Evaluates one frame: only cone nodes on the active frontier are
  /// evaluated; everything else matches `good_frame` (every node's
  /// good-machine value at this frame, i.e. Trace::frame(t)).  `state`
  /// holds one Vec3 per DFF; only its cone entries are read and
  /// latched.  Read results via word(), or via value() on dirty()
  /// nodes.
  void Step(std::vector<Vec3<W>>& state, std::span<const V3> good_frame);

  /// Retires the given lanes: their injections stop being applied and
  /// their words are clamped to the good machine, so the dropped
  /// faults generate no further events.  PROOFS fault dropping at lane
  /// granularity.  Cleared by SetInjections.
  void DropLanes(const LaneMask<W>& lanes) {
    active_lanes_ &= ~lanes;
  }

  /// Vector on a node's output net this frame; only valid for dirty(id)
  /// nodes — use word() elsewhere.
  const Vec3<W>& value(netlist::NodeId id) const {
    return values_[static_cast<size_t>(id)];
  }

  /// True when the node's vector differs from the good machine in some
  /// lane this frame (clean nodes were skipped).
  bool dirty(netlist::NodeId id) const {
    return dirty_[static_cast<size_t>(id)] != 0;
  }

  /// Node value: the evaluated vector for dirty nodes, the broadcast
  /// good-machine value for clean ones.
  Vec3<W> word(netlist::NodeId id, std::span<const V3> good_frame) const {
    return dirty(id) ? values_[static_cast<size_t>(id)]
                     : Vec3<W>::Broadcast(good_frame[static_cast<size_t>(id)]);
  }

  /// Indices into the circuit's outputs inside the active cones: the
  /// only outputs that can differ from the good machine, so a detection scan
  /// only needs to look at these.
  const std::vector<int>& active_outputs() const { return active_outputs_; }

  /// Node evaluations performed by Step since construction
  /// (deterministic work measure; each counts 64*W machines).
  long gate_evals() const { return gate_evals_; }

 private:
  std::shared_ptr<const CompiledNetlist> compiled_;
  std::vector<Vec3<W>> values_;
  // Injections indexed by node id; empty vectors for untouched nodes.
  std::vector<std::vector<Injection>> by_node_;
  std::vector<std::uint32_t> touched_nodes_;

  int cone_size_ = 0;
  LaneMask<W> active_lanes_ = LaneMask<W>::All();  // lanes not yet dropped
  std::vector<char> in_cone_;                // activity mask, per node
  std::vector<char> dirty_;                  // vector differs from good
  std::vector<std::uint32_t> dirty_list_;    // nodes with dirty_ set
  std::vector<char> scheduled_;              // queued for eval this frame
  std::vector<std::vector<std::uint32_t>> buckets_;  // event queue, by level
  // Cone gates/POs carrying injections (node, lane mask): always
  // scheduled while any of their lanes is still active.
  std::vector<std::pair<std::uint32_t, LaneMask<W>>> forced_;
  std::vector<size_t> cone_dffs_;  // dff indices latched each frame
  std::vector<int> active_outputs_;

  std::vector<Vec3<W>> fanin_scratch_;
  long gate_evals_ = 0;
};

// The two widths are instantiated once in sim/parallel.cpp (64 and
// 512 lanes; see sim/simd.h for which run uses which).
extern template class WideFrame<1>;
extern template class WideFrame<8>;
extern template Vec3<1> EvalGateWide<1>(netlist::NodeKind,
                                        std::span<const Vec3<1>>);
extern template Vec3<8> EvalGateWide<8>(netlist::NodeKind,
                                        std::span<const Vec3<8>>);

}  // namespace retest::sim
