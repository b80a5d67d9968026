// Iterative-logic-array (time-frame-expanded) circuit model for
// sequential test generation.
//
// The sequential circuit is unrolled for a number of frames; the
// fault is injected in every frame; frame-0 DFF outputs carry the
// unknown initial state (uncontrollable X) unless the model is put in
// `free_state` mode, where they become pseudo-primary inputs (used for
// the combinational-redundancy proof).  Assignments live on the frame
// PIs; value updates are event-driven (only the affected cone is
// re-evaluated), and the model incrementally tracks everything PODEM
// polls every decision: fault-effect sites, primary-output effects and
// excitation frames.
//
// The model evaluates from a sim::CompiledNetlist: kinds, CSR fanins
// and fanouts, levels and the PI/DFF position tables.  One compiled
// image is shared read-only by every model of an ATPG run.
//
// The model is reusable: SetFault re-arms it for another fault of the
// same circuit and GrowFrames changes the unroll depth, both reusing
// the static controllability tables and every buffer (capacity is kept
// at its high-water mark), so a fault-parallel ATPG driver pays the
// construction cost once per worker instead of once per (fault, depth).
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "fault/fault.h"
#include "atpg/val5.h"
#include "sim/compiled.h"

namespace retest::atpg {

/// Identifies a primary input of a specific time frame.
struct FramePi {
  int frame = 0;
  int pi = 0;  ///< Index into Circuit::inputs().

  friend bool operator==(const FramePi&, const FramePi&) = default;
};

/// Identifies any node of a specific time frame.
struct FrameNode {
  int frame = 0;
  netlist::NodeId node = netlist::kNoNode;

  friend bool operator==(const FrameNode&, const FrameNode&) = default;
  friend auto operator<=>(const FrameNode&, const FrameNode&) = default;
};

class UnrolledModel {
 public:
  /// Builds a model with `frames` copies of `circuit` and `fault`
  /// injected in each.  `free_state` makes frame-0 DFF outputs
  /// assignable (pseudo-PIs) instead of pinned to X.  `observe_state`
  /// additionally treats the DFF data inputs of every frame as
  /// observation points (pseudo-primary outputs), which is what the
  /// combinational-redundancy proof needs.
  UnrolledModel(std::shared_ptr<const sim::CompiledNetlist> net,
                const fault::Fault& fault, int frames, bool free_state = false,
                bool observe_state = false);
  /// The same over a compiled image of `circuit` made for this model.
  UnrolledModel(const netlist::Circuit& circuit, const fault::Fault& fault,
                int frames, bool free_state = false,
                bool observe_state = false);

  const sim::CompiledNetlist& net() const { return *net_; }
  const fault::Fault& fault() const { return fault_; }
  int frames() const { return frames_; }
  bool free_state() const { return free_state_; }

  /// Clears every PI/state assignment back to X and re-derives all
  /// values and bookkeeping.  No allocation: restores the cached
  /// fault-free all-X baseline wholesale and re-evaluates only the
  /// injected fault's downstream cone, so re-arming costs O(values
  /// restored + cone) instead of a full Evaluate.
  void Reset();

  /// Re-arms the model for a different fault of the same circuit (and,
  /// when `frames` > 0, a different unroll depth) and Resets.  Reuses
  /// the static tables and value buffers; equivalent to constructing a
  /// fresh model with the same parameters.
  void SetFault(const fault::Fault& fault, int frames = 0);

  /// Changes the unroll depth (keeping the fault) and Resets.  Buffer
  /// capacity and the static controllability tables only ever grow
  /// (high-water mark), so a doubling search loop that later shrinks
  /// back to 1 frame for the next fault never re-allocates.
  void GrowFrames(int frames);

  /// Sets/clears a PI assignment (3-valued, applied to both machines)
  /// and propagates the change through the affected cone.
  void AssignPi(const FramePi& pi, sim::V3 value);
  sim::V3 PiValue(const FramePi& pi) const;

  /// Pseudo-PI (frame-0 state) assignment; requires free_state mode.
  void AssignState(int dff_index, sim::V3 value);

  /// Current frame-0 state assignments (free_state mode): the state
  /// cube a justification-based engine must realize.
  const std::vector<sim::V3>& StateAssignments() const {
    return state_assignments_;
  }

  /// Total node evaluations performed so far (work accounting).
  long evaluations() const { return evaluations_; }

  /// Value on a node in a frame.
  const V5& value(const FrameNode& node) const {
    return values_[index(node.frame, node.node)];
  }

  /// The value latched by DFF `dff_index` at the end of frame `t`
  /// (includes a fault on the DFF's data pin).
  V5 LatchedValue(int t, int dff_index) const;

  /// True when some (pseudo-)PO in some frame shows a fault effect.
  bool FaultObserved() const { return observed_count_ > 0; }

  /// True when the fault site is excited in some frame (the good value
  /// at the site differs from the stuck value).
  bool FaultExcited() const { return excited_count_ > 0; }

  /// Frames in which the fault site's good value is still unknown
  /// (activation candidates).
  std::vector<int> ActivationFrames() const;

  /// Gates on the D-frontier: output has an unknown component and at
  /// least one input carries a fault effect.  Derived from the
  /// incrementally-maintained set of fault-effect sites, in (frame,
  /// node) order and then in the Circuit's fanout order, which PODEM's
  /// objective choice depends on (the compiled fanouts are ordered by
  /// (sink, pin) instead).
  std::vector<FrameNode> DFrontier() const;

  /// True when node (frame, id) has at least one assignable input
  /// (a real PI, or a frame-0 state bit in free_state mode) in its
  /// transitive fanin cone -- i.e. backtracing from it can reach a
  /// decision point.
  bool Controllable(const FrameNode& node) const {
    return controllable_[index(node.frame, node.node)] != 0;
  }

  /// True when a *real* primary input (not a frame-0 state bit) lies in
  /// the node's cone.  Backtracing prefers such paths so free-state
  /// searches assign as few state bits as possible (cheaper
  /// justification).
  bool PiReachable(const FrameNode& node) const {
    return pi_reachable_[index(node.frame, node.node)] != 0;
  }

  /// The 3-valued input sequence currently assigned (X where
  /// unassigned); one vector per frame.  This is the test when the
  /// search succeeds.
  std::vector<std::vector<sim::V3>> InputSequence() const {
    return {assignments_.begin(),
            assignments_.begin() + static_cast<long>(frames_)};
  }

  /// Full from-scratch re-evaluation; used by tests to cross-check the
  /// incremental engine.  Returns the number of node evaluations.
  long Evaluate();

 private:
  size_t index(int frame, netlist::NodeId node) const {
    return static_cast<size_t>(frame) * num_nodes_ +
           static_cast<size_t>(node);
  }

  /// The net whose good value excites `fault` (the branch's driver for
  /// pin faults, the node itself for stem faults).
  netlist::NodeId ObserveNodeFor(const fault::Fault& fault) const;

  /// Grows every frame-major buffer and extends the static
  /// controllability/PI-reachability tables and the fault-free
  /// baseline up to `frames` (no-op for frames already built).
  void EnsureCapacity(int frames);

  /// Recomputes the value of (t, id) from its fanins and the fault
  /// injection; returns the new value.
  V5 Compute(int t, netlist::NodeId id) const;

  /// Installs a freshly computed value, updating the effect/excitation
  /// bookkeeping; returns true when the value changed.
  bool Install(int t, netlist::NodeId id, const V5& value);

  /// Schedules (t, id) for recomputation.
  void Touch(int t, netlist::NodeId id);

  /// Drains the event queue in (frame, level) order.
  void Propagate();

  /// Re-derives the pseudo-output observation for DFF `dff_index` at
  /// frame t (observe_state mode).
  void UpdateLatchedObservation(int t, int dff_index);

  std::shared_ptr<const sim::CompiledNetlist> net_;
  size_t num_nodes_;
  fault::Fault fault_;
  int frames_;
  int frames_built_ = 0;  ///< Capacity high-water mark (>= frames_).
  bool free_state_;
  bool observe_state_;
  /// The net whose good value excites the fault (the branch's driver
  /// for pin faults, the node itself for stem faults).
  netlist::NodeId observe_node_ = netlist::kNoNode;

  std::vector<std::vector<sim::V3>> assignments_;
  std::vector<sim::V3> state_assignments_;
  std::vector<V5> values_;        // [frame * size + node]
  /// Fault-free evaluation under all-X inputs and state (good ==
  /// faulty everywhere); the restore image Reset starts from.
  std::vector<V5> baseline_;
  std::vector<char> controllable_;
  std::vector<char> pi_reachable_;

  // Event queue: monotone bucket queue keyed by frame * (depth+2) +
  // level (processing a node only ever schedules larger keys), with a
  // dedup bitmap.
  std::vector<std::vector<netlist::NodeId>> buckets_;
  std::vector<char> queued_;
  size_t queue_cursor_ = 0;
  size_t queue_pending_ = 0;

  // Incremental bookkeeping.
  std::set<FrameNode> effect_nodes_;     // nodes carrying D/D'
  std::vector<char> latched_effect_;     // [frame * dffs + i], observe_state
  int observed_count_ = 0;               // (pseudo-)PO effect positions
  std::vector<char> excited_;            // per frame
  int excited_count_ = 0;
  long evaluations_ = 0;
};

}  // namespace retest::atpg
