// Sequential 3-valued logic simulator.
//
// Steps a synchronous circuit one input vector at a time, starting from
// an all-X state unless told otherwise.  This is the "structural"
// (3-valued) simulation of the paper: a sequence that drives every DFF
// to a binary value under this simulator is a structural-based
// synchronizing sequence.
#pragma once

#include <span>
#include <vector>

#include "netlist/circuit.h"
#include "sim/levelizer.h"
#include "sim/logic3.h"

namespace retest::sim {

/// An input vector: one V3 per primary input, in Circuit::inputs order.
using InputVector = std::vector<V3>;
/// A sequence of input vectors applied on consecutive clock cycles.
using InputSequence = std::vector<InputVector>;

/// Sequential 3-valued simulator over a fixed circuit.
class Simulator {
 public:
  explicit Simulator(const netlist::Circuit& circuit);

  const netlist::Circuit& circuit() const { return *circuit_; }

  /// Resets every DFF to `init` (default: unknown).
  void Reset(V3 init = V3::kX);

  /// Overwrites the DFF state (Circuit::dffs order).
  void SetState(std::span<const V3> state);

  /// Current DFF state (Circuit::dffs order).
  std::vector<V3> State() const;

  /// True when every DFF holds a binary (non-X) value.
  bool StateIsBinary() const;

  /// Applies one input vector: evaluates the combinational logic, then
  /// clocks the DFFs.  Returns the primary output values observed
  /// *before* the clock edge (Mealy semantics).
  std::vector<V3> Step(std::span<const V3> inputs);

  /// Applies a whole sequence; returns the PO values of each step.
  std::vector<std::vector<V3>> Run(const InputSequence& sequence);

  /// Value currently on a node's output net (valid after a Step).
  V3 value(netlist::NodeId id) const {
    return values_[static_cast<size_t>(id)];
  }

 private:
  void EvaluateCombinational(std::span<const V3> inputs);

  const netlist::Circuit* circuit_;
  Levelization levels_;
  std::vector<V3> values_;  // per node
  std::vector<V3> state_;   // per DFF
};

/// Full per-node value trace of a good-machine run.
///
/// Records, for every frame t of a sequence, the value of every node's
/// output net (DFF nodes carry their pre-edge Q value, exactly what a
/// frame evaluator seeds from).  The cone-restricted fault simulator
/// shares one read-only Trace across all fault batches: any node
/// outside a batch's fanout cones behaves identically to the good
/// machine, so its value can be taken from here instead of being
/// re-evaluated.
class Trace {
 public:
  Trace() = default;
  /// Simulates `sequence` from the all-X state and records every frame.
  Trace(const netlist::Circuit& circuit, const InputSequence& sequence);

  size_t num_frames() const { return frames_; }

  /// All node values at frame t, indexed by NodeId.
  std::span<const V3> frame(size_t t) const {
    return {values_.data() + t * num_nodes_, num_nodes_};
  }

  /// One node's value at frame t (a primary output's node included).
  V3 value(size_t t, netlist::NodeId id) const {
    return values_[t * num_nodes_ + static_cast<size_t>(id)];
  }

 private:
  size_t frames_ = 0;
  size_t num_nodes_ = 0;
  std::vector<V3> values_;  // frames_ x num_nodes_, frame-major
};

}  // namespace retest::sim
