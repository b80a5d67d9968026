// Flattened, levelized structure-of-arrays image of a Circuit.
//
// netlist::Circuit optimizes for construction and surgery: per-node
// std::vector fanin/fanout lists, names, incremental rewiring.  The
// simulation hot path wants the opposite — every EvalGate call walking
// `node(id).fanin` chases two pointers per gate and scatters the
// working set across the heap.  CompiledNetlist flattens the circuit
// once into dense 32-bit CSR arrays:
//
//   * `fanin` / `fanin_begin`: every node's drivers, concatenated;
//   * `fanout` / `fanout_begin`: every node's consumers, concatenated;
//   * `schedule` / `level_begin`: the evaluation order of the
//     combinational part (gates and output pins; sources excluded) in
//     level-contiguous runs, each run sorted by (kind, id) so the
//     evaluator's kind dispatch runs in monotone batches;
//   * source/sink tables (`inputs`, `outputs`, `dffs`, `dff_data`,
//     `output_src`, `pi_index`, `dff_index`) so frame evaluators never
//     consult the Circuit at all inside the clock loop;
//   * `pi_reachable`: whether a primary input lies in a node's
//     combinational fanin cone (the backtrace preference of the ATPG
//     searches);
//   * `register_reachable`: whether a DFF's data driver lies in a
//     node's combinational fanout cone (a fault elsewhere cannot change
//     what the registers latch within one frame, which the ATPG's
//     justification memo relies on).
//
// A CompiledNetlist is immutable after construction and safe to share
// read-only across threads; the PROOFS batch workers all evaluate
// against one instance, and so do the workers of one ATPG run.  The
// source Circuit must outlive it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/circuit.h"
#include "sim/levelizer.h"

namespace retest::sim {

class CompiledNetlist {
 public:
  /// Flattens `circuit` (throws, via Levelize, on combinational
  /// cycles).  The circuit reference is retained.
  explicit CompiledNetlist(const netlist::Circuit& circuit);

  const netlist::Circuit& circuit() const { return *circuit_; }

  std::int32_t num_nodes() const { return num_nodes_; }
  int depth() const { return depth_; }

  netlist::NodeKind kind(std::uint32_t id) const { return kind_[id]; }
  std::int32_t level(std::uint32_t id) const { return level_[id]; }

  /// Drivers of `id`, in pin order.
  std::span<const std::uint32_t> fanins(std::uint32_t id) const {
    return {fanin_.data() + fanin_begin_[id],
            fanin_begin_[id + 1] - fanin_begin_[id]};
  }

  /// Consumers of `id` (with multiplicity, in deterministic order).
  std::span<const std::uint32_t> fanouts(std::uint32_t id) const {
    return {fanout_.data() + fanout_begin_[id],
            fanout_begin_[id + 1] - fanout_begin_[id]};
  }

  /// Evaluation order of the combinational part: every gate and output
  /// pin exactly once, levels ascending.  Sources (PIs, DFFs,
  /// constants) are seeded by the frame evaluator and never appear.
  std::span<const std::uint32_t> schedule() const { return schedule_; }

  /// The slice of schedule() at `lvl`; runs are contiguous and sorted
  /// by (kind, id) within each level.
  std::span<const std::uint32_t> schedule_at(int lvl) const {
    const auto l = static_cast<size_t>(lvl);
    return {schedule_.data() + level_begin_[l],
            level_begin_[l + 1] - level_begin_[l]};
  }

  std::span<const std::uint32_t> inputs() const { return inputs_; }
  std::span<const std::uint32_t> outputs() const { return outputs_; }
  std::span<const std::uint32_t> dffs() const { return dffs_; }

  /// Driver of DFF i's data pin (Circuit::dffs order).
  std::uint32_t dff_data(size_t i) const { return dff_data_[i]; }
  /// Driver observed by output pin o (Circuit::outputs order).
  std::uint32_t output_src(size_t o) const { return output_src_[o]; }
  /// Primary-input position of a node, -1 for non-PI nodes.
  std::int32_t pi_index(std::uint32_t id) const { return pi_index_[id]; }
  /// DFF position of a node (Circuit::dffs order), -1 for non-DFF nodes.
  std::int32_t dff_index(std::uint32_t id) const { return dff_index_[id]; }
  /// True when a primary input lies in the node's combinational fanin
  /// cone; DFF outputs end the cone (a PI is reachable from itself).
  bool pi_reachable(std::uint32_t id) const { return pi_reachable_[id] != 0; }
  /// True when some DFF's data driver lies in the node's combinational
  /// fanout cone; DFFs end the cone (a data driver reaches itself).
  bool register_reachable(std::uint32_t id) const {
    return register_reachable_[id] != 0;
  }

 private:
  const netlist::Circuit* circuit_;
  std::int32_t num_nodes_ = 0;
  int depth_ = 0;
  std::vector<netlist::NodeKind> kind_;
  std::vector<std::int32_t> level_;
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<std::uint32_t> fanin_;
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanout_;
  std::vector<std::uint32_t> schedule_;
  std::vector<std::uint32_t> level_begin_;
  std::vector<std::uint32_t> inputs_;
  std::vector<std::uint32_t> outputs_;
  std::vector<std::uint32_t> dffs_;
  std::vector<std::uint32_t> dff_data_;
  std::vector<std::uint32_t> output_src_;
  std::vector<std::int32_t> pi_index_;
  std::vector<std::int32_t> dff_index_;
  std::vector<char> pi_reachable_;
  std::vector<char> register_reachable_;
};

/// Builds a shareable CompiledNetlist (the form the PROOFS dispatcher
/// hands to its batch workers).
std::shared_ptr<const CompiledNetlist> Compile(
    const netlist::Circuit& circuit);

}  // namespace retest::sim
