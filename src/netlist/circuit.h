// Gate-level representation of synchronous sequential circuits.
//
// A Circuit is a set of nodes, each driving exactly one named net.
// Node kinds cover primary inputs/outputs, edge-triggered D flip-flops
// (DFFs) and the usual combinational gates.  This is the common
// substrate for the simulator, the fault model, the retiming engine and
// the ATPG: the paper's circuits (Section II) are exactly circuits of
// combinational gates plus DFFs with no global reset.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace retest::netlist {

/// Dense node identifier; indexes into Circuit::node().
using NodeId = std::int32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = -1;

/// The kind of a netlist node.  Every node drives exactly one net.
enum class NodeKind : std::uint8_t {
  kInput,   ///< Primary input; no fanin.
  kOutput,  ///< Primary output pin; exactly one fanin, drives nothing.
  kDff,     ///< Edge-triggered D flip-flop; one fanin (D), output is Q.
  kBuf,     ///< Buffer (identity), one fanin.
  kNot,     ///< Inverter, one fanin.
  kAnd,     ///< AND, >= 1 fanins.
  kNand,    ///< NAND, >= 1 fanins.
  kOr,      ///< OR, >= 1 fanins.
  kNor,     ///< NOR, >= 1 fanins.
  kXor,     ///< XOR (odd parity), >= 1 fanins.
  kXnor,    ///< XNOR (even parity), >= 1 fanins.
  kConst0,  ///< Constant 0, no fanin.
  kConst1,  ///< Constant 1, no fanin.
};

/// Human-readable name of a node kind ("AND", "DFF", ...).
std::string_view ToString(NodeKind kind);

/// True for the combinational gate kinds (kBuf..kXnor).  Inputs,
/// outputs, DFFs and constants are not gates.
bool IsGate(NodeKind kind);

/// True if the kind admits a variable number of fanins (AND/OR family
/// and XOR family).
bool IsVarArity(NodeKind kind);

/// One netlist node.  `fanin` lists driver node ids in pin order;
/// `fanout` is maintained by Circuit and lists every node that has this
/// node among its fanins (with multiplicity, in no particular order).
struct Node {
  NodeKind kind = NodeKind::kBuf;
  std::string name;            ///< Name of the driven net; unique.
  std::vector<NodeId> fanin;   ///< Driver of each input pin.
  std::vector<NodeId> fanout;  ///< Consumers (derived; see RebuildFanout).
};

/// A synchronous sequential circuit.
///
/// Invariants (checked by netlist::Check):
///  - node names are unique and non-empty;
///  - fanin arities match the node kind;
///  - every cycle passes through at least one DFF (the combinational
///    part is acyclic).
class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  /// Circuit name (used in reports and file headers).
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a node with the given kind/name/fanins and returns its id.
  /// Fanout lists are updated incrementally.
  NodeId Add(NodeKind kind, std::string name, std::vector<NodeId> fanin = {});

  /// Total number of nodes (of all kinds).
  int size() const { return static_cast<int>(nodes_.size()); }

  /// Node access by id.
  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }

  /// Replaces the fanin of `id` at pin `pin` with `driver`, fixing up
  /// both fanout lists.
  void Rewire(NodeId id, int pin, NodeId driver);

  /// Appends a fanin pin to `id` driven by `driver` (used to close DFF
  /// feedback loops during construction).
  void AddPin(NodeId id, NodeId driver);

  /// Looks up a node by net name; returns kNoNode when absent.
  NodeId Find(std::string_view name) const;

  /// All primary inputs, in creation order.
  const std::vector<NodeId>& inputs() const { return inputs_; }
  /// All primary outputs, in creation order.
  const std::vector<NodeId>& outputs() const { return outputs_; }
  /// All DFFs, in creation order.
  const std::vector<NodeId>& dffs() const { return dffs_; }

  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }
  int num_dffs() const { return static_cast<int>(dffs_.size()); }

  /// Number of combinational gates (excludes PIs, POs, DFFs, consts).
  int num_gates() const;

  /// Iterates all node ids [0, size()).
  std::vector<NodeId> AllNodes() const;

  /// Recomputes every node's fanout list from the fanin lists.  Needed
  /// after bulk surgery; Add/Rewire keep fanouts consistent already.
  void RebuildFanout();

  /// Returns a fresh name not used by any node, derived from `stem`:
  /// `stem` itself if free, else `stem_<i>` for the smallest free i.
  /// Calling it again without adding the name returns the same name.
  std::string FreshName(std::string_view stem);

 private:
  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> dffs_;
  std::unordered_map<std::string, NodeId> by_name_;
  /// FreshName's scan start per stem: the suffix it last returned.
  /// Names are never removed, so every lower suffix is still taken.
  std::unordered_map<std::string, int> next_suffix_;
};

}  // namespace retest::netlist
