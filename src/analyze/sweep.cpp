#include "analyze/sweep.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "core/metrics.h"
#include "sim/levelizer.h"
#include "sim/simulator.h"

namespace retest::analyze {

using netlist::Circuit;
using netlist::kNoNode;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;
using sim::V3;

namespace {

/// True for the kinds whose fanin order is irrelevant (every variadic
/// gate family; BUF/NOT are single-input so sorting is harmless).
bool IsCommutative(NodeKind kind) {
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

/// True when duplicate fanins can be dropped without changing the
/// ternary function: v AND v == v and v OR v == v (the outer inversion
/// of NAND/NOR commutes with the drop).  NOT true for the XOR family,
/// where multiplicity is parity-relevant (and X^X == X, not 0).
bool IsIdempotent(NodeKind kind) {
  switch (kind) {
    case NodeKind::kAnd:
    case NodeKind::kNand:
    case NodeKind::kOr:
    case NodeKind::kNor:
      return true;
    default:
      return false;
  }
}

/// The constant value a fanin may absorb without changing the gate's
/// function (AND/NAND: 1, OR/NOR: 0, XOR/XNOR: 0), or kX when the kind
/// has no neutral element.
V3 NeutralValue(NodeKind kind) {
  switch (kind) {
    case NodeKind::kAnd:
    case NodeKind::kNand:
      return V3::k1;
    case NodeKind::kOr:
    case NodeKind::kNor:
    case NodeKind::kXor:
    case NodeKind::kXnor:
      return V3::k0;
    default:
      return V3::kX;
  }
}

/// Node visitation order: levels ascending, node id ascending within a
/// level.  Fanins always precede their sinks, and the order is a pure
/// function of the structure, so class representatives (first member
/// seen) are deterministic across platforms.
std::vector<NodeId> SweepOrder(const Circuit& circuit,
                               const sim::Levelization& levels) {
  std::vector<NodeId> order(static_cast<size_t>(circuit.size()));
  for (NodeId id = 0; id < circuit.size(); ++id) {
    order[static_cast<size_t>(id)] = id;
  }
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const int la = levels.level[static_cast<size_t>(a)];
    const int lb = levels.level[static_cast<size_t>(b)];
    if (la != lb) return la < lb;
    return a < b;
  });
  return order;
}

/// One fixpoint round of class assignment.  `dff_class` carries the
/// DFF partition from the previous round (self-classes initially).
struct CombPassState {
  std::vector<NodeId> class_of;
  std::vector<V3> const_of;
  int rule_strash = 0;
  int rule_alias = 0;
  int rule_const = 0;
};

/// Signature of a gate: kind plus canonicalized fanin classes.
using Signature = std::pair<NodeKind, std::vector<NodeId>>;

CombPassState CombPass(const Circuit& circuit,
                       const std::vector<NodeId>& order,
                       const std::vector<NodeId>& dff_class,
                       const SweepOptions& options) {
  const auto n = static_cast<size_t>(circuit.size());
  CombPassState st;
  st.class_of.assign(n, kNoNode);
  st.const_of.assign(n, V3::kX);
  // Canonical class per constant value; at most one of each survives.
  NodeId const_rep[2] = {kNoNode, kNoNode};
  std::map<Signature, NodeId> table;
  std::map<NodeId, size_t> dff_index;
  for (size_t i = 0; i < circuit.dffs().size(); ++i) {
    dff_index.emplace(circuit.dffs()[i], i);
  }

  std::vector<V3> fanin_values;
  std::vector<NodeId> fanin_reps;
  for (const NodeId id : order) {
    const Node& node = circuit.node(id);
    const auto uid = static_cast<size_t>(id);
    switch (node.kind) {
      case NodeKind::kInput:
        st.class_of[uid] = id;
        continue;
      case NodeKind::kDff:
        st.class_of[uid] = dff_class[dff_index.at(id)];
        continue;
      case NodeKind::kOutput:
        // Output pins are observation points, never merged; their net
        // mirrors the fanin (useful for constants-at-PO reporting).
        st.class_of[uid] = id;
        st.const_of[uid] = node.fanin.empty()
                               ? V3::kX
                               : st.const_of[static_cast<size_t>(node.fanin[0])];
        continue;
      case NodeKind::kConst0:
      case NodeKind::kConst1: {
        const V3 value =
            node.kind == NodeKind::kConst1 ? V3::k1 : V3::k0;
        st.const_of[uid] = value;
        NodeId& rep = const_rep[value == V3::k1 ? 1 : 0];
        if (rep == kNoNode) rep = id;
        st.class_of[uid] = rep;
        continue;
      }
      default:
        break;  // combinational gate, handled below
    }

    fanin_values.clear();
    fanin_reps.clear();
    for (const NodeId driver : node.fanin) {
      fanin_values.push_back(st.const_of[static_cast<size_t>(driver)]);
      fanin_reps.push_back(st.class_of[static_cast<size_t>(driver)]);
    }

    // Constant folding: the gate's ternary value over the proven
    // constants (everything else X).  A non-X result holds for every
    // refinement of the X inputs — frame 0 with all-X DFFs included —
    // so it is safe for bit-identical simulation.
    if (options.const_prop) {
      const V3 value = sim::EvalGate3(node.kind, fanin_values);
      if (value != V3::kX) {
        st.const_of[uid] = value;
        ++st.rule_const;
        NodeId& rep = const_rep[value == V3::k1 ? 1 : 0];
        if (rep == kNoNode) rep = id;
        st.class_of[uid] = rep;
        continue;
      }
    }

    if (!options.strash) {
      st.class_of[uid] = id;
      continue;
    }

    // Alias detection: when exactly one distinct non-constant fanin
    // class survives, test whether the gate is the identity on it by
    // evaluating the gate with that class at 0, 1 and X (constants
    // fixed).  This catches BUF(x), AND(x, x, 1), XNOR(x, 1), ... with
    // the same evaluator the simulators use, so it is sound by
    // construction (including the X row, which rejects e.g. XOR(x,x)).
    NodeId survivor = kNoNode;
    bool single_survivor = true;
    for (size_t pin = 0; pin < fanin_reps.size(); ++pin) {
      if (fanin_values[pin] != V3::kX) continue;  // absorbed constant
      if (survivor == kNoNode) {
        survivor = fanin_reps[pin];
      } else if (fanin_reps[pin] != survivor) {
        single_survivor = false;
        break;
      }
    }
    if (single_survivor && survivor != kNoNode) {
      bool identity = true;
      for (const V3 probe : {V3::k0, V3::k1, V3::kX}) {
        std::vector<V3> probe_values = fanin_values;
        for (size_t pin = 0; pin < probe_values.size(); ++pin) {
          if (fanin_values[pin] == V3::kX) probe_values[pin] = probe;
        }
        if (sim::EvalGate3(node.kind, probe_values) != probe) {
          identity = false;
          break;
        }
      }
      if (identity) {
        st.class_of[uid] = survivor;
        ++st.rule_alias;
        continue;
      }
    }

    // Structural hashing on (kind, canonical fanin classes).
    Signature sig{node.kind, fanin_reps};
    if (IsCommutative(node.kind)) {
      std::sort(sig.second.begin(), sig.second.end());
    }
    if (IsIdempotent(node.kind)) {
      sig.second.erase(std::unique(sig.second.begin(), sig.second.end()),
                       sig.second.end());
    }
    const auto [it, inserted] = table.emplace(std::move(sig), id);
    if (inserted) {
      st.class_of[uid] = id;
    } else {
      st.class_of[uid] = it->second;
      ++st.rule_strash;
    }
  }
  return st;
}

/// Backward reachability from the primary outputs over fanin edges
/// (DFF data pins included, so liveness crosses register boundaries).
std::vector<char> DeadPass(const Circuit& circuit) {
  const auto n = static_cast<size_t>(circuit.size());
  std::vector<char> live(n, 0);
  std::vector<NodeId> stack;
  for (const NodeId id : circuit.outputs()) {
    live[static_cast<size_t>(id)] = 1;
    stack.push_back(id);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (const NodeId driver : circuit.node(id).fanin) {
      if (live[static_cast<size_t>(driver)] == 0) {
        live[static_cast<size_t>(driver)] = 1;
        stack.push_back(driver);
      }
    }
  }
  std::vector<char> dead(n, 0);
  for (size_t id = 0; id < n; ++id) dead[id] = live[id] == 0 ? 1 : 0;
  return dead;
}

}  // namespace

SweepReport AnalyzeSweep(const Circuit& circuit, const SweepOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const auto n = static_cast<size_t>(circuit.size());
  const sim::Levelization levels = sim::Levelize(circuit);
  const std::vector<NodeId> order = SweepOrder(circuit, levels);

  // DFF partition, refined to a fixpoint: a round's combinational
  // classes regroup the DFFs by data class, and coarser DFF classes
  // can only enable further combinational merges, so the iteration
  // climbs the partition lattice monotonically and terminates.
  std::vector<NodeId> dff_class(circuit.dffs().size());
  for (size_t i = 0; i < dff_class.size(); ++i) {
    dff_class[i] = circuit.dffs()[i];
  }

  SweepReport report;
  CombPassState st;
  bool converged = false;
  // Each changed round merges at least one DFF group, so num_dffs + 2
  // rounds always suffice; the cap is pure insurance.
  const int max_rounds = circuit.num_dffs() + 2;
  for (int round = 0; round < max_rounds && !converged; ++round) {
    st = CombPass(circuit, order, dff_class, options);
    ++report.iterations;
    converged = true;
    if (options.strash) {
      std::map<NodeId, NodeId> group_rep;  // data class -> first DFF
      for (size_t i = 0; i < circuit.dffs().size(); ++i) {
        const Node& dff = circuit.node(circuit.dffs()[i]);
        if (dff.fanin.empty()) continue;  // malformed; leave self-class
        const NodeId data_rep =
            st.class_of[static_cast<size_t>(dff.fanin[0])];
        const auto [it, inserted] =
            group_rep.emplace(data_rep, circuit.dffs()[i]);
        if (dff_class[i] != it->second) {
          dff_class[i] = it->second;
          converged = false;
        }
      }
    }
  }
  if (!converged) {
    // Cap hit (should be unreachable): a DFF merge might not be
    // re-justified by the final class assignment, so drop DFF merging
    // entirely rather than keep a potentially inconsistent partition.
    for (size_t i = 0; i < dff_class.size(); ++i) {
      dff_class[i] = circuit.dffs()[i];
    }
    st = CombPass(circuit, order, dff_class, options);
    ++report.iterations;
  }

  report.class_of = std::move(st.class_of);
  report.const_of = std::move(st.const_of);
  report.rule_strash = st.rule_strash;
  report.rule_alias = st.rule_alias;
  report.rule_const = st.rule_const;
  report.dead = options.dead_logic ? DeadPass(circuit)
                                   : std::vector<char>(n, 0);

  std::vector<char> seen_class(n, 0);
  for (NodeId id = 0; id < circuit.size(); ++id) {
    const auto uid = static_cast<size_t>(id);
    const Node& node = circuit.node(id);
    const NodeId rep = report.class_of[uid];
    if (seen_class[static_cast<size_t>(rep)] == 0) {
      seen_class[static_cast<size_t>(rep)] = 1;
      ++report.num_classes;
    }
    const bool is_source = node.kind == NodeKind::kInput ||
                           node.kind == NodeKind::kOutput ||
                           node.kind == NodeKind::kConst0 ||
                           node.kind == NodeKind::kConst1;
    if (rep != id && report.const_of[uid] == V3::kX) ++report.merged_gates;
    if (report.const_of[uid] != V3::kX && !is_source &&
        node.kind != NodeKind::kDff) {
      ++report.constant_gates;
    }
    if (node.kind == NodeKind::kDff && rep != id) ++report.rule_dff;
    if (report.dead[uid] != 0 && node.kind != NodeKind::kInput &&
        node.kind != NodeKind::kOutput) {
      ++report.dead_nodes;
    }
  }

  report.analyze_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  RETEST_COUNTER_ADD("sweep.runs", "runs", "sweep",
                     "AnalyzeSweep invocations", 1);
  RETEST_COUNTER_ADD("sweep.classes", "classes", "sweep",
                     "equivalence classes found", report.num_classes);
  RETEST_COUNTER_ADD("sweep.merged", "nodes", "sweep",
                     "nodes merged into an earlier class member",
                     report.merged_gates);
  RETEST_COUNTER_ADD("sweep.constants", "nodes", "sweep",
                     "gates proven constant", report.constant_gates);
  RETEST_COUNTER_ADD("sweep.dead", "nodes", "sweep",
                     "dead nodes (no path to any PO)", report.dead_nodes);
  RETEST_DIST_RECORD("sweep.analyze_ms", "ms", "sweep",
                     "wall time of one sweep analysis", report.analyze_ms);
  return report;
}

namespace {

/// The fanin classes a representative's swept emission references:
/// neutral constants dropped, duplicates deduplicated for idempotent
/// kinds.  Used both for keep-marking and for emission so the swept
/// circuit never contains an unreferenced (newly dead) constant.
std::vector<NodeId> EmissionFanins(const Circuit& circuit,
                                   const SweepReport& report,
                                   NodeId rep) {
  const Node& node = circuit.node(rep);
  const V3 neutral = NeutralValue(node.kind);
  std::vector<NodeId> fanins;
  fanins.reserve(node.fanin.size());
  for (const NodeId driver : node.fanin) {
    const V3 value = report.const_of[static_cast<size_t>(driver)];
    if (neutral != V3::kX && value == neutral) continue;
    const NodeId cls = report.class_of[static_cast<size_t>(driver)];
    if (IsIdempotent(node.kind) &&
        std::find(fanins.begin(), fanins.end(), cls) != fanins.end()) {
      continue;
    }
    fanins.push_back(cls);
  }
  // All fanins neutral would make the gate constant, which is handled
  // as a constant class; keep the raw classes defensively anyway.
  if (fanins.empty()) {
    for (const NodeId driver : node.fanin) {
      fanins.push_back(report.class_of[static_cast<size_t>(driver)]);
    }
  }
  return fanins;
}

}  // namespace

SweptNetlist BuildSweptNetlist(const Circuit& circuit,
                               const SweepOptions& options) {
  SweptNetlist out;
  out.report = AnalyzeSweep(circuit, options);
  const SweepReport& report = out.report;
  const auto n = static_cast<size_t>(circuit.size());
  out.node_map.assign(n, kNoNode);
  out.circuit.set_name(circuit.name());

  const sim::Levelization levels = sim::Levelize(circuit);
  const std::vector<NodeId> order = SweepOrder(circuit, levels);

  // Keep-marking over representatives: a class is emitted when some
  // PO (transitively, through emission fanins and DFF data pins)
  // references it.  PIs and POs are always kept — the interface
  // contract — even when dead.
  std::vector<char> keep(n, 0);
  std::vector<NodeId> stack;
  auto mark = [&](NodeId rep) {
    if (keep[static_cast<size_t>(rep)] != 0) return;
    keep[static_cast<size_t>(rep)] = 1;
    stack.push_back(rep);
  };
  for (const NodeId po : circuit.outputs()) {
    const Node& node = circuit.node(po);
    if (!node.fanin.empty()) {
      mark(report.class_of[static_cast<size_t>(node.fanin[0])]);
    }
  }
  while (!stack.empty()) {
    const NodeId rep = stack.back();
    stack.pop_back();
    const Node& node = circuit.node(rep);
    if (node.kind == NodeKind::kInput || node.kind == NodeKind::kConst0 ||
        node.kind == NodeKind::kConst1 || report.IsConst(rep)) {
      continue;  // sources / constant emissions reference nothing
    }
    if (node.kind == NodeKind::kDff) {
      if (!node.fanin.empty()) {
        mark(report.class_of[static_cast<size_t>(node.fanin[0])]);
      }
      continue;
    }
    for (const NodeId cls : EmissionFanins(circuit, report, rep)) {
      mark(cls);
    }
  }

  // Emission: PIs first (in order), then representatives in (level,
  // id) order — every emission fanin is an earlier representative —
  // then output pins (in order), then DFF data pins (drivers may sit
  // anywhere in the order, so they are closed last via AddPin).
  for (const NodeId pi : circuit.inputs()) {
    out.node_map[static_cast<size_t>(pi)] = out.circuit.Add(
        NodeKind::kInput, circuit.node(pi).name);
  }
  std::vector<std::pair<NodeId, NodeId>> dff_data;  // (new dff, old rep)
  for (const NodeId id : order) {
    const auto uid = static_cast<size_t>(id);
    if (report.class_of[uid] != id) continue;  // not a representative
    if (keep[uid] == 0) continue;              // dead class
    const Node& node = circuit.node(id);
    if (node.kind == NodeKind::kInput || node.kind == NodeKind::kOutput) {
      continue;  // PIs done, POs below
    }
    if (report.IsConst(id)) {
      out.node_map[uid] = out.circuit.Add(
          report.const_of[uid] == V3::k1 ? NodeKind::kConst1
                                         : NodeKind::kConst0,
          node.name);
      continue;
    }
    if (node.kind == NodeKind::kDff) {
      const NodeId swept = out.circuit.Add(NodeKind::kDff, node.name);
      out.node_map[uid] = swept;
      dff_data.emplace_back(swept, id);
      continue;
    }
    std::vector<NodeId> fanins;
    for (const NodeId cls : EmissionFanins(circuit, report, id)) {
      fanins.push_back(out.node_map[static_cast<size_t>(cls)]);
    }
    out.node_map[uid] = out.circuit.Add(node.kind, node.name,
                                        std::move(fanins));
  }
  for (const NodeId po : circuit.outputs()) {
    const Node& node = circuit.node(po);
    const NodeId src = out.node_map[static_cast<size_t>(
        report.class_of[static_cast<size_t>(node.fanin[0])])];
    out.node_map[static_cast<size_t>(po)] =
        out.circuit.Add(NodeKind::kOutput, node.name, {src});
  }
  for (const auto& [swept, rep] : dff_data) {
    const Node& node = circuit.node(rep);
    out.circuit.AddPin(swept, out.node_map[static_cast<size_t>(
                                  report.class_of[static_cast<size_t>(
                                      node.fanin[0])])]);
  }

  // Close the total map: every member follows its representative.
  for (size_t id = 0; id < n; ++id) {
    if (out.node_map[id] == kNoNode) {
      const NodeId rep = report.class_of[id];
      out.node_map[id] = out.node_map[static_cast<size_t>(rep)];
    }
  }
  return out;
}

namespace {

/// Deterministic ternary stimulus generator (splitmix64 core, same
/// recurrence the test harness uses; self-contained so the library
/// does not depend on test headers).
class StimulusRng {
 public:
  explicit StimulusRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Mostly-binary values with a 25% X rate: X-laden enough to prove
  /// ternary agreement, binary enough to exercise real propagation.
  V3 Value() {
    const std::uint64_t r = Next() & 3;
    if (r == 3) return V3::kX;
    return (r & 1) != 0 ? V3::k1 : V3::k0;
  }

 private:
  std::uint64_t state_;
};

}  // namespace

SweepVerdict VerifySweep(const Circuit& original, const SweptNetlist& swept) {
  SweepVerdict verdict;
  auto fail = [&](std::string detail) {
    verdict.ok = false;
    verdict.detail = std::move(detail);
    return verdict;
  };
  if (swept.node_map.size() != static_cast<size_t>(original.size())) {
    return fail("node map is not total over the original circuit");
  }
  if (original.num_inputs() != swept.circuit.num_inputs() ||
      original.num_outputs() != swept.circuit.num_outputs()) {
    return fail("swept circuit changed the PI/PO interface shape");
  }
  for (int i = 0; i < original.num_inputs(); ++i) {
    const NodeId pi = original.inputs()[static_cast<size_t>(i)];
    const NodeId mapped = swept.node_map[static_cast<size_t>(pi)];
    if (mapped != swept.circuit.inputs()[static_cast<size_t>(i)] ||
        original.node(pi).name != swept.circuit.node(mapped).name) {
      return fail("PI " + original.node(pi).name +
                  " lost its position or name");
    }
  }
  for (int o = 0; o < original.num_outputs(); ++o) {
    const NodeId po = original.outputs()[static_cast<size_t>(o)];
    const NodeId mapped = swept.node_map[static_cast<size_t>(po)];
    if (mapped != swept.circuit.outputs()[static_cast<size_t>(o)] ||
        original.node(po).name != swept.circuit.node(mapped).name) {
      return fail("PO " + original.node(po).name +
                  " lost its position or name");
    }
  }
  for (size_t id = 0; id < swept.node_map.size(); ++id) {
    const NodeId mapped = swept.node_map[id];
    if (mapped == kNoNode) {
      // Unmapped is only legal when the value is still fully known:
      // dead (never read by anything live) or a proven constant whose
      // value const_of records (folded into every consumer).
      if (!swept.report.IsDead(static_cast<NodeId>(id)) &&
          !swept.report.IsConst(static_cast<NodeId>(id))) {
        return fail("live non-constant node " +
                    original.node(static_cast<NodeId>(id)).name +
                    " has no swept image");
      }
      continue;
    }
    if (mapped < 0 || mapped >= swept.circuit.size()) {
      return fail("node map points outside the swept circuit");
    }
  }

  constexpr int kSequences = 6;
  constexpr int kFrames = 12;
  StimulusRng rng(0x5eedc0de5eedc0deULL);
  for (int s = 0; s < kSequences; ++s) {
    sim::Simulator a(original);
    sim::Simulator b(swept.circuit);
    a.Reset();
    b.Reset();
    for (int t = 0; t < kFrames; ++t) {
      sim::InputVector vector(static_cast<size_t>(original.num_inputs()));
      for (V3& v : vector) v = rng.Value();
      const auto po_a = a.Step(vector);
      const auto po_b = b.Step(vector);
      if (po_a != po_b) {
        return fail("PO responses diverge at sequence " +
                    std::to_string(s) + " frame " + std::to_string(t));
      }
      for (NodeId id = 0; id < original.size(); ++id) {
        const NodeId mapped = swept.node_map[static_cast<size_t>(id)];
        if (mapped == kNoNode) {
          // A folded constant must match the proven value exactly, in
          // every frame (the swept Trace replays it from const_of).
          if (swept.report.IsConst(id) &&
              a.value(id) != swept.report.const_of[static_cast<size_t>(id)]) {
            return fail("node " + original.node(id).name +
                        " diverges from its proven constant at sequence " +
                        std::to_string(s) + " frame " + std::to_string(t));
          }
          continue;
        }
        if (a.value(id) != b.value(mapped)) {
          return fail("node " + original.node(id).name +
                      " diverges from its swept image " +
                      swept.circuit.node(mapped).name + " at sequence " +
                      std::to_string(s) + " frame " + std::to_string(t));
        }
      }
    }
  }
  return verdict;
}

}  // namespace retest::analyze
