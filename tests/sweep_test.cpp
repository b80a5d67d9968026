// Tests for the structural sweep analysis (analyze/sweep.h, reported by
// `repro_lint --sweep`): the determinism gate on randomized circuits,
// constant and dead-logic detection, idempotence, report consistency,
// and the collapse representative ordering contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "analyze/sweep.h"
#include "fault/collapse.h"
#include "netlist/builder.h"
#include "tests/random_circuits.h"

namespace retest::analyze {
namespace {

using netlist::Builder;
using netlist::Circuit;
using netlist::kNoNode;
using netlist::NodeId;
using netlist::NodeKind;
using sim::V3;

/// Node-by-node structural equality (kinds, names, fanins) — the
/// strong form of circuit identity the idempotence contract promises.
void ExpectSameStructure(const Circuit& a, const Circuit& b) {
  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < a.size(); ++id) {
    const auto& na = a.node(id);
    const auto& nb = b.node(id);
    EXPECT_EQ(na.kind, nb.kind) << "node " << id;
    EXPECT_EQ(na.name, nb.name) << "node " << id;
    EXPECT_EQ(na.fanin, nb.fanin) << "node " << id;
  }
}

TEST(Sweep, RandomizedCircuitsVerifyAndStayTotal) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    retest::testing::RandomCircuitOptions options;
    options.num_inputs = 3 + static_cast<int>(seed % 3);
    options.num_dffs = 2 + static_cast<int>(seed % 4);
    options.num_gates = 12 + static_cast<int>(seed % 9);
    const Circuit circuit = retest::testing::MakeRandomCircuit(seed, options);
    const SweptNetlist swept = BuildSweptNetlist(circuit);
    const SweepVerdict verdict = VerifySweep(circuit, swept);
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.detail;
    // Node-map totality: unmapped only when the value is still known.
    for (NodeId id = 0; id < circuit.size(); ++id) {
      if (swept.node_map[static_cast<size_t>(id)] == kNoNode) {
        EXPECT_TRUE(swept.report.IsDead(id) || swept.report.IsConst(id))
            << "seed " << seed << " node " << id;
      }
    }
  }
}

TEST(Sweep, ConstantsAtPrimaryOutputs) {
  // POs fed by a tied source, a gate proven constant, and live logic
  // mixing a constant in — the constants must survive the sweep with
  // identical PO behaviour, X-laden stimuli included.
  Circuit circuit("const_po");
  const NodeId x = circuit.Add(NodeKind::kInput, "x");
  const NodeId one = circuit.Add(NodeKind::kConst1, "one");
  const NodeId zero = circuit.Add(NodeKind::kConst0, "zero");
  const NodeId dead_and = circuit.Add(NodeKind::kAnd, "g_and0", {x, zero});
  const NodeId or_one = circuit.Add(NodeKind::kOr, "g_or1", {x, one});
  const NodeId keep = circuit.Add(NodeKind::kAnd, "g_keep", {x, one});
  const NodeId xor_one = circuit.Add(NodeKind::kXor, "g_x1", {x, one});
  circuit.Add(NodeKind::kOutput, "z_const0", {dead_and});
  circuit.Add(NodeKind::kOutput, "z_const1", {or_one});
  circuit.Add(NodeKind::kOutput, "z_live", {keep});
  circuit.Add(NodeKind::kOutput, "z_inv", {xor_one});
  circuit.Add(NodeKind::kOutput, "z_tied", {one});

  const SweptNetlist swept = BuildSweptNetlist(circuit);
  const SweepVerdict verdict = VerifySweep(circuit, swept);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_TRUE(swept.report.IsConst(dead_and));
  EXPECT_EQ(swept.report.const_of[static_cast<size_t>(dead_and)], V3::k0);
  EXPECT_TRUE(swept.report.IsConst(or_one));
  EXPECT_EQ(swept.report.const_of[static_cast<size_t>(or_one)], V3::k1);
  // AND(x, 1) aliases to x; XOR(x, 1) is live (it inverts), not const.
  EXPECT_EQ(swept.report.class_of[static_cast<size_t>(keep)],
            swept.report.class_of[static_cast<size_t>(x)]);
  EXPECT_FALSE(swept.report.IsConst(xor_one));
  EXPECT_EQ(swept.report.constant_gates, 2);
}

TEST(Sweep, AllDeadConeIncludingRegisterLoop) {
  // A register loop plus its cone feed nothing observable; only the
  // buffer path x -> z is live.
  Builder builder("deadcone");
  builder.Input("x");
  builder.Dff("q");
  builder.Not("g_inv", "q");
  builder.And("g_mix", {"g_inv", "x"});
  builder.SetDffInput("q", "g_mix");
  builder.Buf("g_live", "x");
  builder.Output("z", "g_live");
  const Circuit circuit = builder.Build();

  const SweptNetlist swept = BuildSweptNetlist(circuit);
  const SweepVerdict verdict = VerifySweep(circuit, swept);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_EQ(swept.report.dead_nodes, 3);  // q, g_inv, g_mix
  for (const char* name : {"q", "g_inv", "g_mix"}) {
    const NodeId id = circuit.Find(name);
    ASSERT_NE(id, kNoNode) << name;
    EXPECT_TRUE(swept.report.IsDead(id)) << name;
    EXPECT_EQ(swept.node_map[static_cast<size_t>(id)], kNoNode) << name;
  }
  EXPECT_FALSE(swept.report.IsDead(circuit.Find("g_live")));
  EXPECT_EQ(swept.circuit.num_dffs(), 0);
}

TEST(Sweep, IdempotentOnRandomizedCircuits) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Circuit circuit = retest::testing::MakeRandomCircuit(seed);
    const SweptNetlist once = BuildSweptNetlist(circuit);
    const SweptNetlist twice = BuildSweptNetlist(once.circuit);
    // The second sweep finds nothing left to do...
    EXPECT_EQ(twice.report.merged_gates, 0) << "seed " << seed;
    EXPECT_EQ(twice.report.constant_gates, 0) << "seed " << seed;
    EXPECT_EQ(twice.report.dead_nodes, 0) << "seed " << seed;
    // ...and reproduces the swept circuit node for node.
    ExpectSameStructure(once.circuit, twice.circuit);
  }
}

TEST(Sweep, ReportCountsAreConsistent) {
  for (std::uint64_t seed = 2; seed <= 8; ++seed) {
    const Circuit circuit = retest::testing::MakeRandomCircuit(seed);
    const SweepReport report = AnalyzeSweep(circuit);
    ASSERT_EQ(report.class_of.size(), static_cast<size_t>(circuit.size()));
    int reps = 0;
    for (NodeId id = 0; id < circuit.size(); ++id) {
      const NodeId rep = report.class_of[static_cast<size_t>(id)];
      // Representatives are fixpoints of class_of.
      EXPECT_EQ(report.class_of[static_cast<size_t>(rep)], rep);
      if (rep == id) ++reps;
      // Class members agree on their constant value.
      EXPECT_EQ(report.const_of[static_cast<size_t>(id)],
                report.const_of[static_cast<size_t>(rep)]);
    }
    EXPECT_EQ(reps, report.num_classes);
    EXPECT_GE(report.iterations, 1);
  }
}

TEST(CollapseDeterminism, RepresentativesSortedByFaultOrder) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Circuit circuit = retest::testing::MakeRandomCircuit(seed);
    const auto collapsed = fault::Collapse(circuit);
    EXPECT_TRUE(std::is_sorted(collapsed.representatives.begin(),
                               collapsed.representatives.end()))
        << "seed " << seed;
    // Every representative is its own class root in `all`.
    for (const auto& rep : collapsed.representatives) {
      const auto it = std::find(collapsed.all.begin(), collapsed.all.end(), rep);
      ASSERT_NE(it, collapsed.all.end());
      const auto index =
          static_cast<size_t>(std::distance(collapsed.all.begin(), it));
      EXPECT_EQ(collapsed.class_of[index], static_cast<int>(index));
    }
  }
}

}  // namespace
}  // namespace retest::analyze
