#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>

#include "fault/collapse.h"
#include "fault/correspondence.h"
#include "fault/fault.h"
#include "netlist/builder.h"
#include "tests/paper_circuits.h"
#include "tests/random_circuits.h"

namespace retest::fault {
namespace {

using netlist::Builder;
using netlist::Circuit;
using netlist::NodeKind;

Circuit SmallComb() {
  Builder builder("comb");
  builder.Input("a").Input("b");
  builder.And("g", {"a", "b"}).Not("n", "g");
  builder.Output("z", "n");
  return builder.Build();
}

TEST(Enumerate, LinesWithoutFanout) {
  // a, b, g, n each drive one sink: 4 lines, 8 faults, no branches.
  const Circuit circuit = SmallComb();
  const auto faults = EnumerateFaults(circuit);
  EXPECT_EQ(faults.size(), 8u);
  for (const Fault& fault : faults) {
    EXPECT_EQ(fault.site.pin, -1);
  }
}

TEST(Enumerate, BranchesOnFanout) {
  Builder builder("fan");
  builder.Input("a");
  builder.Buf("g1", "a").Buf("g2", "a");
  builder.Output("z1", "g1").Output("z2", "g2");
  const Circuit circuit = builder.Build();
  const auto faults = EnumerateFaults(circuit);
  // Lines: stem a, branches a->g1 and a->g2, g1, g2 = 5 lines.
  EXPECT_EQ(faults.size(), 10u);
  int branches = 0;
  for (const Fault& fault : faults) branches += fault.site.pin >= 0 ? 1 : 0;
  EXPECT_EQ(branches, 4);
}

TEST(Enumerate, DanglingNodeHasNoFault) {
  Circuit circuit("d");
  circuit.Add(NodeKind::kInput, "a");
  const auto faults = EnumerateFaults(circuit);
  EXPECT_TRUE(faults.empty());
}

TEST(Enumerate, ToStringIsReadable) {
  const Circuit circuit = SmallComb();
  const Fault stem{{circuit.Find("g"), -1}, true};
  EXPECT_EQ(ToString(circuit, stem), "g s-a-1");
}

TEST(Collapse, AndGateRule) {
  // AND: input s-a-0 == output s-a-0 (inputs have no fanout here, so
  // the input line is the driver's stem).
  const Circuit circuit = SmallComb();
  const auto collapsed = Collapse(circuit);
  auto find = [&](const Fault& fault) {
    const auto it = std::find(collapsed.all.begin(), collapsed.all.end(), fault);
    EXPECT_NE(it, collapsed.all.end());
    return collapsed.class_of[static_cast<size_t>(
        std::distance(collapsed.all.begin(), it))];
  };
  const Fault a0{{circuit.Find("a"), -1}, false};
  const Fault b0{{circuit.Find("b"), -1}, false};
  const Fault g0{{circuit.Find("g"), -1}, false};
  const Fault g1{{circuit.Find("g"), -1}, true};
  EXPECT_EQ(find(a0), find(g0));
  EXPECT_EQ(find(b0), find(g0));
  EXPECT_NE(find(g1), find(g0));
  // NOT: g s-a-0 == n s-a-1.
  const Fault n1{{circuit.Find("n"), -1}, true};
  EXPECT_EQ(find(g0), find(n1));
}

TEST(Collapse, ReducesCount) {
  const Circuit circuit = SmallComb();
  const auto collapsed = Collapse(circuit);
  EXPECT_LT(collapsed.representatives.size(), collapsed.all.size());
  // Classes partition the universe.
  for (int rep : collapsed.class_of) {
    EXPECT_GE(rep, 0);
    EXPECT_LT(rep, static_cast<int>(collapsed.all.size()));
  }
}

TEST(Collapse, DffIsNotCollapsedAcross) {
  Builder builder("dff");
  builder.Input("a").Dff("q", "a").Output("z", "q");
  const Circuit circuit = builder.Build();
  const auto collapsed = Collapse(circuit);
  // Lines a and q stay distinct: 4 faults, 4 classes.
  EXPECT_EQ(collapsed.representatives.size(), 4u);
}

TEST(Collapse, BranchFaultsCollapseIntoGates) {
  Builder builder("br");
  builder.Input("a").Input("b");
  builder.And("g1", {"a", "b"}).Or("g2", {"a", "g1"});
  builder.Output("z1", "g1").Output("z2", "g2");
  const Circuit circuit = builder.Build();
  const auto collapsed = Collapse(circuit);
  auto class_of = [&](const Fault& fault) {
    const auto it = std::find(collapsed.all.begin(), collapsed.all.end(), fault);
    EXPECT_NE(it, collapsed.all.end()) << ToString(circuit, fault);
    return collapsed.class_of[static_cast<size_t>(
        std::distance(collapsed.all.begin(), it))];
  };
  // a fans out: branch (g1, pin0) s-a-0 joins g1's output s-a-0 class,
  // while branch (g2, pin0) s-a-1 joins g2's output s-a-1 class; the
  // stem fault on a stays separate.
  const Fault branch_g1_sa0{{circuit.Find("g1"), 0}, false};
  const Fault g1_sa0{{circuit.Find("g1"), -1}, false};
  EXPECT_EQ(class_of(branch_g1_sa0), class_of(g1_sa0));
  const Fault branch_g2_sa1{{circuit.Find("g2"), 0}, true};
  const Fault g2_sa1{{circuit.Find("g2"), -1}, true};
  EXPECT_EQ(class_of(branch_g2_sa1), class_of(g2_sa1));
  const Fault stem_a_sa0{{circuit.Find("a"), -1}, false};
  EXPECT_NE(class_of(stem_a_sa0), class_of(g1_sa0));
}

/// Collapse as it was built on a std::map index: the oracle for the
/// binary search over `all`.
CollapsedFaults ReferenceCollapse(const Circuit& circuit) {
  CollapsedFaults result;
  result.all = EnumerateFaults(circuit);
  std::map<Fault, int> index;
  for (size_t i = 0; i < result.all.size(); ++i) {
    index.emplace(result.all[i], static_cast<int>(i));
  }
  std::vector<int> parent(result.all.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    return parent[static_cast<size_t>(x)] == x
               ? x
               : find(parent[static_cast<size_t>(x)]);
  };
  auto unite = [&](const Fault& a, const Fault& b) {
    auto ia = index.find(a);
    auto ib = index.find(b);
    if (ia == index.end() || ib == index.end()) return;
    const int ra = find(ia->second), rb = find(ib->second);
    parent[static_cast<size_t>(std::max(ra, rb))] = std::min(ra, rb);
  };
  auto input_line = [&](netlist::NodeId id, int pin) -> Site {
    const netlist::NodeId driver =
        circuit.node(id).fanin[static_cast<size_t>(pin)];
    if (circuit.node(driver).fanout.size() >= 2) return Site{id, pin};
    return Site{driver, -1};
  };
  for (netlist::NodeId id = 0; id < circuit.size(); ++id) {
    const auto& node = circuit.node(id);
    const Site out{id, -1};
    const int pins = static_cast<int>(node.fanin.size());
    switch (node.kind) {
      case NodeKind::kAnd:
      case NodeKind::kNand:
        for (int pin = 0; pin < pins; ++pin) {
          unite({input_line(id, pin), false},
                {out, node.kind == NodeKind::kNand});
        }
        break;
      case NodeKind::kOr:
      case NodeKind::kNor:
        for (int pin = 0; pin < pins; ++pin) {
          unite({input_line(id, pin), true},
                {out, node.kind != NodeKind::kNor});
        }
        break;
      case NodeKind::kBuf:
      case NodeKind::kNot:
        for (bool value : {false, true}) {
          unite({input_line(id, 0), value},
                {out, node.kind == NodeKind::kNot ? !value : value});
        }
        break;
      default:
        break;
    }
  }
  for (size_t i = 0; i < result.all.size(); ++i) {
    result.class_of.push_back(find(static_cast<int>(i)));
    if (result.class_of.back() == static_cast<int>(i)) {
      result.representatives.push_back(result.all[i]);
    }
  }
  std::sort(result.representatives.begin(), result.representatives.end());
  return result;
}

TEST(Collapse, MatchesMapIndexedReferenceOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Circuit circuit = testing::MakeRandomCircuit(
        seed, {3 + static_cast<int>(seed % 3), 2 + static_cast<int>(seed % 5),
               10 + static_cast<int>(seed % 40)});
    // On odd seeds, a dangling gate: its output line has no fault, so
    // the rules' lookups of that line must miss.
    if (seed % 2 == 1) {
      const netlist::NodeId a = circuit.inputs()[0];
      if (seed % 4 == 1) {
        circuit.Add(NodeKind::kNand, "dangle", {a, circuit.inputs()[1]});
      } else {
        circuit.Add(NodeKind::kNot, "dangle", {a});
      }
    }
    const CollapsedFaults actual = Collapse(circuit);
    const CollapsedFaults expected = ReferenceCollapse(circuit);
    // Collapse's binary search relies on strictly increasing order.
    EXPECT_TRUE(std::adjacent_find(actual.all.begin(), actual.all.end(),
                                   std::greater_equal<>()) ==
                actual.all.end())
        << "seed " << seed;
    EXPECT_EQ(actual.all, expected.all) << "seed " << seed;
    EXPECT_EQ(actual.class_of, expected.class_of) << "seed " << seed;
    EXPECT_EQ(actual.representatives, expected.representatives)
        << "seed " << seed;
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

TEST(Correspondence, IdentityRetimingIsIdentity) {
  const auto circuit = retest::testing::MakeFig5N1();
  retime::BuildResult build = retime::BuildGraph(circuit);
  retime::Retiming identity;
  identity.lags.assign(static_cast<size_t>(build.graph.num_vertices()), 0);
  const auto applied =
      retime::ApplyRetiming(circuit, build, identity, "N1.copy");
  const auto correspondence = BuildCorrespondence(build, identity, applied);
  // Every site maps to exactly one site.
  for (const auto& [site, originals] : correspondence.to_original) {
    EXPECT_EQ(originals.size(), 1u);
  }
  EXPECT_EQ(correspondence.to_original.size(),
            correspondence.to_retimed.size());
}

TEST(Correspondence, ForwardMoveSplitsLine) {
  // Fig. 5: forward move across g1 places a DFF on line g1->g2; the
  // original line's fault corresponds to both new lines.
  auto pair = retest::testing::MakeFig5Pair();
  const auto correspondence =
      BuildCorrespondence(pair.build, pair.retiming, pair.applied);
  const auto original = retest::testing::MakeFig5N1();
  const Site g1_out{original.Find("g1"), -1};
  const auto it = correspondence.to_retimed.find(g1_out);
  ASSERT_NE(it, correspondence.to_retimed.end());
  // g1->g2 in N1 becomes g1->Q12 and Q12->g2 in N2.
  EXPECT_GE(it->second.size(), 2u);
}

TEST(Correspondence, EveryRetimedFaultHasOriginal) {
  auto check = [](retest::testing::RetimedPair pair) {
    const auto correspondence =
        BuildCorrespondence(pair.build, pair.retiming, pair.applied);
    const auto faults = EnumerateFaults(pair.applied.circuit);
    for (const Fault& fault : faults) {
      const auto it = correspondence.to_original.find(fault.site);
      ASSERT_NE(it, correspondence.to_original.end())
          << pair.applied.circuit.name() << ": "
          << ToString(pair.applied.circuit, fault);
      EXPECT_FALSE(it->second.empty());
    }
  };
  check(retest::testing::MakeFig2Pair());
  check(retest::testing::MakeFig3Pair());
  check(retest::testing::MakeFig5Pair());
}

TEST(Injection, MapsFaultFields) {
  const Fault fault{{7, 2}, true};
  const sim::Injection injection = ToInjection(fault, 13);
  EXPECT_EQ(injection.node, 7);
  EXPECT_EQ(injection.pin, 2);
  EXPECT_TRUE(injection.value);
  EXPECT_EQ(injection.lane, 13);
}

}  // namespace
}  // namespace retest::fault
