#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/metrics.h"
#include "netlist/builder.h"
#include "netlist/check.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/graph.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"
#include "retime/moves.h"
#include "sim/simulator.h"
#include "tests/paper_circuits.h"
#include "tests/random_circuits.h"

namespace retest::retime {
namespace {

using netlist::Builder;
using netlist::Circuit;
using retest::testing::FindVertex;
using sim::FromString;

/// A simple pipeline: x -> g1 -> g2 -> [q] -> z with fanout at g1.
Circuit Pipeline() {
  Builder builder("pipe");
  builder.Input("x");
  builder.Not("g1", "x").Buf("g2", "g1").Buf("g3", "g1");
  builder.And("g4", {"g2", "g3"}).Dff("q", "g4").Output("z", "q");
  return builder.Build();
}

TEST(BuildGraph, VertexAndEdgeCounts) {
  const Circuit circuit = Pipeline();
  const BuildResult build = BuildGraph(circuit);
  // Vertices: x, g1..g4, z(po), stem for g1's fanout.
  EXPECT_EQ(build.graph.num_vertices(), 7);
  // Edges: x->g1, g1->stem, stem->g2, stem->g3, g2->g4, g3->g4,
  // g4->z (carrying q).
  EXPECT_EQ(build.graph.num_edges(), 7);
  EXPECT_EQ(build.graph.TotalRegisters(), 1);
}

TEST(BuildGraph, DffChainBecomesWeight) {
  Builder builder("chain");
  builder.Input("x").Dff("q1", "x").Dff("q2", "q1").Dff("q3", "q2");
  builder.Output("z", "q3");
  const BuildResult build = BuildGraph(builder.Build());
  ASSERT_EQ(build.graph.num_edges(), 1);
  EXPECT_EQ(build.graph.edges[0].weight, 3);
  // Segments: x, q1, q2, q3 = 4 sites.
  EXPECT_EQ(build.graph.edges[0].segments.size(), 4u);
}

TEST(BuildGraph, CascadedStems) {
  // d -> q(dff) -> fanout; d itself also fans out to the PO.
  const Circuit circuit = retest::testing::MakeFig3L1();
  const BuildResult build = BuildGraph(circuit);
  int stems = 0;
  for (const Vertex& vertex : build.graph.vertices) {
    stems += vertex.kind == VertexKind::kStem ? 1 : 0;
  }
  EXPECT_EQ(stems, 2);  // stem:d and stem:q
  // The q-stem hangs off the d-stem through one register.
  const VertexId stem_q = FindVertex(build.graph, "stem:q");
  const auto& incoming = build.graph.in_edges[static_cast<size_t>(stem_q)];
  ASSERT_EQ(incoming.size(), 1u);
  EXPECT_EQ(build.graph.edges[static_cast<size_t>(incoming[0])].weight, 1);
}

TEST(BuildGraph, RejectsPureRegisterLoop) {
  Builder builder("ring");
  builder.Input("x").Dff("q1").Dff("q2", "q1");
  builder.SetDffInput("q1", "q2");
  builder.Buf("g", "x").Output("z", "g");
  EXPECT_THROW(BuildGraph(builder.Build()), std::runtime_error);
}

TEST(Graph, ClockPeriodUnitDelay) {
  const Circuit circuit = Pipeline();
  const BuildResult build = BuildGraph(circuit);
  // Longest register-free path: g1 -> g2/g3 -> g4 = 3 unit-delay gates.
  EXPECT_EQ(build.graph.ClockPeriod(), 3);
}

TEST(Graph, FaninDelayModel) {
  const Circuit circuit = Pipeline();
  const BuildResult build = BuildGraph(circuit, DelayModel::kFaninCount);
  // g1(1) + g2(1) + g4(2) = 4.
  EXPECT_EQ(build.graph.ClockPeriod(), 4);
}

TEST(Graph, LegalityChecks) {
  const BuildResult build = BuildGraph(Pipeline());
  std::vector<int> lags(static_cast<size_t>(build.graph.num_vertices()), 0);
  EXPECT_TRUE(build.graph.IsLegal(lags));
  lags[static_cast<size_t>(FindVertex(build.graph, "g4"))] = -2;
  EXPECT_FALSE(build.graph.IsLegal(lags));  // negative edge weights
  lags.assign(lags.size(), 0);
  lags[static_cast<size_t>(FindVertex(build.graph, "z"))] = 1;
  EXPECT_FALSE(build.graph.IsLegal(lags));  // PO lag pinned
}

TEST(MinPeriod, ImprovesPipeline) {
  const BuildResult build = BuildGraph(Pipeline());
  const MinPeriodResult result = MinimizePeriod(build.graph);
  EXPECT_EQ(result.original_period, 3);
  EXPECT_LT(result.period, result.original_period);
  EXPECT_TRUE(build.graph.IsLegal(result.retiming.lags));
  EXPECT_EQ(build.graph.ClockPeriod(result.retiming.lags), result.period);
}

TEST(MinPeriod, FeasibleMatchesClockPeriod) {
  const BuildResult build = BuildGraph(Pipeline());
  EXPECT_TRUE(Feasible(build.graph, 3).has_value());
  EXPECT_FALSE(Feasible(build.graph, 0).has_value());
}

/// FEAS as it ran before the early exit: |V| - 1 relaxation passes on
/// an infeasible period, with its own arrival DP.  The oracle for
/// Feasible().
std::optional<std::vector<int>> ReferenceFeas(const Graph& graph, int phi) {
  const size_t n = graph.vertices.size();
  auto arrival_of = [&](const std::vector<int>& lags,
                        std::vector<int>& arrival) {
    arrival.assign(n, 0);
    std::vector<int> pending(n, 0);
    for (int e = 0; e < graph.num_edges(); ++e) {
      if (graph.RetimedWeight(e, lags) == 0) {
        ++pending[static_cast<size_t>(graph.edges[static_cast<size_t>(e)].to)];
      }
    }
    std::vector<VertexId> ready;
    for (size_t v = 0; v < n; ++v) {
      if (pending[v] == 0) {
        ready.push_back(static_cast<VertexId>(v));
        arrival[v] = graph.vertices[v].delay;
      }
    }
    size_t processed = 0;
    while (!ready.empty()) {
      const auto v = static_cast<size_t>(ready.back());
      ready.pop_back();
      ++processed;
      for (int e : graph.out_edges[v]) {
        if (graph.RetimedWeight(e, lags) != 0) continue;
        const auto to =
            static_cast<size_t>(graph.edges[static_cast<size_t>(e)].to);
        arrival[to] =
            std::max(arrival[to], arrival[v] + graph.vertices[to].delay);
        if (--pending[to] == 0) ready.push_back(static_cast<VertexId>(to));
      }
    }
    return processed == n;
  };
  std::vector<int> lags(n, 0);
  std::vector<int> arrival;
  for (int pass = 0; pass < graph.num_vertices() - 1; ++pass) {
    if (!arrival_of(lags, arrival)) return std::nullopt;
    bool changed = false;
    for (size_t v = 0; v < n; ++v) {
      const VertexKind kind = graph.vertices[v].kind;
      if (arrival[v] <= phi || kind == VertexKind::kPi ||
          kind == VertexKind::kPo || graph.out_edges[v].empty() ||
          graph.in_edges[v].empty()) {
        continue;
      }
      ++lags[v];
      changed = true;
    }
    if (!changed) break;
  }
  if (!arrival_of(lags, arrival)) return std::nullopt;
  for (size_t v = 0; v < n; ++v) {
    if (arrival[v] > phi) return std::nullopt;
  }
  if (!graph.IsLegal(lags)) return std::nullopt;
  return lags;
}

// The early exit only cuts infeasible runs short: at every period,
// Feasible() returns exactly the reference's lags (or nullopt).
TEST(MinPeriod, FeasibleMatchesFullRelaxationOnRandomCircuits) {
  const testing::RandomCircuitOptions shapes[] = {{3, 3, 10}, {4, 6, 40}};
  int feasible = 0, infeasible = 0;
  for (const auto& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      for (DelayModel model : {DelayModel::kUnit, DelayModel::kFaninCount}) {
        const BuildResult build =
            BuildGraph(testing::MakeRandomCircuit(seed, shape), model);
        const Graph& graph = build.graph;
        const int original = graph.ClockPeriod();
        for (int phi = 0; phi <= original; ++phi) {
          const auto expected = ReferenceFeas(graph, phi);
          const auto actual = Feasible(graph, phi);
          ASSERT_EQ(actual.has_value(), expected.has_value())
              << "seed " << seed << " phi " << phi;
          if (expected) {
            EXPECT_EQ(actual->lags, *expected) << "seed " << seed;
            ++feasible;
          } else {
            ++infeasible;
          }
        }
        const MinPeriodResult min = MinimizePeriod(graph);
        ASSERT_TRUE(ReferenceFeas(graph, min.period).has_value());
        EXPECT_EQ(min.retiming.lags, *ReferenceFeas(graph, min.period));
        if (min.period > 0) {
          EXPECT_FALSE(ReferenceFeas(graph, min.period - 1).has_value());
        }
      }
    }
  }
  EXPECT_GT(feasible, 0);
  EXPECT_GT(infeasible, 0);
}

#if RETEST_METRICS
// Below the largest gate delay no retiming helps; the old loop ran all
// |V| - 1 passes to find that out, the early exit stops once a lag
// passes its path register bound (at most the register count).
TEST(MinPeriod, InfeasiblePeriodStopsEarly) {
  const Circuit circuit = testing::MakeRandomCircuit(7, {4, 6, 40});
  const BuildResult build = BuildGraph(circuit, DelayModel::kFaninCount);
  auto passes = [] {
    for (const auto& counter : core::metrics::Collect().counters) {
      if (counter.name == "retime.feas.passes") return counter.value;
    }
    return 0L;
  };
  const long before = passes();
  EXPECT_FALSE(Feasible(build.graph, 1).has_value());
  EXPECT_LE(passes() - before, circuit.num_dffs() + 1);
  EXPECT_GT(build.graph.num_vertices() - 1, circuit.num_dffs() + 1);
}
#endif

TEST(Graph, ArrivalIsTheLongestZeroWeightPath) {
  const BuildResult build = BuildGraph(Pipeline());
  std::vector<int> arrival;
  ASSERT_TRUE(build.graph.Arrival({}, arrival));
  EXPECT_EQ(*std::max_element(arrival.begin(), arrival.end()),
            build.graph.ClockPeriod());
  EXPECT_EQ(arrival[static_cast<size_t>(FindVertex(build.graph, "g4"))], 3);
}

TEST(MinReg, RecoversSharedRegisters) {
  // Two branch registers that can merge into one before the stem.
  Builder builder("share");
  builder.Input("x");
  builder.Not("g1", "x");
  builder.Dff("q1", "g1").Dff("q2", "g1");
  builder.Buf("g2", "q1").Buf("g3", "q2");
  builder.And("g4", {"g2", "g3"});
  builder.Output("z", "g4");
  const Circuit circuit = builder.Build();
  const BuildResult build = BuildGraph(circuit);
  EXPECT_EQ(build.graph.TotalRegisters(), 2);
  const MinRegResult result = MinimizeRegisters(build.graph);
  EXPECT_EQ(result.registers, 1);
  EXPECT_TRUE(build.graph.IsLegal(result.retiming.lags));
}

TEST(MinReg, RespectsPeriodBound) {
  const BuildResult build = BuildGraph(Pipeline());
  const MinPeriodResult fast = MinimizePeriod(build.graph);
  const MinRegResult bounded =
      MinimizeRegisters(build.graph, fast.period, &fast.retiming);
  EXPECT_LE(build.graph.ClockPeriod(bounded.retiming.lags), fast.period);
  EXPECT_LE(bounded.registers, bounded.original_registers);
}

TEST(Apply, PreservesInterfaceAndChecks) {
  for (auto pair : {retest::testing::MakeFig2Pair(),
                    retest::testing::MakeFig3Pair(),
                    retest::testing::MakeFig5Pair()}) {
    const Circuit& retimed = pair.applied.circuit;
    EXPECT_TRUE(netlist::Check(retimed).ok());
  }
}

TEST(Apply, Fig2MovesRegisterBackward) {
  const auto pair = retest::testing::MakeFig2Pair();
  EXPECT_EQ(retest::testing::MakeFig2C1().num_dffs(), 1);
  EXPECT_EQ(pair.applied.circuit.num_dffs(), 2);
}

TEST(Apply, Fig5MergesRegistersForward) {
  const auto pair = retest::testing::MakeFig5Pair();
  EXPECT_EQ(retest::testing::MakeFig5N1().num_dffs(), 3);
  EXPECT_EQ(pair.applied.circuit.num_dffs(), 2);
}

TEST(Apply, RetimedCircuitBehavesIdenticallyAfterSync) {
  // After enough cycles from a common synchronizing stream, outputs of
  // the original and retimed circuits must agree on binary values.
  const auto pair = retest::testing::MakeFig5Pair();
  const Circuit original = retest::testing::MakeFig5N1();
  sim::Simulator a(original);
  sim::Simulator b(pair.applied.circuit);
  a.Reset();
  b.Reset();
  const sim::InputSequence stream{
      FromString("110"), FromString("101"), FromString("011"),
      FromString("111"), FromString("000"), FromString("110"),
      FromString("010"), FromString("001")};
  for (size_t t = 0; t < stream.size(); ++t) {
    const auto out_a = a.Step(stream[t]);
    const auto out_b = b.Step(stream[t]);
    if (t >= 2) {  // both synchronized by then
      EXPECT_EQ(out_a, out_b) << "cycle " << t;
    }
  }
}

TEST(Apply, StemToStemZeroWeightGetsBuffer) {
  // Removing the register between the two stems of Fig. 3's L1 (a
  // backward move across stem:q) leaves a stem-to-stem zero edge.
  const auto circuit = retest::testing::MakeFig3L1();
  // Backward across stem:q is illegal (its out-edges have no regs), so
  // instead retime stem:d forward: d's register moves onto branches of
  // stem:d... construct: forward across stem:q keeps legality.
  const auto pair =
      retest::testing::RetimeSingleVertex(circuit, "stem:q", -1, "L2");
  // The in-edge (stem:d -> stem:q) lost its register: a buffer must
  // keep the branch line explicit.
  bool has_buffer = false;
  for (netlist::NodeId id = 0; id < pair.applied.circuit.size(); ++id) {
    if (pair.applied.circuit.node(id).kind == netlist::NodeKind::kBuf) {
      has_buffer = true;
    }
  }
  EXPECT_TRUE(has_buffer);
  EXPECT_TRUE(netlist::Check(pair.applied.circuit).ok());
}

TEST(Moves, CountsFromLags) {
  const BuildResult build = BuildGraph(Pipeline());
  Retiming retiming;
  retiming.lags.assign(static_cast<size_t>(build.graph.num_vertices()), 0);
  retiming.lags[static_cast<size_t>(FindVertex(build.graph, "g4"))] = 1;
  const MoveCounts counts = CountMoves(build.graph, retiming);
  EXPECT_EQ(counts.max_backward_any, 1);
  EXPECT_EQ(counts.max_forward_any, 0);
  EXPECT_EQ(counts.max_backward_stem, 0);
  EXPECT_EQ(counts.prefix_length(), 0);
}

TEST(Moves, StemForwardCountsTowardPrefix) {
  const auto pair = retest::testing::MakeFig3Pair();
  const MoveCounts counts = CountMoves(pair.build.graph, pair.retiming);
  EXPECT_EQ(counts.max_forward_any, 1);
  EXPECT_EQ(counts.max_forward_stem, 1);
  EXPECT_EQ(counts.prefix_length(), 1);
  EXPECT_EQ(counts.time_equivalence_bound(), 1);
}

TEST(Moves, SegmentCorrespondenceIdentity) {
  const BuildResult build = BuildGraph(Pipeline());
  Retiming identity;
  identity.lags.assign(static_cast<size_t>(build.graph.num_vertices()), 0);
  const auto segments = SegmentCorrespondence(build.graph, identity);
  for (int e = 0; e < build.graph.num_edges(); ++e) {
    const auto& edge_map = segments[static_cast<size_t>(e)];
    ASSERT_EQ(edge_map.size(),
              build.graph.edges[static_cast<size_t>(e)].segments.size());
    for (size_t j = 0; j < edge_map.size(); ++j) {
      EXPECT_EQ(edge_map[j], std::vector<int>{static_cast<int>(j)});
    }
  }
}

TEST(Moves, SegmentCorrespondenceSplit) {
  const auto pair = retest::testing::MakeFig5Pair();
  const auto segments = SegmentCorrespondence(pair.build.graph, pair.retiming);
  // Edge g1 -> g2 had weight 0 (one segment); now weight 1 (two), both
  // corresponding to the single original segment {0}.
  const VertexId g1 = FindVertex(pair.build.graph, "g1");
  const auto& outgoing = pair.build.graph.out_edges[static_cast<size_t>(g1)];
  ASSERT_EQ(outgoing.size(), 1u);
  const auto& edge_map = segments[static_cast<size_t>(outgoing[0])];
  ASSERT_EQ(edge_map.size(), 2u);
  EXPECT_EQ(edge_map[0], std::vector<int>{0});
  EXPECT_EQ(edge_map[1], std::vector<int>{0});
}

TEST(Moves, SegmentCorrespondenceMerge) {
  // Backward across g4 of the Pipeline pulls the register from g4->z
  // onto g2->g4 and g3->g4; the z edge's two segments merge.
  const BuildResult build = BuildGraph(Pipeline());
  Retiming retiming;
  retiming.lags.assign(static_cast<size_t>(build.graph.num_vertices()), 0);
  retiming.lags[static_cast<size_t>(FindVertex(build.graph, "g4"))] = 1;
  ASSERT_TRUE(build.graph.IsLegal(retiming.lags));
  const auto segments = SegmentCorrespondence(build.graph, retiming);
  const VertexId g4 = FindVertex(build.graph, "g4");
  const auto& outgoing = build.graph.out_edges[static_cast<size_t>(g4)];
  ASSERT_EQ(outgoing.size(), 1u);
  const auto& edge_map = segments[static_cast<size_t>(outgoing[0])];
  ASSERT_EQ(edge_map.size(), 1u);
  EXPECT_EQ(edge_map[0], (std::vector<int>{0, 1}));
}

TEST(Moves, RejectsIllegalRetiming) {
  const BuildResult build = BuildGraph(Pipeline());
  Retiming bad;
  bad.lags.assign(static_cast<size_t>(build.graph.num_vertices()), 0);
  bad.lags[static_cast<size_t>(FindVertex(build.graph, "g1"))] = -3;
  EXPECT_THROW(SegmentCorrespondence(build.graph, bad), std::invalid_argument);
}

}  // namespace
}  // namespace retest::retime
