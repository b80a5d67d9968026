#include <gtest/gtest.h>

#include "netlist/builder.h"
#include "stg/containment.h"
#include "stg/equivalence.h"
#include "stg/stg.h"
#include "tests/paper_circuits.h"

namespace retest::stg {
namespace {

using netlist::Builder;
using netlist::Circuit;
using sim::FromString;
using sim::V3;

Circuit Toggle() {
  Builder builder("toggle");
  builder.Input("en").Dff("q");
  builder.Xor("d", {"en", "q"}).SetDffInput("q", "d").Output("z", "q");
  return builder.Build();
}

TEST(Pack, RoundTrip) {
  const auto state = FromString("101");
  const int packed = PackState(state);
  EXPECT_EQ(packed, 0b101);
  EXPECT_EQ(UnpackState(packed, 3), state);
  EXPECT_THROW(PackState(FromString("1x")), std::invalid_argument);
}

TEST(Extract, ToggleStg) {
  const Stg stg = Extract(Toggle());
  EXPECT_EQ(stg.num_states(), 2);
  EXPECT_EQ(stg.num_symbols(), 2);
  // en=0 holds, en=1 toggles.
  EXPECT_EQ(stg.next[0][0], 0);
  EXPECT_EQ(stg.next[0][1], 1);
  EXPECT_EQ(stg.next[1][1], 0);
  // Output = q.
  EXPECT_EQ(stg.out[1][0], 1u);
  EXPECT_EQ(stg.out[0][0], 0u);
}

TEST(Extract, FaultyStgDiffers) {
  const Circuit circuit = Toggle();
  const fault::Fault fault{{circuit.Find("d"), -1}, true};
  const Stg faulty = ExtractFaulty(circuit, fault);
  // d stuck-at-1: next state is always 1.
  EXPECT_EQ(faulty.next[0][0], 1);
  EXPECT_EQ(faulty.next[1][1], 1);
}

TEST(Extract, GuardsAgainstLargeCircuits) {
  Builder builder("wide");
  std::vector<std::string> names;
  for (int i = 0; i < 12; ++i) {
    names.emplace_back("i");
    names.back() += std::to_string(i);  // Not `"i" + ...`: GCC 12 -Wrestrict.
    builder.Input(names.back());
  }
  builder.Gate(netlist::NodeKind::kOr, "g", names);
  builder.Output("z", "g");
  ExtractLimits limits;
  limits.max_inputs = 8;
  EXPECT_THROW(Extract(builder.Build(), limits), std::invalid_argument);
}

TEST(Equivalence, SelfEquivalenceOfToggle) {
  const Stg stg = Extract(Toggle());
  const JointEquivalence eq = SelfEquivalence(stg);
  // The two states output differently: no equivalent pair.
  EXPECT_NE(eq.block_a[0], eq.block_a[1]);
}

TEST(Equivalence, DetectsEquivalentStates) {
  // Two DFFs, output depends only on their OR: states 01/10/11 merge.
  Builder builder("merge");
  builder.Input("x").Dff("q0", "x").Dff("q1", "x");
  builder.Or("g", {"q0", "q1"});
  builder.Output("z", "g");
  const Stg stg = Extract(builder.Build());
  const JointEquivalence eq = SelfEquivalence(stg);
  EXPECT_EQ(eq.block_a[1], eq.block_a[2]);
  EXPECT_EQ(eq.block_a[1], eq.block_a[3]);
  EXPECT_NE(eq.block_a[0], eq.block_a[1]);
}

TEST(Equivalence, InterfaceMismatchThrows) {
  const Stg a = Extract(Toggle());
  Builder builder("two_out");
  builder.Input("x").Dff("q", "x");
  builder.Output("z0", "q").Output("z1", "x");
  const Stg b = Extract(builder.Build());
  EXPECT_THROW(Equivalence(a, b), std::invalid_argument);
}

TEST(Containment, SpaceEquivalenceOfFig2) {
  // Lemma 1: retiming across single-output gates preserves space
  // equivalence (paper Fig. 2: C1 ==_s C2).
  const auto pair = retest::testing::MakeFig2Pair();
  const Stg c1 = Extract(retest::testing::MakeFig2C1());
  const Stg c2 = Extract(pair.applied.circuit);
  EXPECT_TRUE(SpaceContains(c1, c2));
  EXPECT_TRUE(SpaceContains(c2, c1));
  EXPECT_TRUE(SpaceEquivalent(c1, c2));
}

TEST(Containment, Fig3IsNotSpaceEquivalent) {
  // After a forward move across a fanout stem, the retimed L2 contains
  // "inconsistent" states (different values on what used to be one
  // register) with no equivalent in L1, so L1 does not space-contain
  // L2; the other direction holds.
  const auto pair = retest::testing::MakeFig3Pair();
  const Stg l1 = Extract(retest::testing::MakeFig3L1());
  const Stg l2 = Extract(pair.applied.circuit);
  EXPECT_FALSE(SpaceContains(l1, l2));  // K !>=_s K'
  EXPECT_TRUE(SpaceContains(l2, l1));   // every L1 state survives in L2
  EXPECT_FALSE(SpaceEquivalent(l1, l2));
}

TEST(Containment, Lemma2TimeBoundsOnFig3) {
  // Lemma 2 with F = 1 forward stem move, B = 0: K >=_Ft K' and
  // K' >=_Bt K.
  const auto pair = retest::testing::MakeFig3Pair();
  const Stg l1 = Extract(retest::testing::MakeFig3L1());
  const Stg l2 = Extract(pair.applied.circuit);
  EXPECT_TRUE(NTimeContains(l1, l2, 1));  // K >=_s K'_1
  EXPECT_TRUE(NTimeContains(l2, l1, 0));  // K' >=_s K_0
  const auto smallest = SmallestTimeContainment(l1, l2, 4);
  ASSERT_TRUE(smallest.has_value());
  EXPECT_EQ(*smallest, 1);
}

TEST(Containment, StatesAfterShrinks) {
  const auto pair = retest::testing::MakeFig3Pair();
  const Stg l2 = Extract(pair.applied.circuit);
  const auto all = StatesAfter(l2, 0);
  const auto after1 = StatesAfter(l2, 1);
  int count_all = 0, count_after = 0;
  for (char c : all) count_all += c;
  for (char c : after1) count_after += c;
  EXPECT_EQ(count_all, 4);
  EXPECT_EQ(count_after, 2);  // only the diagonal states persist
}

TEST(Sync, FunctionalSyncOfFig3L1) {
  // Observation 1 material: <11> functionally synchronizes L1.
  const Stg l1 = Extract(retest::testing::MakeFig3L1());
  const auto check = FunctionallySynchronizes(l1, {0b11});
  EXPECT_TRUE(check.synchronizes);
}

TEST(Sync, Fig3VectorDoesNotSyncL2) {
  // ...but the same vector does not synchronize the retimed L2.
  const auto pair = retest::testing::MakeFig3Pair();
  const Stg l2 = Extract(pair.applied.circuit);
  const auto check = FunctionallySynchronizes(l2, {0b11});
  EXPECT_FALSE(check.synchronizes);
}

TEST(Sync, PrefixedVectorSyncsL2) {
  // Theorem 2: one arbitrary prefix vector (F = 1) restores the
  // synchronizing property; all four prefixes work.
  const auto pair = retest::testing::MakeFig3Pair();
  const Stg l2 = Extract(pair.applied.circuit);
  for (int prefix = 0; prefix < 4; ++prefix) {
    const auto check = FunctionallySynchronizes(l2, {prefix, 0b11});
    EXPECT_TRUE(check.synchronizes) << "prefix " << prefix;
  }
}

}  // namespace
}  // namespace retest::stg
