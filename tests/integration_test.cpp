// End-to-end flows: FSM -> synthesis -> retiming -> ATPG -> test-set
// mapping -> fault simulation (the pipeline behind Tables II/III and
// the Fig. 6 technique).
#include <gtest/gtest.h>

#include "atpg/engine.h"
#include "core/flow.h"
#include "core/preserve.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"
#include "fsm/benchmarks.h"
#include "netlist/check.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"
#include "synth/synthesize.h"

namespace retest {
namespace {

using netlist::Circuit;

/// Synthesize dk16 (small, fast) and min-period retime it, mirroring
/// the paper's circuit-preparation pipeline.
struct Prepared {
  Circuit original;
  retime::BuildResult build;
  retime::Retiming retiming;
  Circuit retimed;
};

Prepared PrepareDk16() {
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  synthesis.encoding = synth::EncodingStyle::kInputDominant;
  synthesis.script = synth::ScriptStyle::kDelay;
  synthesis.explicit_reset = true;
  Prepared prepared;
  prepared.original = synth::Synthesize(machine, synthesis);
  prepared.build = retime::BuildGraph(prepared.original);
  auto min_period = retime::MinimizePeriod(prepared.build.graph);
  // Register-minimization post-pass subject to the achieved period
  // (the paper's performance-retiming setup).
  auto minreg = retime::MinimizeRegisters(prepared.build.graph,
                                          min_period.period,
                                          &min_period.retiming);
  prepared.retiming = minreg.retiming;
  auto applied = retime::ApplyRetiming(prepared.original, prepared.build,
                                       prepared.retiming);
  prepared.retimed = std::move(applied.circuit);
  return prepared;
}

TEST(Integration, RetimingImprovesPeriodAndAddsDffs) {
  const Prepared prepared = PrepareDk16();
  EXPECT_TRUE(netlist::Check(prepared.retimed).ok());
  const auto original_period = prepared.build.graph.ClockPeriod();
  const auto new_period =
      prepared.build.graph.ClockPeriod(prepared.retiming.lags);
  EXPECT_LT(new_period, original_period);
  // The paper's Table II effect: min-period retiming inflates the
  // register count.
  EXPECT_GT(prepared.retimed.num_dffs(), prepared.original.num_dffs());
}

TEST(Integration, DerivedTestSetMatchesOriginalCoverage) {
  // Table III's procedure: ATPG on the original, map the test set with
  // the prefix, fault simulate both; coverage on the retimed circuit
  // must match (up to the split/merge counting effects, which only add
  // faults detected/undetected in tandem).
  const Prepared prepared = PrepareDk16();

  atpg::AtpgOptions options;
  options.seed = 11;
  options.time_budget_ms = 30'000;
  const auto atpg_result = atpg::RunAtpg(prepared.original, options);
  ASSERT_GT(atpg_result.FaultCoverage(), 80.0);

  core::TestSet test_set;
  test_set.tests = atpg_result.tests;
  const int prefix = core::PrefixLength(prepared.build.graph,
                                        prepared.retiming);
  const core::TestSet derived = core::DeriveRetimedTestSet(
      test_set, prefix, prepared.original.num_inputs());

  const auto original_faults = fault::Collapse(prepared.original);
  const auto retimed_faults = fault::Collapse(prepared.retimed);
  const auto original_sim = faultsim::SimulateProofs(
      prepared.original, original_faults.representatives,
      test_set.Concatenated());
  const auto retimed_sim = faultsim::SimulateProofs(
      prepared.retimed, retimed_faults.representatives,
      derived.Concatenated());

  const double original_coverage =
      100.0 * original_sim.num_detected() /
      static_cast<double>(original_faults.representatives.size());
  const double retimed_coverage =
      100.0 * retimed_sim.num_detected() /
      static_cast<double>(retimed_faults.representatives.size());
  // The paper's Table III: nearly identical undetected counts.  Allow
  // a small tolerance for the split/merge effect.
  EXPECT_NEAR(retimed_coverage, original_coverage, 3.0);
  EXPECT_GT(retimed_coverage, 80.0);
}

TEST(Integration, RetimeForTestFlowRecoversCoverage) {
  // Fig. 6: ATPG on the register-minimized version plus prefix mapping
  // achieves high coverage on the hard circuit.
  const Prepared prepared = PrepareDk16();
  atpg::AtpgOptions options;
  options.seed = 17;
  options.time_budget_ms = 30'000;
  const auto result = core::RetimeForTest(prepared.retimed, options);
  const core::PreserveReport& report = result.report;
  ASSERT_TRUE(report.cert.certified) << report.cert.diagnostics.ToString();
  EXPECT_LE(result.easy.num_dffs(), prepared.retimed.num_dffs());
  EXPECT_GE(report.mapped.FaultCoverage(), 75.0);
  EXPECT_GE(report.prefix_length(), 0);
  EXPECT_FALSE(report.derived.tests.empty());
}

TEST(Integration, SixteenPaperCircuitsSynthesize) {
  // All Table II circuit variants synthesize and pass structural
  // checks; the heavier ones are only built, not simulated.
  const struct {
    const char* fsm;
    synth::EncodingStyle encoding;
    synth::ScriptStyle script;
  } variants[] = {
      {"dk16", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kDelay},
      {"pma", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kDelay},
      {"s510", synth::EncodingStyle::kCombined, synth::ScriptStyle::kDelay},
      {"s510", synth::EncodingStyle::kCombined, synth::ScriptStyle::kRugged},
      {"s510", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kDelay},
      {"s510", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kRugged},
      {"s510", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kRugged},
      {"s820", synth::EncodingStyle::kCombined, synth::ScriptStyle::kDelay},
      {"s820", synth::EncodingStyle::kCombined, synth::ScriptStyle::kRugged},
      {"s820", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kRugged},
      {"s820", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kDelay},
      {"s820", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kRugged},
      {"s832", synth::EncodingStyle::kCombined, synth::ScriptStyle::kRugged},
      {"s832", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kRugged},
      {"scf", synth::EncodingStyle::kInputDominant, synth::ScriptStyle::kDelay},
      {"scf", synth::EncodingStyle::kOutputDominant, synth::ScriptStyle::kDelay},
  };
  const auto& table = fsm::PaperFsmTable();
  for (const auto& variant : variants) {
    const auto machine = fsm::MakeBenchmarkFsm(variant.fsm);
    synth::SynthesisOptions options;
    options.encoding = variant.encoding;
    options.script = variant.script;
    for (const auto& info : table) {
      if (std::string(info.name) == variant.fsm) {
        options.explicit_reset = info.explicit_reset;
      }
    }
    const Circuit circuit = synth::Synthesize(machine, options);
    EXPECT_TRUE(netlist::Check(circuit).ok()) << circuit.name();
    EXPECT_GT(circuit.num_gates(), 0) << circuit.name();
    // Retiming graph builds for all of them.
    EXPECT_NO_THROW(retime::BuildGraph(circuit)) << circuit.name();
  }
}

}  // namespace
}  // namespace retest
