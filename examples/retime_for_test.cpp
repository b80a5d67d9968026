// The paper's Fig. 6 technique, end to end, on a synthesized benchmark
// circuit: performance retiming makes the circuit hard for ATPG;
// retiming it back for minimum registers, running ATPG there, and
// mapping the tests with the prefix recovers coverage cheaply.
//
//   ./example_retime_for_test
#include <cstdio>

#include "core/flow.h"
#include "fsm/benchmarks.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/leiserson_saxe.h"
#include "synth/synthesize.h"

int main() {
  using namespace retest;

  // Synthesize dk16 and retime it for performance (the "product").
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  synthesis.encoding = synth::EncodingStyle::kInputDominant;
  synthesis.explicit_reset = true;
  const auto original = synth::Synthesize(machine, synthesis);
  const auto build = retime::BuildGraph(original);
  const auto min_period = retime::MinimizePeriod(build.graph);
  const auto hard =
      retime::ApplyRetiming(original, build, min_period.retiming);
  std::printf("product circuit %s: %d gates, %d DFFs, period %d\n",
              hard.circuit.name().c_str(), hard.circuit.num_gates(),
              hard.circuit.num_dffs(), min_period.period);

  // The flow: register-minimize, ATPG on the easy version, map back.
  atpg::AtpgOptions options;
  options.time_budget_ms = 10'000;
  const auto result = core::RetimeForTest(hard.circuit, options);
  const core::PreserveReport& report = result.report;

  std::printf("easy circuit: %d DFFs (was %d)\n", result.easy.num_dffs(),
              hard.circuit.num_dffs());
  std::printf("ATPG on easy circuit: %.1f%% FC in %.0f ms\n",
              report.atpg.FaultCoverage(), report.ms.atpg);
  std::printf("prefix length for the mapping: %d\n", report.prefix_length());
  std::printf("derived test set: %d tests, %d vectors\n",
              report.derived.num_tests(), report.derived.total_vectors());
  std::printf("fault simulation on the product: %d/%zu detected (%.1f%%) "
              "in %.0f ms\n",
              report.mapped.num_detected(), report.mapped.detections.size(),
              report.mapped.FaultCoverage(), report.ms.faultsim);
  return 0;
}
