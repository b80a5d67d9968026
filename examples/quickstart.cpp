// Quickstart: build a small sequential circuit, retime it, generate a
// test set for the original, and map it to the retimed circuit with
// the Theorem-4 prefix (core::PreservePair).
//
//   ./example_quickstart
#include <cstdio>

#include "atpg/engine.h"
#include "core/flow.h"
#include "netlist/bench_io.h"
#include "netlist/builder.h"
#include "retime/apply.h"
#include "retime/from_netlist.h"
#include "retime/leiserson_saxe.h"

int main() {
  using namespace retest;

  // 1. Describe a circuit (or parse one with netlist::ReadBench).
  netlist::Builder builder("demo");
  builder.Input("a").Input("b").Input("c");
  builder.Dff("q0").Dff("q1");
  builder.And("g1", {"a", "q0"})
      .Or("g2", {"b", "q1"})
      .Xor("g3", {"g1", "g2"})
      .Nand("g4", {"g3", "c"})
      .Nor("g5", {"g3", "g1"})
      .SetDffInput("q0", "g4")
      .SetDffInput("q1", "g5")
      .Output("z0", "g3")
      .Output("z1", "g5");
  const netlist::Circuit circuit = builder.Build();
  std::printf("circuit:\n%s\n", netlist::WriteBenchString(circuit).c_str());

  // 2. Retime it for performance.
  const retime::BuildResult build = retime::BuildGraph(circuit);
  const auto min_period = retime::MinimizePeriod(build.graph);
  const auto applied =
      retime::ApplyRetiming(circuit, build, min_period.retiming);
  std::printf("clock period %d -> %d; DFFs %d -> %d\n\n",
              min_period.original_period, min_period.period,
              circuit.num_dffs(), applied.circuit.num_dffs());

  // 3. Preserve the test set: certify that the retimed circuit is a
  //    retiming of the original, generate tests for the ORIGINAL,
  //    prepend the pre-determined number of arbitrary vectors
  //    (Theorem 4) and fault simulate the result on the retimed one.
  atpg::AtpgOptions options;
  options.time_budget_ms = 5000;
  const core::PreserveReport report =
      core::PreservePair(circuit, applied.circuit, options);
  std::printf("ATPG on original: %.1f%% fault coverage, %zu tests\n",
              report.atpg.FaultCoverage(), report.atpg.tests.size());
  std::printf("prefix length (max forward moves): %d\n",
              report.prefix_length());
  std::printf("derived set on retimed circuit: %d/%zu faults detected\n",
              report.mapped.num_detected(), report.mapped.detections.size());
  return 0;
}
