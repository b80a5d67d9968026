// Quickstart: take a circuit and a retiming of it, generate a test set
// for the original, and map it to the retimed circuit with the
// Theorem-4 prefix (core::PreservePair).
//
// The pair is the paper's Fig. 3: L1 keeps one DFF on a reconvergent
// fanout stem, and L2 moves that register forward onto the stem's two
// branches.  One forward move needs a prefix of one arbitrary vector.
//
//   ./example_quickstart
#include <cstdio>

#include "atpg/engine.h"
#include "core/flow.h"
#include "netlist/bench_io.h"
#include "sim/logic3.h"
#include "tests/paper_circuits.h"

int main() {
  using namespace retest;

  // 1. A circuit and a retiming of it (or parse both with
  //    netlist::ReadBench).
  const netlist::Circuit original = testing::MakeFig3L1();
  const netlist::Circuit retimed = testing::MakeFig3Pair().applied.circuit;
  std::printf("original:\n%s\n", netlist::WriteBenchString(original).c_str());
  std::printf("retimed (register moved forward across the stem of q):\n%s\n",
              netlist::WriteBenchString(retimed).c_str());

  // 2. Preserve the test set: certify that the retimed circuit is a
  //    retiming of the original, generate tests for the ORIGINAL,
  //    prepend the pre-determined number of arbitrary vectors
  //    (Theorem 4) and fault simulate the result on the retimed one.
  atpg::AtpgOptions options;
  options.time_budget_ms = 5000;
  const core::PreserveReport report =
      core::PreservePair(original, retimed, options);
  std::printf("ATPG on original: %.1f%% fault coverage, %zu tests\n",
              report.atpg.FaultCoverage(), report.atpg.tests.size());
  std::printf("prefix length (max forward moves): %d\n",
              report.prefix_length());
  if (report.prefix_length() > 0) {
    // DeriveRetimedTestSet puts the prefix first, as its own test.
    std::printf("prefix vectors:");
    for (const auto& vector : report.derived.tests.front()) {
      std::printf(" %s", sim::ToString(vector).c_str());
    }
    std::printf("\n");
  }
  std::printf("derived set on retimed circuit: %d/%zu faults detected\n",
              report.mapped.num_detected(), report.mapped.detections.size());
  return 0;
}
