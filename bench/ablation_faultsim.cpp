// Ablation: wall time of the PROOFS-style parallel fault simulator
// versus the serial reference and the good-machine simulation alone,
// on the first Table II circuit.  Prints best-of-reps ms per configuration and faults per
// second.
#include <cstdio>
#include <functional>
#include <vector>

#include "experiments.h"
#include "fault/collapse.h"
#include "faultsim/proofs.h"
#include "faultsim/serial.h"

int main() {
  using namespace retest;
  const netlist::Circuit circuit =
      bench::PrepareVariant(bench::Table2Variants()[0]).original;
  const std::vector<fault::Fault> faults =
      fault::Collapse(circuit).representatives;
  const sim::InputSequence sequence = bench::RandomSequence(circuit, 64, 42);
  constexpr int kReps = 5;

  const struct {
    const char* name;
    std::function<void()> run;
  } configs[] = {
      {"serial", [&] { faultsim::SimulateSerial(circuit, faults, sequence); }},
      {"proofs", [&] { faultsim::SimulateProofs(circuit, faults, sequence); }},
      {"good_simulation",
       [&] {
         sim::Simulator simulator(circuit);
         simulator.Reset();
         simulator.Run(sequence);
       }},
  };

  std::printf("%s: %zu faults, %zu vectors, best of %d\n",
              circuit.name().c_str(), faults.size(), sequence.size(), kReps);
  std::printf("%-20s %10s %14s\n", "config", "ms", "faults/s");
  for (const auto& config : configs) {
    const double ms = bench::TimeMs(config.run, kReps);
    std::printf("%-20s %10.3f %14.0f\n", config.name, ms,
                ms > 0 ? 1000.0 * static_cast<double>(faults.size()) / ms
                       : 0.0);
  }
  return 0;
}
