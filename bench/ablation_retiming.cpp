// Ablation: retiming objectives across the Table II variants --
// min-period (FEAS) alone, min-period plus register minimization, and
// unconstrained register minimization -- reporting period, register
// count and the move maxima that set the Theorem-4 prefix length.
#include <cstdio>

#include "experiments.h"
#include "retime/leiserson_saxe.h"
#include "retime/minreg.h"

int main() {
  using namespace retest;

  std::printf("Ablation: retiming objectives\n\n");
  std::printf("%-12s | %5s %5s | %9s | %14s | %12s | %6s\n", "Circuit",
              "gates", "DFF", "period", "minperiod", "minreg", "prefix");
  std::printf("%-12s | %5s %5s | %9s | %6s %7s | %5s %6s | %6s\n", "", "", "",
              "orig", "period", "DFF", "DFF", "period", "");

  for (const auto& variant : bench::Table2Variants()) {
    const auto circuit = bench::SynthesizeVariant(variant);
    const auto build = retime::BuildGraph(circuit);

    const auto min_period = retime::MinimizePeriod(build.graph);
    long dff_min_period = 0;
    for (int e = 0; e < build.graph.num_edges(); ++e) {
      dff_min_period += build.graph.RetimedWeight(e, min_period.retiming.lags);
    }
    const auto constrained = retime::MinimizeRegisters(
        build.graph, min_period.period, &min_period.retiming);
    const auto unconstrained = retime::MinimizeRegisters(build.graph);
    const auto moves = retime::CountMoves(build.graph, constrained.retiming);

    std::printf("%-12s | %5d %5d | %9d | %6d %7ld | %5ld %6d | %6d\n",
                circuit.name().c_str(), circuit.num_gates(),
                circuit.num_dffs(), min_period.original_period,
                min_period.period, dff_min_period, unconstrained.registers,
                unconstrained.period, moves.max_forward_any);
    std::fflush(stdout);
  }
  std::printf(
      "\nmin-period retiming inflates registers (the Table II #DFF jump);\n"
      "unconstrained register minimization recovers the FSM-sized count\n"
      "(the Fig. 6 'easy' circuit).\n");
  return 0;
}
