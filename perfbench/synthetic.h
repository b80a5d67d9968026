// Seeded synthetic sequential circuit for the faultsim_long workload.
//
// The circuit is large (about 20,000 gates) so that what the fault
// simulator walks for it does not fit in an 8 MiB L2: under the
// benchmark's 24 vectors the compiled image, the scalar good-machine
// trace and the lane-wide trace the cone evaluator reads come to about
// 9 MiB at 64 lanes and 63 MiB at 512 (the driver reports the bytes).
// It is drop-light: its logic is deep and AND/OR heavy and reaches few
// primary outputs through AND trees, so only a small share of faults is
// ever detected and nearly every fault batch runs the whole input
// sequence.  Input x0 is a synchronous reset of every register.
// Everything is derived from the seed; no external data is read.
#pragma once

#include <cstdint>

#include "netlist/circuit.h"
#include "sim/simulator.h"

namespace perfbench {

/// Builds the circuit for `seed`: 64 inputs, 300 registers, about
/// 20,000 gates in 32 levels and 24 outputs.  Every gate and register output has
/// at least one consumer, and every gate reads only lower levels, so
/// the netlist is acyclic apart from register feedback.
retest::netlist::Circuit MakeSyntheticCircuit(std::uint64_t seed);

/// `length` seeded random binary input vectors; the reset input x0 is 1
/// in the first vector and 0 after.
retest::sim::InputSequence MakeRandomSequence(std::uint64_t seed,
                                              int num_inputs, int length);

}  // namespace perfbench
