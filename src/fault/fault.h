// Single stuck-at fault model.
//
// A fault site is a "line" of the circuit in the paper's sense: every
// net (represented by its driver node's output) is a line, and when a
// net fans out to two or more sinks, each branch (a specific fanin pin
// of a consumer) is an additional line.  Each line carries a stuck-at-0
// and a stuck-at-1 fault.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.h"
#include "sim/parallel.h"

namespace retest::fault {

/// A fault site: `pin == -1` is the stem (the node's output net);
/// `pin >= 0` is the branch read by `node` on that fanin pin.
struct Site {
  netlist::NodeId node = netlist::kNoNode;
  int pin = -1;

  friend bool operator==(const Site&, const Site&) = default;
  friend auto operator<=>(const Site&, const Site&) = default;
};

/// A single stuck-at fault.
struct Fault {
  Site site;
  bool stuck_at_1 = false;

  friend bool operator==(const Fault&, const Fault&) = default;
  friend auto operator<=>(const Fault&, const Fault&) = default;
};

/// Human-readable label like "g7/2 s-a-1" or "n12 s-a-0".
std::string ToString(const netlist::Circuit& circuit, const Fault& fault);
std::string ToString(const netlist::Circuit& circuit, const Site& site);

/// Enumerates the full single stuck-at fault universe of a circuit:
/// two faults per line.  Lines are: the output of every node that
/// drives at least one sink, plus every fanin pin whose driver net has
/// two or more sinks (fanout branches).  Output-pin nodes observe their
/// single fanin, so a PO line is the driver's stem or branch.  Faults
/// come in strictly increasing Fault order (Collapse relies on it).
std::vector<Fault> EnumerateFaults(const netlist::Circuit& circuit);

/// Converts a fault to the simulator's injection record for lane
/// `lane`.  Stem faults on a node with fanout are expanded by the
/// parallel engine automatically (forcing the output value); branch
/// faults force a single consumer pin.
sim::Injection ToInjection(const Fault& fault, int lane);

}  // namespace retest::fault
