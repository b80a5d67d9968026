// Structural equivalence collapsing of stuck-at faults.
//
// Classic gate-local rules: for an AND gate, s-a-0 on any input line is
// equivalent to s-a-0 on the output; dually for OR; inverting gates add
// the polarity flip; BUF/NOT propagate both polarities.  Faults are NOT
// collapsed across DFFs: a fault before and after a flip-flop differ in
// their first-cycle behaviour under an unknown initial state, which is
// exactly the line-splitting effect the paper uses to explain the
// residual discrepancies in Table III.
#pragma once

#include <vector>

#include "fault/fault.h"

namespace retest::fault {

/// Result of equivalence collapsing over the full fault universe.
struct CollapsedFaults {
  /// The full universe, as returned by EnumerateFaults.
  std::vector<Fault> all;
  /// For each fault in `all`, the index of its class representative
  /// (an index into `all`).
  std::vector<int> class_of;
  /// One fault per equivalence class (the representative set that a
  /// fault simulator or ATPG actually targets), sorted by
  /// (site.node, site.pin, stuck_at_1) — a deterministic order that
  /// does not depend on union-find traversal or map iteration, so
  /// fault lists are stable across platforms.
  std::vector<Fault> representatives;
};

/// Runs equivalence collapsing on the circuit's fault universe.
CollapsedFaults Collapse(const netlist::Circuit& circuit);

}  // namespace retest::fault
