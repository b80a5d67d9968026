// Finite-state-machine descriptions (KISS2-style).
#pragma once

#include <string>
#include <vector>

namespace retest::fsm {

/// One symbolic transition: on any input matching `input` (a cube of
/// '0'/'1'/'-') in state `from`, go to state `to` and emit `output`
/// (a string of '0'/'1'/'-').
struct Transition {
  std::string input;
  int from = 0;
  int to = 0;
  std::string output;
};

/// A symbolic FSM with KISS2 semantics.
struct Fsm {
  std::string name;
  int num_inputs = 0;
  int num_outputs = 0;
  std::vector<std::string> state_names;
  int reset_state = -1;  ///< Index into state_names, or -1 if none.
  std::vector<Transition> transitions;

  int num_states() const { return static_cast<int>(state_names.size()); }

  /// Index of a state name; -1 when absent.
  int FindState(const std::string& name) const;

  /// Adds a state if new; returns its index either way.
  int AddState(const std::string& name);
};

/// Validation: cube widths match the interface, state indices in range,
/// and the machine is deterministic (no two transitions of a state
/// match the same input vector).  Throws std::runtime_error on
/// violations.  Determinism is checked pairwise on cube overlap.
void Validate(const Fsm& fsm);

/// True when every (state, input vector) pair matches some transition.
/// (Synthesis treats unspecified pairs as "hold state, output 0".)
bool IsCompletelySpecified(const Fsm& fsm);

}  // namespace retest::fsm
