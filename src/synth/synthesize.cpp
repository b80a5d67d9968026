#include "synth/synthesize.h"

#include <stdexcept>

#include "netlist/check.h"
#include "synth/cover.h"

namespace retest::synth {

using netlist::Circuit;
using netlist::NodeId;
using netlist::NodeKind;

std::string CircuitName(const fsm::Fsm& fsm, const SynthesisOptions& options) {
  return fsm.name + "." + ToSuffix(options.encoding) + "." +
         ToSuffix(options.script);
}

namespace {

/// The primary-input part of a transition's input cube, as a Cover
/// cube over variables 0..num_inputs-1.
Cube PiCube(const fsm::Fsm& fsm, const fsm::Transition& t) {
  Cube cube;
  for (int i = 0; i < fsm.num_inputs; ++i) {
    const char c = t.input[static_cast<size_t>(i)];
    if (c == '-') continue;
    cube.care |= 1ull << i;
    if (c == '1') cube.value |= 1ull << i;
  }
  return cube;
}

/// Input cubes of state `s` that match no transition (the "hold"
/// complement), enumerated as minterms.  Only needed for incompletely
/// specified machines.
std::vector<Cube> UnspecifiedMinterms(const fsm::Fsm& fsm, int s) {
  if (fsm.num_inputs > 20) {
    throw std::invalid_argument(
        "Synthesize: incompletely specified FSM with wide inputs");
  }
  std::vector<Cube> minterms;
  for (long long a = 0; a < (1ll << fsm.num_inputs); ++a) {
    bool specified = false;
    for (const fsm::Transition& t : fsm.transitions) {
      if (t.from != s) continue;
      if (PiCube(fsm, t).Matches(static_cast<std::uint64_t>(a))) {
        specified = true;
        break;
      }
    }
    if (specified) continue;
    Cube cube;
    for (int i = 0; i < fsm.num_inputs; ++i) {
      cube.care |= 1ull << i;
      if ((a >> i) & 1) cube.value |= 1ull << i;
    }
    minterms.push_back(cube);
  }
  return minterms;
}

}  // namespace

Circuit Synthesize(const fsm::Fsm& fsm, const SynthesisOptions& options) {
  fsm::Validate(fsm);
  const Encoding encoding = EncodeStates(fsm, options.encoding);
  const int bits = encoding.bits;
  if (fsm.num_inputs > 64) {
    throw std::invalid_argument("Synthesize: more than 64 primary inputs");
  }
  if (options.explicit_reset && fsm.reset_state < 0) {
    throw std::invalid_argument("Synthesize: FSM has no reset state");
  }
  const bool complete = fsm::IsCompletelySpecified(fsm);

  // Shannon decomposition over the state variables: each function
  // (primary output or next-state bit) is a 2^bits-leaf mux tree whose
  // leaf f|state=s is a two-level cover over the primary inputs only.
  // This keeps the state registers near the function roots and leaves
  // the leaf cones combinationally pure -- the structure that makes
  // min-period retiming productive (see DESIGN.md).
  const int num_functions = fsm.num_outputs + bits;
  const int num_codes = 1 << bits;
  auto state_of_code = [&](int code) {
    for (int s = 0; s < fsm.num_states(); ++s) {
      if (encoding.code_of[static_cast<size_t>(s)] ==
          static_cast<std::uint32_t>(code)) {
        return s;
      }
    }
    return -1;  // unused code: don't care, synthesize as constant 0
  };

  // leaf_covers[f * num_codes + code]
  std::vector<Cover> leaf_covers(
      static_cast<size_t>(num_functions * num_codes));
  for (int code = 0; code < num_codes; ++code) {
    const int s = state_of_code(code);
    if (s < 0) continue;
    for (const fsm::Transition& t : fsm.transitions) {
      if (t.from != s) continue;
      const Cube cube = PiCube(fsm, t);
      for (int o = 0; o < fsm.num_outputs; ++o) {
        if (t.output[static_cast<size_t>(o)] == '1') {
          leaf_covers[static_cast<size_t>(o * num_codes + code)].push_back(
              cube);
        }
      }
      const std::uint32_t to_code =
          encoding.code_of[static_cast<size_t>(t.to)];
      for (int b = 0; b < bits; ++b) {
        if ((to_code >> b) & 1) {
          leaf_covers[static_cast<size_t>((fsm.num_outputs + b) * num_codes +
                                          code)]
              .push_back(cube);
        }
      }
    }
    if (!complete) {
      // Unspecified inputs hold the state (output 0).
      const auto hold = UnspecifiedMinterms(fsm, s);
      const std::uint32_t code_bits = static_cast<std::uint32_t>(code);
      for (int b = 0; b < bits; ++b) {
        if ((code_bits >> b) & 1) {
          auto& cover = leaf_covers[static_cast<size_t>(
              (fsm.num_outputs + b) * num_codes + code)];
          cover.insert(cover.end(), hold.begin(), hold.end());
        }
      }
    }
  }
  for (Cover& cover : leaf_covers) MinimizeCover(cover);

  // Netlist skeleton: PIs, state DFFs (inputs wired at the end).
  Circuit circuit(CircuitName(fsm, options));
  std::vector<NodeId> pi_vars(static_cast<size_t>(fsm.num_inputs));
  for (int i = 0; i < fsm.num_inputs; ++i) {
    pi_vars[static_cast<size_t>(i)] =
        circuit.Add(NodeKind::kInput, "in" + std::to_string(i));
  }
  NodeId reset = netlist::kNoNode;
  if (options.explicit_reset) {
    reset = circuit.Add(NodeKind::kInput, "rst");
  }
  std::vector<NodeId> dffs(static_cast<size_t>(bits));
  std::vector<NodeId> state_vars(static_cast<size_t>(bits));
  for (int b = 0; b < bits; ++b) {
    // Appending rather than `"q" + std::to_string(b)`: GCC 12 at -O3
    // reports a false -Wrestrict on the inlined concatenation.
    std::string name = "q";
    name += std::to_string(b);
    dffs[static_cast<size_t>(b)] = circuit.Add(NodeKind::kDff, name);
    state_vars[static_cast<size_t>(b)] = dffs[static_cast<size_t>(b)];
  }

  // Leaf logic (shared across all functions), then the mux trees.
  const std::vector<NodeId> leaf_nets =
      EmitCovers(circuit, leaf_covers, pi_vars, options.script, "s_");
  std::vector<std::vector<NodeId>> leaves(
      static_cast<size_t>(num_functions),
      std::vector<NodeId>(static_cast<size_t>(num_codes)));
  for (int f = 0; f < num_functions; ++f) {
    for (int code = 0; code < num_codes; ++code) {
      leaves[static_cast<size_t>(f)][static_cast<size_t>(code)] =
          leaf_nets[static_cast<size_t>(f * num_codes + code)];
    }
  }
  const std::vector<NodeId> nets =
      EmitMuxTrees(circuit, leaves, state_vars, "s_");

  // Primary outputs.
  for (int o = 0; o < fsm.num_outputs; ++o) {
    circuit.Add(NodeKind::kOutput, "out" + std::to_string(o),
                {nets[static_cast<size_t>(o)]});
  }

  // Next-state wiring, with the optional reset override
  //   next = rst ? reset_code : f   (per bit).
  NodeId reset_n = netlist::kNoNode;
  if (options.explicit_reset) {
    reset_n = circuit.Add(NodeKind::kNot, "rst_n", {reset});
  }
  const std::uint32_t reset_code =
      fsm.reset_state >= 0
          ? encoding.code_of[static_cast<size_t>(fsm.reset_state)]
          : 0;
  for (int b = 0; b < bits; ++b) {
    NodeId next = nets[static_cast<size_t>(fsm.num_outputs + b)];
    if (options.explicit_reset) {
      const NodeId gated = circuit.Add(
          NodeKind::kAnd, circuit.FreshName("ns" + std::to_string(b)),
          {reset_n, next});
      if ((reset_code >> b) & 1) {
        next = circuit.Add(NodeKind::kOr,
                           circuit.FreshName("nsr" + std::to_string(b)),
                           {gated, reset});
      } else {
        next = gated;
      }
    }
    circuit.AddPin(dffs[static_cast<size_t>(b)], next);
  }

  netlist::CheckOrThrow(circuit);
  return circuit;
}

}  // namespace retest::synth
