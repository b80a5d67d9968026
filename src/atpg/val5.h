// Composite 5-valued logic for stuck-at test generation.
//
// Each line carries a (good, faulty) pair of 3-valued values; the
// classic Roth values are 0=(0,0), 1=(1,1), D=(1,0), D'=(0,1), X=any
// pair with an unknown component.  Evaluating the pair componentwise
// over the 3-valued algebra gives exactly the 5-valued calculus.
#pragma once

#include <cstdint>
#include <span>

#include "netlist/circuit.h"
#include "sim/logic3.h"

namespace retest::atpg {

/// A (good machine, faulty machine) value pair.
struct V5 {
  sim::V3 good = sim::V3::kX;
  sim::V3 faulty = sim::V3::kX;

  friend bool operator==(const V5&, const V5&) = default;

  static constexpr V5 Zero() { return {sim::V3::k0, sim::V3::k0}; }
  static constexpr V5 One() { return {sim::V3::k1, sim::V3::k1}; }
  static constexpr V5 D() { return {sim::V3::k1, sim::V3::k0}; }
  static constexpr V5 Dbar() { return {sim::V3::k0, sim::V3::k1}; }
  static constexpr V5 X() { return {sim::V3::kX, sim::V3::kX}; }

  /// Same binary value in both machines.
  bool IsBinary() const {
    return good != sim::V3::kX && good == faulty;
  }
  /// Fault effect: both binary and different.
  bool IsFaultEffect() const {
    return good != sim::V3::kX && faulty != sim::V3::kX && good != faulty;
  }
  bool HasUnknown() const {
    return good == sim::V3::kX || faulty == sim::V3::kX;
  }
};

/// Broadcasts a known 3-valued value into both machines.
inline V5 Both(sim::V3 v) { return {v, v}; }

/// Evaluates a combinational node -- gate, buffer, inverter, output pin
/// or constant -- from `values[fanin]` in both machines.  In the faulty
/// machine, input pin `fault_pin` reads `forced` (-1: no pin fault); a
/// stem fault on the node itself is the caller's to apply.
inline V5 EvalNode5(netlist::NodeKind kind,
                    std::span<const std::uint32_t> fanins, const V5* values,
                    int fault_pin, sim::V3 forced) {
  using netlist::NodeKind;
  auto fold = [&](sim::V3 unit, auto op) {
    V5 out = Both(unit);
    for (size_t pin = 0; pin < fanins.size(); ++pin) {
      V5 in = values[fanins[pin]];
      if (static_cast<int>(pin) == fault_pin) in.faulty = forced;
      out.good = op(out.good, in.good);
      out.faulty = op(out.faulty, in.faulty);
    }
    return out;
  };
  auto invert = [](V5 v) { return V5{sim::Not3(v.good), sim::Not3(v.faulty)}; };
  auto and3 = [](sim::V3 a, sim::V3 b) { return sim::And3(a, b); };
  auto or3 = [](sim::V3 a, sim::V3 b) { return sim::Or3(a, b); };
  auto xor3 = [](sim::V3 a, sim::V3 b) { return sim::Xor3(a, b); };
  switch (kind) {
    case NodeKind::kConst0: return Both(sim::V3::k0);
    case NodeKind::kConst1: return Both(sim::V3::k1);
    case NodeKind::kOutput:
    case NodeKind::kBuf:
    case NodeKind::kNot: {
      V5 out = values[fanins[0]];
      if (fault_pin == 0) out.faulty = forced;
      return kind == NodeKind::kNot ? invert(out) : out;
    }
    case NodeKind::kAnd: return fold(sim::V3::k1, and3);
    case NodeKind::kNand: return invert(fold(sim::V3::k1, and3));
    case NodeKind::kOr: return fold(sim::V3::k0, or3);
    case NodeKind::kNor: return invert(fold(sim::V3::k0, or3));
    case NodeKind::kXor: return fold(sim::V3::k0, xor3);
    case NodeKind::kXnor: return invert(fold(sim::V3::k0, xor3));
    default: return V5::X();  // sources are seeded, not evaluated
  }
}

}  // namespace retest::atpg
