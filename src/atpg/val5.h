// Composite 5-valued logic for stuck-at test generation.
//
// Each line carries a (good, faulty) pair of 3-valued values; the
// classic Roth values are 0=(0,0), 1=(1,1), D=(1,0), D'=(0,1), X=any
// pair with an unknown component.  Evaluating the pair componentwise
// over the 3-valued algebra gives exactly the 5-valued calculus.
#pragma once

#include <cstddef>
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

/// 3-valued truth tables indexed [a][b] by V3's encoding (0, 1, X);
/// each equals the sim::And3 / Or3 / Xor3 / Not3 it replaces.
using Table3 = sim::V3[3][3];
inline constexpr Table3 kAnd3Table = {
    {sim::V3::k0, sim::V3::k0, sim::V3::k0},
    {sim::V3::k0, sim::V3::k1, sim::V3::kX},
    {sim::V3::k0, sim::V3::kX, sim::V3::kX}};
inline constexpr Table3 kOr3Table = {
    {sim::V3::k0, sim::V3::k1, sim::V3::kX},
    {sim::V3::k1, sim::V3::k1, sim::V3::k1},
    {sim::V3::kX, sim::V3::k1, sim::V3::kX}};
inline constexpr Table3 kXor3Table = {
    {sim::V3::k0, sim::V3::k1, sim::V3::kX},
    {sim::V3::k1, sim::V3::k0, sim::V3::kX},
    {sim::V3::kX, sim::V3::kX, sim::V3::kX}};
inline constexpr sim::V3 kNot3Table[3] = {sim::V3::k1, sim::V3::k0,
                                          sim::V3::kX};

/// Evaluates a combinational node -- gate, buffer, inverter, output pin
/// or constant -- from `values[fanin]` in both machines.  In the faulty
/// machine, input pin `fault_pin` reads `forced` (-1: no pin fault); a
/// stem fault on the node itself is the caller's to apply.  Gates fold
/// their inputs through the tables above, one lookup per machine and
/// pin.
inline V5 EvalNode5(netlist::NodeKind kind,
                    std::span<const std::uint32_t> fanins, const V5* values,
                    int fault_pin, sim::V3 forced) {
  using netlist::NodeKind;
  auto at = [](sim::V3 v) { return static_cast<std::size_t>(v); };
  auto fold = [&](const Table3& table, sim::V3 unit) {
    V5 out = Both(unit);
    for (std::size_t pin = 0; pin < fanins.size(); ++pin) {
      const V5 in = values[fanins[pin]];
      const sim::V3 faulty =
          static_cast<int>(pin) == fault_pin ? forced : in.faulty;
      out.good = table[at(out.good)][at(in.good)];
      out.faulty = table[at(out.faulty)][at(faulty)];
    }
    return out;
  };
  auto invert = [&](V5 v) {
    return V5{kNot3Table[at(v.good)], kNot3Table[at(v.faulty)]};
  };
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
    case NodeKind::kAnd: return fold(kAnd3Table, sim::V3::k1);
    case NodeKind::kNand: return invert(fold(kAnd3Table, sim::V3::k1));
    case NodeKind::kOr: return fold(kOr3Table, sim::V3::k0);
    case NodeKind::kNor: return invert(fold(kOr3Table, sim::V3::k0));
    case NodeKind::kXor: return fold(kXor3Table, sim::V3::k0);
    case NodeKind::kXnor: return invert(fold(kXor3Table, sim::V3::k0));
    default: return V5::X();  // sources are seeded, not evaluated
  }
}

}  // namespace retest::atpg
