#include "synthetic.h"

#include <algorithm>
#include <string>
#include <vector>

#include "netlist/builder.h"
#include "netlist/check.h"

namespace perfbench {

namespace {

using retest::netlist::NodeKind;

/// splitmix64: a small, well-mixed, platform-independent generator.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int Below(int bound) {
    return static_cast<int>(Next() % static_cast<std::uint64_t>(bound));
  }
};

constexpr int kInputs = 64;
constexpr int kOutputs = 24;
constexpr int kDffs = 300;
constexpr int kGates = 20000;
constexpr int kLevels = 32;

NodeKind PickKind(SplitMix& rng) {
  const int roll = rng.Below(100);
  if (roll < 25) return NodeKind::kAnd;
  if (roll < 50) return NodeKind::kOr;
  if (roll < 70) return NodeKind::kNand;
  if (roll < 90) return NodeKind::kNor;
  if (roll < 95) return NodeKind::kNot;
  return NodeKind::kXor;
}

}  // namespace

retest::netlist::Circuit MakeSyntheticCircuit(std::uint64_t seed) {
  SplitMix rng{seed * 0x2545f4914f6cdd1dull + 0x51ed27};
  retest::netlist::Builder builder("synthetic" + std::to_string(seed));
  // Level 0 holds the inputs and register outputs; each further level
  // reads mostly the level below it, so the logic is kLevels deep.
  std::vector<std::vector<std::string>> levels(1);
  for (int i = 0; i < kInputs; ++i) {
    levels[0].push_back("x" + std::to_string(i));
    builder.Input(levels[0].back());
  }
  std::vector<std::string> dffs;
  for (int i = 0; i < kDffs; ++i) {
    dffs.push_back("q" + std::to_string(i));
    builder.Dff(dffs.back());
    levels[0].push_back(dffs.back());
  }

  const int width = kGates / kLevels;
  int gate_count = 0;
  for (int level = 1; level <= kLevels; ++level) {
    const std::vector<std::string>& below = levels.back();
    std::vector<std::string> current;
    // Gate j's first fanin walks the level below in order, so every net
    // there gets a consumer (levels are at least as wide as level 0).
    const int count = std::max(width, static_cast<int>(below.size()));
    for (int j = 0; j < count; ++j) {
      const NodeKind kind = PickKind(rng);
      const int arity = kind == NodeKind::kNot   ? 1
                        : kind == NodeKind::kXor ? 2
                                                 : 2 + rng.Below(3);
      std::vector<std::string> fanin{
          below[static_cast<std::size_t>(j) % below.size()]};
      while (static_cast<int>(fanin.size()) < arity) {
        // Mostly the level below; sometimes up to three levels further
        // back, which makes paths reconverge.
        const int back = rng.Below(10) < 7 ? 1 : 1 + rng.Below(4);
        const auto& from =
            levels[static_cast<std::size_t>(std::max(0, level - back))];
        fanin.push_back(
            from[static_cast<std::size_t>(rng.Below(static_cast<int>(from.size())))]);
      }
      current.push_back("g" + std::to_string(gate_count++));
      builder.Gate(kind, current.back(), fanin);
    }
    levels.push_back(std::move(current));
  }

  // Registers read the upper half of the logic through a synchronous
  // reset: input x0 clears them, so the machine leaves the unknown state
  // after the first vector (MakeRandomSequence raises x0 there).
  builder.Gate(NodeKind::kNot, "rst_n", {"x0"});
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const auto& from = levels[static_cast<std::size_t>(
        kLevels / 2 + rng.Below(kLevels / 2) + 1)];
    const std::string next = "d" + std::to_string(i);
    builder.Gate(NodeKind::kAnd, next,
                 {"rst_n", from[static_cast<std::size_t>(
                               rng.Below(static_cast<int>(from.size())))]});
    builder.SetDffInput(dffs[i], next);
  }
  // The top level is folded down to the output count by one level of
  // AND gates, which keeps most internal lines hard to observe, and then
  // by XOR gates, which pass every difference on.
  std::vector<std::string> top = levels.back();
  int folds = 0;
  for (NodeKind kind = NodeKind::kAnd;
       static_cast<int>(top.size()) > kOutputs;
       kind = NodeKind::kXor) {
    std::vector<std::string> next;
    for (std::size_t i = 0; i < top.size(); i += 4) {
      std::vector<std::string> fanin(
          top.begin() + static_cast<std::ptrdiff_t>(i),
          top.begin() + static_cast<std::ptrdiff_t>(std::min(i + 4, top.size())));
      next.push_back("f" + std::to_string(folds++));
      builder.Gate(kind, next.back(), fanin);
    }
    top = std::move(next);
  }
  for (std::size_t i = 0; i < top.size(); ++i) {
    builder.Output("z" + std::to_string(i), top[i]);
  }
  retest::netlist::Circuit circuit = builder.Build();
  retest::netlist::CheckOrThrow(circuit);
  return circuit;
}

retest::sim::InputSequence MakeRandomSequence(std::uint64_t seed,
                                              int num_inputs, int length) {
  SplitMix rng{seed ^ 0x7f4a7c159e3779b9ull};
  retest::sim::InputSequence sequence(static_cast<std::size_t>(length));
  for (std::size_t t = 0; t < sequence.size(); ++t) {
    auto& vector = sequence[t];
    vector.resize(static_cast<std::size_t>(num_inputs));
    for (auto& value : vector) {
      value = (rng.Next() >> 17) & 1 ? retest::sim::V3::k1
                                     : retest::sim::V3::k0;
    }
    vector[0] = t == 0 ? retest::sim::V3::k1 : retest::sim::V3::k0;
  }
  return sequence;
}

}  // namespace perfbench
