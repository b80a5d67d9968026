#include "core/preserve.h"

namespace retest::core {
namespace {

struct Rng {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
};

}  // namespace

int PrefixLength(const retime::Graph& graph,
                 const retime::Retiming& retiming) {
  return retime::CountMoves(graph, retiming).max_forward_any;
}

sim::InputSequence MakePrefix(int length, int num_inputs, PrefixStyle style,
                              std::uint64_t seed) {
  Rng rng{seed};
  sim::InputSequence prefix(static_cast<size_t>(length));
  for (auto& vector : prefix) {
    vector.resize(static_cast<size_t>(num_inputs));
    for (auto& v : vector) {
      switch (style) {
        case PrefixStyle::kZeros: v = sim::V3::k0; break;
        case PrefixStyle::kOnes: v = sim::V3::k1; break;
        case PrefixStyle::kRandom:
          v = (rng.Next() & 1) ? sim::V3::k1 : sim::V3::k0;
          break;
      }
    }
  }
  return prefix;
}

TestSet DeriveRetimedTestSet(const TestSet& original, int prefix_length,
                             int num_inputs) {
  if (prefix_length <= 0) return original;
  TestSet derived;
  derived.tests.push_back(
      MakePrefix(prefix_length, num_inputs, PrefixStyle::kZeros));
  derived.tests.insert(derived.tests.end(), original.tests.begin(),
                       original.tests.end());
  return derived;
}

}  // namespace retest::core
