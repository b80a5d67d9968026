#include "sim/simd.h"

namespace retest::sim {

int ResolveLaneWords(int words) { return words == 1 ? 1 : kWideLaneWords; }

std::string DescribeLaneWords(int words) {
  const int resolved = ResolveLaneWords(words);
  return std::to_string(64 * resolved) + " lanes (" +
         (resolved == 1 ? "scalar word" : "portable word loops") + ")";
}

}  // namespace retest::sim
