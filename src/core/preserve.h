// Test-set preservation under retiming (the paper's Theorem 4).
//
// If K' results from retiming K, and P is any sequence of arbitrary
// input vectors whose length is the maximum number of forward retiming
// moves across any node of K, then P followed by a complete test set of
// K detects, in K', every fault corresponding to a K-detected fault.
#pragma once

#include <cstdint>

#include "core/testset.h"
#include "retime/graph.h"
#include "retime/moves.h"

namespace retest::core {

/// How the arbitrary prefix vectors are chosen (Theorem 4 allows any).
enum class PrefixStyle {
  kZeros,
  kOnes,
  kRandom,
};

/// Prefix length mandated by Theorem 4 for mapping tests of K onto the
/// retimed K': the maximum number of forward moves across any node.
int PrefixLength(const retime::Graph& graph, const retime::Retiming& retiming);

/// Builds the prefix sequence itself.
sim::InputSequence MakePrefix(int length, int num_inputs, PrefixStyle style,
                              std::uint64_t seed = 1);

/// Derives the test set for a retimed circuit from `original`:
/// prepends one test of `prefix_length` all-zero vectors.  Prefixing
/// only the stream head suffices because any preceding vectors are
/// arbitrary inputs (this is what the paper's experiments do: "a
/// single arbitrary input vector ... prefixed to the test sets").
TestSet DeriveRetimedTestSet(const TestSet& original, int prefix_length,
                             int num_inputs);

}  // namespace retest::core
