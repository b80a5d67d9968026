// Lane widths of the bit-parallel PROOFS engine.
//
// The kernels (sim/parallel.h) are generic over W, the number of
// 64-bit machine words per lane group, and are instantiated at two
// widths: W=1 (64 faults per pass, the classic PROOFS word) and
// W=kWideLaneWords (512 faults per pass).  Both are plain word loops
// compiled for the baseline ISA; no build adds vector-ISA flags.
//
// faultsim::SimulateProofs picks the width from its input alone: a run
// that batches at most 64 faults uses W=1, every larger run the wide
// width (docs/ARCHITECTURE.md, "Lane widths").  The width never
// changes detections, only batching and work counters.
#pragma once

#include <string>

namespace retest::sim {

/// Machine words per lane group of the wide kernel (512 lanes).
inline constexpr int kWideLaneWords = 8;

/// Maps a lane-word count onto a width the engine runs: 1 stays 1,
/// anything else is the wide width.
int ResolveLaneWords(int words);

/// Human-readable label for a width, e.g. "512 lanes (portable word
/// loops)"; the bench JSON emitters record it next to their numbers.
std::string DescribeLaneWords(int words);

}  // namespace retest::sim
