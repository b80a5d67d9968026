// One data-parallel loop for coarse, independent items (PROOFS fault
// batches, ATPG faults, Table II/III pairs).
#pragma once

#include <cstddef>
#include <functional>

namespace retest::core {

/// Resolves a user-facing `num_threads` knob: positive values are taken
/// literally, anything else means the `REPRO_THREADS` env var when it
/// is a positive integer, else hardware concurrency (at least 1).  The
/// result is at most 512.
int ResolveThreadCount(int requested);

/// Runs fn(worker, item) for every item in [0, count) and returns once
/// all finished.  Starts min(ResolveThreadCount(num_threads), count) - 1
/// threads for this call and joins them; the caller is worker 0, so one
/// thread runs every item inline.  `worker` in [0, threads) is stable
/// per thread (index per-thread scratch with it); items come from one
/// shared counter.  The first exception an item throws is rethrown
/// after the join and the items not yet started are abandoned.
void ParallelFor(int num_threads, std::size_t count,
                 const std::function<void(int worker, std::size_t item)>& fn);

}  // namespace retest::core
