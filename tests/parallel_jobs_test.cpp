// Per-job determinism under concurrent jobs: a job's result does not
// depend on what else runs next to it.  The Table II/III drivers run
// their sixteen pairs as items of one core::ThreadPool::ParallelFor,
// one engine thread per pair, and print rows that must equal a serial
// sweep's.  Each check runs its jobs serially, then under ParallelFor
// at 1 and 4 threads, and compares every per-job ATPG result (status
// per fault, test list, evaluation count) bit for bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "atpg/engine.h"
#include "core/thread_pool.h"
#include "experiments.h"
#include "tests/random_circuits.h"

namespace retest {
namespace {

/// A budget-free quick ATPG configuration: fixed search limits only,
/// so the result is a pure function of the circuit and the options.
atpg::AtpgOptions RandomCircuitOptions() {
  atpg::AtpgOptions options;
  options.style = atpg::AtpgStyle::kForwardIla;
  options.random_rounds = 2;
  options.backtracks_per_fault = 8;
  options.max_frames = 8;
  options.redundancy_check = false;
  options.time_budget_ms = 600'000;
  options.num_threads = 1;
  return options;
}

/// The fixed-limit quick pass used on Table II pairs: no random phase,
/// two backtracks per fault, and a budget the limits never reach.
atpg::AtpgOptions Table2QuickOptions() {
  atpg::AtpgOptions options;
  options.style = atpg::AtpgStyle::kForwardIla;
  options.random_rounds = 0;
  options.backtracks_per_fault = 2;
  options.max_frames = 16;
  options.redundancy_check = false;
  options.time_budget_ms = 600'000;
  options.num_threads = 1;
  return options;
}

void ExpectIdenticalResults(const atpg::AtpgResult& a,
                            const atpg::AtpgResult& b) {
  ASSERT_EQ(a.status.size(), b.status.size());
  for (std::size_t i = 0; i < a.status.size(); ++i) {
    EXPECT_EQ(a.status[i], b.status[i]) << "fault " << i;
  }
  EXPECT_EQ(a.tests, b.tests);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

/// Runs `job(i)` for every i in [0, count): in a plain loop when
/// `threads` is 0, else as the items of one ParallelFor on a pool of
/// `threads` threads.  Each job returns its ATPG results.
using Job = std::function<std::vector<atpg::AtpgResult>(std::size_t)>;

std::vector<std::vector<atpg::AtpgResult>> RunJobs(std::size_t count,
                                                   int threads,
                                                   const Job& job) {
  std::vector<std::vector<atpg::AtpgResult>> results(count);
  if (threads == 0) {
    for (std::size_t i = 0; i < count; ++i) results[i] = job(i);
    return results;
  }
  core::ThreadPool pool(threads);
  pool.ParallelFor(count,
                   [&](int, std::size_t i) { results[i] = job(i); });
  return results;
}

void ExpectSameSeriallyAndUnderParallelFor(std::size_t count, const Job& job) {
  const auto serial = RunJobs(count, 0, job);
  for (const int threads : {1, 4}) {
    const auto parallel = RunJobs(count, threads, job);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(serial[i].size(), parallel[i].size());
      for (std::size_t r = 0; r < serial[i].size(); ++r) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " job=" +
                     std::to_string(i) + " result=" + std::to_string(r));
        ExpectIdenticalResults(serial[i][r], parallel[i][r]);
      }
    }
  }
}

TEST(ParallelJobs, PerJobResultsIdenticalUnderOneVsManyConcurrentJobs) {
  std::vector<netlist::Circuit> circuits;
  for (const unsigned seed : {3u, 11u, 17u, 29u}) {
    retest::testing::RandomCircuitOptions options;
    options.num_inputs = 5;
    options.num_dffs = 4;
    options.num_gates = 32;
    circuits.push_back(retest::testing::MakeRandomCircuit(seed, options));
  }
  ExpectSameSeriallyAndUnderParallelFor(circuits.size(), [&](std::size_t i) {
    return std::vector<atpg::AtpgResult>{
        atpg::RunAtpg(circuits[i], RandomCircuitOptions())};
  });
}

TEST(ParallelJobs, Table2PairsIdenticalUnderOneVsManyConcurrentJobs) {
  // Each job is what a table driver's item does: prepare the pair
  // (synthesis and min-period retiming), then ATPG both circuits.
  const auto& variants = bench::Table2Variants();
  ExpectSameSeriallyAndUnderParallelFor(2, [&](std::size_t i) {
    const bench::Prepared prepared = bench::PrepareVariant(variants[i]);
    return std::vector<atpg::AtpgResult>{
        atpg::RunAtpg(prepared.original, Table2QuickOptions()),
        atpg::RunAtpg(prepared.retimed, Table2QuickOptions())};
  });
}

}  // namespace
}  // namespace retest
