// Fleet scheduler contract: job execution and waiting, priority
// ordering, work stealing under skewed job sizes, per-job thread
// budget clamping and enforcement, determinism of per-job ATPG
// results under 1 vs N concurrent jobs, checkpoint-based deadline
// preemption and resume, exception propagation, and graceful cancel.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atpg/engine.h"
#include "core/fleet.h"
#include "fsm/benchmarks.h"
#include "synth/synthesize.h"
#include "tests/random_circuits.h"

namespace retest::core {
namespace {

using netlist::Circuit;

Circuit SmallCircuit(unsigned seed) {
  retest::testing::RandomCircuitOptions options;
  options.num_inputs = 5;
  options.num_dffs = 4;
  options.num_gates = 32;
  return retest::testing::MakeRandomCircuit(seed, options);
}

/// A budget-free quick ATPG configuration: fixed search limits only,
/// so the result is a pure function of (circuit, seed, threads-free
/// options) — identical whether the job runs alone or next to others.
atpg::AtpgOptions QuickAtpgOptions() {
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

void ExpectIdenticalResults(const atpg::AtpgResult& a,
                            const atpg::AtpgResult& b) {
  ASSERT_EQ(a.status.size(), b.status.size());
  for (size_t i = 0; i < a.status.size(); ++i) {
    EXPECT_EQ(a.status[i], b.status[i]) << "fault " << i;
  }
  EXPECT_EQ(a.tests, b.tests);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

std::string TempPath(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "retest_fleet";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".tmp");
  return path.string();
}

TEST(Fleet, RunsEveryJobAndWaitsById) {
  FleetOptions options;
  options.num_workers = 3;
  Fleet fleet(options);
  EXPECT_EQ(fleet.num_workers(), 3);
  std::atomic<int> ran{0};
  std::vector<std::size_t> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(fleet.Submit({}, [&](const JobContext&) {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
    EXPECT_EQ(ids.back(), static_cast<std::size_t>(i));
  }
  for (std::size_t id : ids) fleet.Wait(id);
  EXPECT_EQ(ran.load(), 20);
  const FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.submitted, 20);
  EXPECT_EQ(stats.completed, 20);
  EXPECT_EQ(stats.failed, 0);
}

TEST(Fleet, PriorityOrdersAWorkersQueue) {
  FleetOptions options;
  options.num_workers = 1;
  Fleet fleet(options);
  std::mutex order_mutex;
  std::vector<int> order;
  const auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(tag);
  };
  // Occupy the single worker so the later submissions queue up and
  // the priority insert, not submission order, decides execution.
  std::atomic<bool> release{false};
  fleet.Submit({}, [&](const JobContext&) {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  JobOptions low;
  low.priority = -1;
  JobOptions high;
  high.priority = 5;
  fleet.Submit(low, [&](const JobContext&) { record(1); });
  fleet.Submit(high, [&](const JobContext&) { record(2); });
  fleet.Submit(low, [&](const JobContext&) { record(3); });
  release.store(true, std::memory_order_release);
  fleet.WaitAll();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2);  // high priority first
  EXPECT_EQ(order[1], 1);  // then the equal-priority pair, FIFO
  EXPECT_EQ(order[2], 3);
}

TEST(Fleet, StealsFromASkewedQueue) {
  // Every job is hinted onto worker 0's deque: the only way workers
  // 1..3 can participate is by stealing.  One long job pins worker 0,
  // so the short jobs *must* be stolen for the sweep to finish fast.
  FleetOptions options;
  options.num_workers = 4;
  Fleet fleet(options);
  std::atomic<int> ran{0};
  JobOptions pinned;
  pinned.worker_hint = 0;
  fleet.Submit(pinned, [&](const JobContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < 12; ++i) {
    fleet.Submit(pinned, [&](const JobContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  fleet.WaitAll();
  EXPECT_EQ(ran.load(), 13);
  EXPECT_GT(fleet.Stats().steals, 0);
}

TEST(Fleet, ThreadBudgetClampedAndEnforced) {
  FleetOptions options;
  options.num_workers = 2;
  Fleet fleet(options);
  const Circuit circuit = SmallCircuit(7);

  JobOptions wants_two;
  wants_two.thread_budget = 2;
  JobOptions wants_many;
  wants_many.thread_budget = 99;  // clamped to num_workers
  JobOptions unspecified;         // fleet default budget (1)

  int granted_two = 0, granted_many = 0, granted_default = 0;
  atpg::AtpgResult budgeted;
  const std::size_t a = fleet.Submit(wants_two, [&](const JobContext& ctx) {
    granted_two = ctx.thread_budget;
    auto atpg_options = QuickAtpgOptions();
    atpg_options.num_threads = ctx.thread_budget;
    budgeted = atpg::RunAtpg(circuit, atpg_options);
  });
  const std::size_t b = fleet.Submit(wants_many, [&](const JobContext& ctx) {
    granted_many = ctx.thread_budget;
  });
  const std::size_t c = fleet.Submit(unspecified, [&](const JobContext& ctx) {
    granted_default = ctx.thread_budget;
  });
  fleet.Wait(a);
  fleet.Wait(b);
  fleet.Wait(c);
  EXPECT_EQ(granted_two, 2);
  EXPECT_EQ(granted_many, 2);  // 99 clamped to the 2 fleet workers
  EXPECT_EQ(granted_default, 1);
  // The job confined its internal parallelism to the granted budget.
  EXPECT_LE(budgeted.threads_used, 2);
  EXPECT_GT(budgeted.Count(atpg::FaultStatus::kDetected), 0);
}

TEST(Fleet, PerJobResultsIdenticalUnderOneVsManyConcurrentJobs) {
  // The fleet determinism contract: a job's result does not depend on
  // what else the fleet is running.  Four budget-free ATPG jobs run
  // (a) serially inline, (b) on a 1-worker fleet, (c) on a 4-worker
  // fleet with all four in flight; every per-job result must match
  // bit for bit.
  std::vector<Circuit> circuits;
  for (unsigned seed : {3u, 11u, 17u, 29u}) {
    circuits.push_back(SmallCircuit(seed));
  }
  std::vector<atpg::AtpgResult> serial(circuits.size());
  for (size_t i = 0; i < circuits.size(); ++i) {
    serial[i] = atpg::RunAtpg(circuits[i], QuickAtpgOptions());
  }
  for (int workers : {1, 4}) {
    FleetOptions options;
    options.num_workers = workers;
    Fleet fleet(options);
    std::vector<atpg::AtpgResult> fleet_results(circuits.size());
    for (size_t i = 0; i < circuits.size(); ++i) {
      fleet.Submit({}, [&, i](const JobContext& ctx) {
        auto atpg_options = QuickAtpgOptions();
        atpg_options.num_threads = ctx.thread_budget;
        fleet_results[i] = atpg::RunAtpg(circuits[i], atpg_options);
      });
    }
    fleet.WaitAll();
    for (size_t i = 0; i < circuits.size(); ++i) {
      SCOPED_TRACE("workers=" + std::to_string(workers) + " job=" +
                   std::to_string(i));
      ExpectIdenticalResults(serial[i], fleet_results[i]);
    }
  }
}

TEST(Fleet, CheckpointPreemptionThenResumeIsBitIdentical) {
  // The PR-4 journal as the fleet's unit of preemption/migration: a
  // deadline-preempted job leaves a checkpoint; resubmitting the same
  // job (here after the deadline is lifted) resumes from it and lands
  // on the result of an uninterrupted run.
  const auto machine = fsm::MakeBenchmarkFsm("dk16");
  synth::SynthesisOptions synthesis;
  const Circuit circuit = Synthesize(machine, synthesis);
  atpg::AtpgOptions base;
  base.seed = 13;
  base.random_rounds = 0;
  base.backtracks_per_fault = 50;
  base.time_budget_ms = 600'000;
  base.num_threads = 1;

  const atpg::AtpgResult uninterrupted = atpg::RunAtpg(circuit, base);

  const std::string checkpoint = TempPath("fleet_preempt.journal");
  FleetOptions options;
  options.num_workers = 2;
  Fleet fleet(options);

  JobOptions first;
  first.deadline_ms = 30;  // preempts mid-run
  first.checkpoint_path = checkpoint;
  atpg::AtpgResult preempted;
  const std::size_t id = fleet.Submit(first, [&](const JobContext& ctx) {
    auto atpg_options = base;
    atpg_options.deadline_ms = ctx.deadline_ms;
    atpg_options.checkpoint_path = *ctx.checkpoint_path;
    preempted = atpg::RunAtpg(circuit, atpg_options);
  });
  fleet.Wait(id);
  ASSERT_TRUE(preempted.preempted);
  ASSERT_GT(preempted.Count(atpg::FaultStatus::kUntried), 0);

  JobOptions second;  // no deadline: the resumed run completes
  second.checkpoint_path = checkpoint;
  second.worker_hint = 1;  // "migrated" to another worker
  atpg::AtpgResult resumed;
  const std::size_t id2 = fleet.Submit(second, [&](const JobContext& ctx) {
    auto atpg_options = base;
    atpg_options.checkpoint_path = *ctx.checkpoint_path;
    resumed = atpg::RunAtpg(circuit, atpg_options);
  });
  fleet.Wait(id2);
  EXPECT_TRUE(resumed.resumed);
  ExpectIdenticalResults(uninterrupted, resumed);
}

TEST(Fleet, WaitRethrowsJobException) {
  Fleet fleet(FleetOptions{.num_workers = 2});
  const std::size_t ok = fleet.Submit({}, [](const JobContext&) {});
  const std::size_t bad = fleet.Submit({}, [](const JobContext&) {
    throw std::runtime_error("job failed");
  });
  fleet.Wait(ok);
  EXPECT_THROW(fleet.Wait(bad), std::runtime_error);
  fleet.WaitAll();  // does not rethrow
  EXPECT_EQ(fleet.Stats().failed, 1);
}

TEST(Fleet, CancelSkipsQueuedJobsAndDrains) {
  FleetOptions options;
  options.num_workers = 1;
  Fleet fleet(options);
  std::atomic<bool> started{false};
  std::atomic<int> ran{0};
  fleet.Submit({}, [&](const JobContext& ctx) {
    started.store(true, std::memory_order_release);
    while (!ctx.cancelled->load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<std::size_t> queued;
  for (int i = 0; i < 5; ++i) {
    queued.push_back(fleet.Submit({}, [&](const JobContext&) {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  // Only cancel once the first body is in flight, so exactly the five
  // queued jobs are skipped.
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fleet.Cancel();  // running job sees the flag; queued jobs are skipped
  fleet.WaitAll();
  EXPECT_EQ(ran.load(), 1);  // only the in-flight job body ran
  for (std::size_t id : queued) EXPECT_TRUE(fleet.Cancelled(id));
  EXPECT_EQ(fleet.Stats().cancelled, 5);
}

TEST(Fleet, CancelByIdSkipsOneQueuedJobOnly) {
  FleetOptions options;
  options.num_workers = 1;
  Fleet fleet(options);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  fleet.Submit({}, [&](const JobContext&) {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::size_t> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(fleet.Submit({}, [&](const JobContext&) {
      ran.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(fleet.Cancel(queued[1] + 100));  // Unknown id.
  EXPECT_TRUE(fleet.Cancel(queued[1]));         // The middle queued job.
  release.store(true, std::memory_order_release);
  fleet.WaitAll();
  EXPECT_EQ(ran.load(), 2);  // The cancelled body never ran.
  EXPECT_TRUE(fleet.Cancelled(queued[1]));
  EXPECT_FALSE(fleet.Cancelled(queued[0]));
  EXPECT_FALSE(fleet.Cancelled(queued[2]));
  EXPECT_FALSE(fleet.Cancel(queued[0]));  // Finished: not cancellable.
}

TEST(Fleet, CancelByIdPreemptsARunningJobThroughItsStopFlag) {
  FleetOptions options;
  options.num_workers = 1;
  Fleet fleet(options);
  std::atomic<bool> started{false};
  std::atomic<bool> observed_stop{false};
  const std::size_t id = fleet.Submit({}, [&](const JobContext& ctx) {
    started.store(true, std::memory_order_release);
    // An honoring body (the service wires ctx.stop into
    // AtpgOptions::stop) polls the flag and exits cleanly.
    while (!ctx.stop->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    observed_stop.store(true, std::memory_order_release);
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fleet.Cancel(id));  // Running: preemptive, not a refusal.
  fleet.WaitAll();
  EXPECT_TRUE(observed_stop.load(std::memory_order_acquire));
}

TEST(Fleet, SubmitWakesAWorkerThatIsAboutToSleep) {
  // A fresh worker checks "anything queued?" under the fleet mutex and
  // then sleeps.  A Submit that notified without taking the mutex could
  // land between the two, and its job then never ran.  Each round
  // starts a one-worker fleet and submits after a jittered spin, so
  // some submissions hit that window, then waits a bounded time for the
  // job to run.  On a timeout the test fails and submits once more: the
  // worker, asleep by then, wakes for that notify, so the fleet drains.
  std::mutex mutex;
  std::condition_variable ran_cv;
  int ran = 0;
  FleetOptions options;
  options.num_workers = 1;
  std::uint64_t jitter = 88172645463325252ull;
  for (int round = 0; round < 20'000; ++round) {
    Fleet fleet(options);
    jitter ^= jitter << 13;
    jitter ^= jitter >> 7;
    jitter ^= jitter << 17;
    const auto spin_until = std::chrono::steady_clock::now() +
                            std::chrono::nanoseconds(jitter % 40'000);
    while (std::chrono::steady_clock::now() < spin_until) {
    }
    fleet.Submit({}, [&](const JobContext&) {
      std::lock_guard<std::mutex> lock(mutex);
      ++ran;
      ran_cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mutex);
    if (!ran_cv.wait_for(lock, std::chrono::seconds(5),
                         [&] { return ran == round + 1; })) {
      lock.unlock();
      fleet.Submit({}, [](const JobContext&) {});
      FAIL() << "job of round " << round << " was never picked up";
    }
  }
}

}  // namespace
}  // namespace retest::core
