#include "core/fleet.h"

#include <algorithm>
#include <utility>

#include "core/chaos.h"
#include "core/metrics.h"
#include "core/thread_pool.h"
#include "core/trace.h"

namespace retest::core {

Fleet::Fleet(const FleetOptions& options)
    : num_workers_(std::max(1, options.num_workers > 0
                                   ? options.num_workers
                                   : ResolveThreadCount(0))),
      default_thread_budget_(std::max(1, options.default_thread_budget)),
      epoch_(std::chrono::steady_clock::now()) {
  queues_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(static_cast<std::size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

Fleet::~Fleet() {
  WaitAll();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t Fleet::Submit(JobOptions options, JobFn fn) {
  auto job = std::make_unique<Job>();
  job->options = std::move(options);
  job->fn = std::move(fn);
  // Grant the budget now so the caller's request is clamped once,
  // visibly, rather than at run time on some worker.
  int budget = job->options.thread_budget > 0 ? job->options.thread_budget
                                              : default_thread_budget_;
  job->options.thread_budget = std::clamp(budget, 1, num_workers_);
  Job* raw = job.get();
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    raw->id = jobs_.size();
    jobs_.push_back(std::move(job));
  }
  unfinished_.fetch_add(1, std::memory_order_acq_rel);

  const int hint = raw->options.worker_hint;
  const std::size_t target =
      hint >= 0 && hint < num_workers_
          ? static_cast<std::size_t>(hint)
          : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                static_cast<std::size_t>(num_workers_);
  WorkerQueue& queue = *queues_[target];
  {
    std::lock_guard<std::mutex> lock(queue.mutex);
    // Priority order, FIFO within a priority: insert before the first
    // strictly-lower-priority job.
    auto it = queue.jobs.begin();
    while (it != queue.jobs.end() &&
           (*it)->options.priority >= raw->options.priority) {
      ++it;
    }
    queue.jobs.insert(it, raw);
  }
  queued_.fetch_add(1, std::memory_order_acq_rel);
  RETEST_COUNTER_ADD("fleet.jobs.submitted", "jobs", "fleet",
                     "jobs submitted to the fleet scheduler", 1);
  RETEST_DIST_RECORD("fleet.queue.depth", "jobs", "fleet",
                     "queued-but-unclaimed jobs, sampled at each "
                     "submission",
                     static_cast<double>(
                         queued_.load(std::memory_order_relaxed)));
  // Like FinishJob: the lock round trip keeps a worker that has just
  // found queued_ == 0 from sleeping through this notify.
  { std::lock_guard<std::mutex> lock(mutex_); }
  work_cv_.notify_all();
  return raw->id;
}

Fleet::Job* Fleet::PopLocal(int worker) {
  WorkerQueue& queue = *queues_[static_cast<std::size_t>(worker)];
  std::lock_guard<std::mutex> lock(queue.mutex);
  if (queue.jobs.empty()) return nullptr;
  Job* job = queue.jobs.front();
  queue.jobs.pop_front();
  queued_.fetch_sub(1, std::memory_order_acq_rel);
  return job;
}

Fleet::Job* Fleet::StealFrom(int thief) {
  // Scan victims round-robin starting after the thief; take from the
  // *back* (lowest priority / newest within it), leaving the victim's
  // front — the job it would run next — untouched.
  for (int step = 1; step < num_workers_; ++step) {
    const int victim = (thief + step) % num_workers_;
    WorkerQueue& queue = *queues_[static_cast<std::size_t>(victim)];
    std::lock_guard<std::mutex> lock(queue.mutex);
    if (queue.jobs.empty()) continue;
    Job* job = queue.jobs.back();
    queue.jobs.pop_back();
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    return job;
  }
  return nullptr;
}

void Fleet::RunJob(int worker, Job& job, bool stolen) {
  if (stolen) {
    steals_.fetch_add(1, std::memory_order_relaxed);
    RETEST_COUNTER_ADD("fleet.steal.count", "jobs", "fleet",
                       "jobs executed by a worker that stole them from "
                       "another worker's queue",
                       1);
  }
  if (cancelled_.load(std::memory_order_relaxed) ||
      job.cancel_requested.load(std::memory_order_acquire)) {
    job.cancelled = true;
    cancelled_jobs_.fetch_add(1, std::memory_order_relaxed);
    FinishJob(job);
    return;
  }
  // Chaos: an armed fleet.worker.stall spec delays the claim-to-run
  // window, widening races with Cancel(id) and drain (docs/CHAOS.md).
  RETEST_CHAOS_STALL("fleet.worker.stall", 25);
  JobContext context;
  context.job_id = job.id;
  context.worker = worker;
  context.thread_budget = job.options.thread_budget;
  context.deadline_ms = job.options.deadline_ms;
  context.name = &job.options.name;
  context.checkpoint_path = &job.options.checkpoint_path;
  context.cancelled = &cancelled_;
  context.stop = &job.stop;
  const auto start = std::chrono::steady_clock::now();
  {
    RETEST_TRACE_SPAN(job_span, "fleet.job");
    try {
      job.fn(context);
    } catch (...) {
      job.error = std::current_exception();
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  const long us = static_cast<long>(
      std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
          .count());
  busy_us_.fetch_add(us, std::memory_order_relaxed);
  RETEST_DIST_RECORD("fleet.job_ms", "ms", "fleet",
                     "wall time of one fleet job body",
                     static_cast<double>(us) / 1000.0);
  completed_.fetch_add(1, std::memory_order_relaxed);
  RETEST_COUNTER_ADD("fleet.jobs.completed", "jobs", "fleet",
                     "jobs the fleet ran to completion", 1);
  FinishJob(job);
}

void Fleet::FinishJob(Job& job) {
  // The release store pairs with Wait's acquire load; the lock round
  // trip guarantees a waiter between its predicate check and its sleep
  // still sees the notify.
  job.done.store(true, std::memory_order_release);
  unfinished_.fetch_sub(1, std::memory_order_acq_rel);
  { std::lock_guard<std::mutex> lock(mutex_); }
  done_cv_.notify_all();
}

void Fleet::WorkerLoop(int worker) {
  for (;;) {
    Job* job = PopLocal(worker);
    bool stolen = false;
    if (job == nullptr) {
      job = StealFrom(worker);
      stolen = job != nullptr;
    }
    if (job != nullptr) {
      RunJob(worker, *job, stolen);
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    work_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void Fleet::Wait(std::size_t id) {
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (id >= jobs_.size()) return;
    job = jobs_[id].get();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock,
                [&] { return job->done.load(std::memory_order_acquire); });
  lock.unlock();
  if (job->error) std::rethrow_exception(job->error);
}

void Fleet::WaitAll() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return unfinished_.load(std::memory_order_acquire) == 0;
  });
}

bool Fleet::Cancelled(std::size_t id) const {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  if (id >= jobs_.size()) return false;
  const Job& job = *jobs_[id];
  return job.done.load(std::memory_order_acquire) && job.cancelled;
}

void Fleet::Cancel() {
  cancelled_.store(true, std::memory_order_relaxed);
  // Raise every live job's stop flag too, so bodies that only watch
  // JobContext::stop drain as promptly as JobContext::cancelled users.
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    for (const auto& job : jobs_) {
      if (!job->done.load(std::memory_order_acquire)) {
        job->stop.store(true, std::memory_order_release);
      }
    }
  }
  // Unstarted jobs still flow through the workers (RunJob's cancelled
  // path) so completion accounting stays in one place; wake everyone
  // so the drain is prompt.
  work_cv_.notify_all();
}

bool Fleet::Cancel(std::size_t id) {
  Job* job = nullptr;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (id >= jobs_.size()) return false;
    job = jobs_[id].get();
  }
  if (job->done.load(std::memory_order_acquire)) return false;
  job->cancel_requested.store(true, std::memory_order_release);
  job->stop.store(true, std::memory_order_release);
  RETEST_COUNTER_ADD("fleet.jobs.cancel_requested", "jobs", "fleet",
                     "per-job Cancel(id) calls that reached a live job",
                     1);
  // A queued target drains through RunJob's cancelled path; a running
  // one observes JobContext::stop (the ATPG watchdog mirrors it into
  // the per-worker PODEM stop flags within one poll interval).
  work_cv_.notify_all();
  return true;
}

FleetStats Fleet::Stats() const {
  FleetStats stats;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    stats.submitted = static_cast<long>(jobs_.size());
  }
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.cancelled = cancelled_jobs_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.busy_ms =
      static_cast<double>(busy_us_.load(std::memory_order_relaxed)) / 1000.0;
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - epoch_)
                      .count();
  if (stats.wall_ms > 0) {
    stats.utilization =
        stats.busy_ms / (stats.wall_ms * static_cast<double>(num_workers_));
  }
  return stats;
}

}  // namespace retest::core
