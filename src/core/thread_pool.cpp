#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "core/metrics.h"

namespace retest::core {

int ResolveThreadCount(int requested) {
  if (requested > 0) return std::min(requested, 512);
  if (const char* env = std::getenv("REPRO_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return std::min(parsed, 512);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelFor(int num_threads, std::size_t count,
                 const std::function<void(int worker, std::size_t item)>& fn) {
  if (count == 0) return;
  RETEST_COUNTER_ADD("core.thread_pool.parallel_fors", "loops", "core",
                     "ParallelFor calls", 1);
  RETEST_COUNTER_ADD("core.thread_pool.items", "items", "core",
                     "work items handed to ParallelFor",
                     static_cast<long>(count));
  RETEST_DIST_RECORD("core.thread_pool.queue_depth", "items", "core",
                     "items per ParallelFor (initial queue depth)",
                     static_cast<double>(count));
  const int threads = static_cast<int>(std::min<std::size_t>(
      count, static_cast<std::size_t>(ResolveThreadCount(num_threads))));

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto fail = [&](std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = e;
    next.store(count);  // Abandon the rest.
  };
  const auto drain = [&](int worker) {
    for (std::size_t item; (item = next.fetch_add(1)) < count;) {
      try {
        fn(worker, item);
      } catch (...) {
        fail(std::current_exception());
      }
    }
  };

  std::vector<std::thread> workers;
  try {
    for (int w = 1; w < threads; ++w) workers.emplace_back(drain, w);
  } catch (...) {
    fail(std::current_exception());  // Could not start a thread.
  }
  drain(0);
  for (std::thread& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace retest::core
