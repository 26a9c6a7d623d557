#include "harness/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace samya::harness {

int DefaultRunnerThreads() {
  if (const char* env = std::getenv("SAMYA_BENCH_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void RunIndexed(size_t n, int threads, const std::function<void(size_t)>& fn) {
  if (threads <= 0) threads = DefaultRunnerThreads();
  if (threads == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Work-stealing by atomic index: each worker claims the next task. Tasks
  // are independent (caller's contract), so no synchronisation beyond the
  // claim counter is needed.
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };

  const size_t num_workers = std::min(static_cast<size_t>(threads), n);
  std::vector<std::thread> pool;
  pool.reserve(num_workers);
  for (size_t t = 0; t < num_workers; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

std::vector<ExperimentResult> RunAll(std::vector<ExperimentOptions> options,
                                     int threads) {
  const size_t n = options.size();
  std::vector<ExperimentResult> results(n);
  RunIndexed(n, threads, [&](size_t i) {
    // Tag this thread's log lines with the run it is executing so
    // interleaved worker output stays attributable.
    Logger::SetThreadPrefix("run " + std::to_string(i));
    Experiment experiment(options[i]);
    experiment.Setup();
    results[i] = experiment.Run();
    Logger::SetThreadPrefix("");
  });
  return results;
}

}  // namespace samya::harness
