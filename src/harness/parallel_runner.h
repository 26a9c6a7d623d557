#ifndef SAMYA_HARNESS_PARALLEL_RUNNER_H_
#define SAMYA_HARNESS_PARALLEL_RUNNER_H_

#include <functional>
#include <vector>

#include "harness/experiment.h"

namespace samya::harness {

/// \brief Runs `fn(0) .. fn(n-1)` across a pool of `threads` workers
/// (work-stealing by atomic claim; `threads <= 0` resolves like `RunAll`).
///
/// The generic engine under `RunAll`, the `samya_figures` sweep and
/// `samya_search`.
/// Determinism contract: callers must make each `fn(i)` self-contained —
/// the function owns all state it touches apart from writing its own,
/// index-addressed result slot. Under that contract the outcome is
/// bit-identical to the serial loop `for (i in 0..n-1) fn(i)` regardless of
/// thread count or scheduling, because no execution order is observable.
void RunIndexed(size_t n, int threads, const std::function<void(size_t)>& fn);

/// \brief Multi-core runner for sweeps of independent experiments.
///
/// Every figure/table bench is a sweep over configurations (systems, seeds,
/// site counts, read ratios, ...) of fully independent, single-threaded,
/// seeded simulations — which parallelises perfectly across cores.
///
/// Determinism contract: each `ExperimentOptions` is run in its own
/// `Experiment` (own `SimEnvironment`, RNG streams, buffer pool — no shared
/// mutable state), so `RunAll` returns results bit-identical to running
/// `Experiment::Setup()+Run()` sequentially over the same options, in input
/// order, regardless of thread count or scheduling. Verified by
/// tests/harness/parallel_runner_test.cc.
///
/// `threads <= 0` uses the hardware concurrency (overridable with the
/// SAMYA_BENCH_THREADS environment variable, e.g. for reproducing
/// single-core numbers on a big machine).
std::vector<ExperimentResult> RunAll(std::vector<ExperimentOptions> options,
                                     int threads = 0);

/// Thread count `RunAll` resolves `threads <= 0` to.
int DefaultRunnerThreads();

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_PARALLEL_RUNNER_H_
