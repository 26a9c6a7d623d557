#include "sim/pdes.h"

#include <algorithm>
#include <limits>
#include <thread>

#include "common/logging.h"
#include "common/macros.h"
#include "sim/network.h"
#include "sim/node.h"

namespace samya::sim {
namespace {

constexpr SimTime kMaxSimTime = std::numeric_limits<SimTime>::max();

/// Smallest lookahead worth parallelizing: below this, windows are so short
/// that barrier overhead dominates and the serial loop wins anyway.
constexpr Duration kMinUsableLookahead = 2000;  // 2 ms simulated

}  // namespace

PdesCoordinator::PdesCoordinator(SimEnvironment* primary, uint64_t seed,
                                 int workers)
    : primary_(primary), seed_(seed), workers_(workers) {
  SAMYA_CHECK_GE(workers_, 2);
}

PdesCoordinator::~PdesCoordinator() = default;

std::pair<SimEnvironment*, uint32_t> PdesCoordinator::PartitionFor(
    Region region) {
  SAMYA_CHECK(!finalized_);
  for (size_t p = 0; p < partition_region_.size(); ++p) {
    if (partition_region_[p] == region) {
      return {envs_[p], static_cast<uint32_t>(p)};
    }
  }
  partition_region_.push_back(region);
  if (envs_.empty()) {
    envs_.push_back(primary_);
  } else {
    // The partition environment's own RNG is never drawn from (node and
    // network streams fork from the primary's root), but seed it
    // distinctly anyway.
    auto env = std::make_unique<SimEnvironment>(
        seed_ ^ (0x9e3779b97f4a7c15ull * envs_.size()));
    env->ShareStreamTable(primary_->stream_table());
    env->set_global_sink(this);
    envs_.push_back(env.get());
    extra_envs_.push_back(std::move(env));
  }
  return {envs_.back(), static_cast<uint32_t>(envs_.size() - 1)};
}

void PdesCoordinator::ScheduleGlobal(SimTime t, uint64_t key,
                                     SimCallback&& fn) {
  global_queue_.Push(t, key, std::move(fn));
}

void PdesCoordinator::EnqueueRemote(uint32_t src, uint32_t dst, Event&& e) {
  // Exclusive access: either the claim holder of partition `src` during a
  // phase, or the main thread at a barrier (workers quiescent).
  rt_[src]->outbox[dst].push_back(std::move(e));
}

void PdesCoordinator::EnsureSerial(std::string reason) {
  if (!fallback_reason_.empty()) return;
  SAMYA_CHECK(!reason.empty());
  fallback_reason_ = std::move(reason);
  SAMYA_LOG_INFO("pdes: running serial: %s", fallback_reason_.c_str());
  primary_->set_global_sink(nullptr);
  for (auto& env : extra_envs_) env->set_global_sink(nullptr);
  // Move every diverted driver event back onto the primary loop; the keys
  // travel with the events, so ordering is untouched.
  std::vector<Event> pending;
  global_queue_.ExtractUntil(kMaxSimTime, &pending);
  if (finalized_) {
    // Between-runs barrier: every environment agrees on the clock and no
    // claim is live, so partition queues and mailboxes can be folded back
    // into the primary loop wholesale.
    for (auto& env : extra_envs_) {
      env->ExtractEventsUntil(kMaxSimTime, &pending);
    }
    for (auto& rt : rt_) {
      for (auto& box : rt->inbox) {
        if (box == nullptr) continue;
        for (Event& e : box->events) pending.push_back(std::move(e));
        box->events.clear();
      }
      for (auto& ob : rt->outbox) {
        for (Event& e : ob) pending.push_back(std::move(e));
        ob.clear();
      }
    }
  }
  primary_->InjectEvents(&pending);
  if (net_ != nullptr) net_->ForceSerial();
}

void PdesCoordinator::Finalize(size_t num_nodes) {
  SAMYA_CHECK(!finalized_);
  finalized_ = true;
  // Pre-size the shared key table: worker threads must never grow it.
  primary_->stream_table()->Reserve(num_nodes + 1);
  if (net_ == nullptr) {
    EnsureSerial("no network attached");
    return;
  }
  if (primary_->oracle() != nullptr) {
    EnsureSerial("schedule oracle attached: exploration needs the serial loop");
    return;
  }
  if (net_->has_message_tap()) {
    EnsureSerial("a message tap observes global event order");
    return;
  }
  if (envs_.size() < 2) {
    EnsureSerial("fewer than two region partitions");
    return;
  }
  if (net_->AnyDelayFactorBelowOne()) {
    EnsureSerial("a delay factor below 1 undercuts the latency lower bound");
    return;
  }
  Duration l_min = kMaxSimTime;
  for (size_t i = 0; i < partition_region_.size(); ++i) {
    for (size_t j = 0; j < partition_region_.size(); ++j) {
      if (i == j) continue;
      l_min = std::min(
          l_min, net_->latency_model()->Base(partition_region_[i],
                                             partition_region_[j]));
    }
  }
  if (l_min < kMinUsableLookahead) {
    EnsureSerial("cross-partition base latency too small for a window");
    return;
  }
  // Conservative window: cross-partition messages take >= l_min of
  // simulated time, so with W = l_min / 2 a send from window k arrives in
  // window >= k + 2 — a partition may run `lead = 2` windows past the
  // slowest other partition and still never receive from its past.
  window_ = l_min / 2;
  lead_ = 2;
  workers_ = std::min(workers_, static_cast<int>(envs_.size()));
  net_->EnablePdes(this, envs_.size());

  const bool want_metrics = net_->metrics() != nullptr;
  const bool want_profiler = primary_->profiler() != nullptr;
  // Partition recorders take the primary's capacity, so a full-run capture
  // stays complete under PDES too.
  const size_t flight_capacity =
      net_->flight() != nullptr ? net_->flight()->capacity() : 0;
  part_metrics_.resize(envs_.size());
  part_profilers_.resize(envs_.size());
  part_flight_.resize(envs_.size());
  for (size_t p = 1; p < envs_.size(); ++p) {
    obs::MetricsRegistry* metrics = nullptr;
    obs::EventLoopProfiler* profiler = nullptr;
    obs::FlightRecorder* flight = nullptr;
    if (want_metrics) {
      part_metrics_[p] = std::make_unique<obs::MetricsRegistry>();
      metrics = part_metrics_[p].get();
    }
    if (want_profiler) {
      part_profilers_[p] = std::make_unique<obs::EventLoopProfiler>();
      profiler = part_profilers_[p].get();
      envs_[p]->set_profiler(profiler);
    }
    if (flight_capacity > 0) {
      part_flight_[p] = std::make_unique<obs::FlightRecorder>(flight_capacity);
      flight = part_flight_[p].get();
    }
    net_->set_shard_observability(static_cast<uint32_t>(p), metrics, profiler,
                                  flight);
  }
  run_stats_.workers.resize(static_cast<size_t>(workers_));
  run_stats_.partitions.resize(envs_.size());

  rt_.clear();
  for (size_t p = 0; p < envs_.size(); ++p) {
    auto rt = std::make_unique<PartitionRuntime>();
    rt->inbox.resize(envs_.size());
    for (size_t s = 0; s < envs_.size(); ++s) {
      if (s != p) rt->inbox[s] = std::make_unique<Mailbox>();
    }
    rt->outbox.resize(envs_.size());
    rt_.push_back(std::move(rt));
  }
  SAMYA_LOG_INFO(
      "pdes: %zu partitions, %d workers, window %s (lead %lld)",
      envs_.size(), workers_, FormatDuration(window_).c_str(),
      static_cast<long long>(lead_));
}

uint64_t PdesCoordinator::TotalEventsExecuted() const {
  uint64_t total = primary_->events_executed();
  for (const auto& env : extra_envs_) total += env->events_executed();
  return total;
}

void PdesCoordinator::FinishRun() {
  if (obs_merged_) return;
  obs_merged_ = true;
  obs::MetricsRegistry* primary_metrics =
      net_ != nullptr ? net_->metrics() : nullptr;
  obs::EventLoopProfiler* primary_profiler = primary_->profiler();
  // Partition order: deterministic merge, independent of which worker ran
  // which partition when.
  for (size_t p = 1; p < part_metrics_.size(); ++p) {
    if (part_metrics_[p] != nullptr && primary_metrics != nullptr) {
      primary_metrics->Merge(*part_metrics_[p]);
    }
  }
  for (size_t p = 1; p < part_profilers_.size(); ++p) {
    if (part_profilers_[p] != nullptr && primary_profiler != nullptr) {
      primary_profiler->Merge(*part_profilers_[p]);
    }
  }
  obs::FlightRecorder* primary_flight =
      net_ != nullptr ? net_->flight() : nullptr;
  for (size_t p = 1; p < part_flight_.size(); ++p) {
    if (part_flight_[p] != nullptr && primary_flight != nullptr) {
      primary_flight->Merge(*part_flight_[p]);
    }
  }
}

void PdesCoordinator::RunUntil(SimTime t) {
  SAMYA_CHECK(finalized_);
  if (active()) {
    // Conditions can change between Setup and Run (or between runs): a tap
    // attached late, or a delay factor dropped below 1, each invalidate
    // parallel execution from here on.
    if (net_->has_message_tap()) {
      EnsureSerial("a message tap observes global event order");
    } else if (primary_->oracle() != nullptr) {
      EnsureSerial("schedule oracle attached: exploration needs the serial loop");
    } else if (net_->AnyDelayFactorBelowOne()) {
      EnsureSerial("a delay factor below 1 undercuts the latency lower bound");
    }
  }
  if (!active()) {
    primary_->RunUntil(t);
    return;
  }
  SAMYA_CHECK(!obs_merged_);  // FinishRun already folded partition obs
  SAMYA_CHECK_GE(t, primary_->Now());
  SimTime phase_from = primary_->Now();
  for (;;) {
    const SimTime next_global =
        global_queue_.empty() ? kMaxSimTime : global_queue_.NextTime();
    if (next_global <= t) {
      // Serial sub-time order at equal times is: stream-0 (driver) events
      // first — their keys sort below every node stream — then node
      // events. The phase below runs node events strictly *before* the
      // barrier time, the barrier runs the driver events, and the next
      // phase starts at the barrier time: exactly the serial order.
      RunPhase(phase_from, next_global);
      RunGlobalOpsAt(next_global);
      phase_from = next_global;
      if (net_->AnyDelayFactorBelowOne()) {
        EnsureSerial("a delay factor below 1 undercuts the latency lower bound");
        primary_->RunUntil(t);
        return;
      }
    } else {
      RunPhase(phase_from, t + 1);  // events at exactly t run (serial rule)
      break;
    }
  }
  for (SimEnvironment* env : envs_) env->AdvanceNowTo(t);
}

void PdesCoordinator::RunGlobalOpsAt(SimTime t) {
  const int64_t t0 = obs::EventLoopProfiler::NowNs();
  uint64_t ops = 0;
  for (SimEnvironment* env : envs_) {
    env->AdvanceNowTo(t);
    env->SetCurrentStream(0);
  }
  while (!global_queue_.empty() && global_queue_.NextTime() <= t) {
    Event e = global_queue_.Pop();
    SAMYA_CHECK_EQ(e.time, t);
    // Same accounting as a popped event on the serial loop.
    primary_->RunExternal(std::move(e.fn));
    ++ops;
  }
  // A barrier op may have sent cross-partition messages (e.g. a recovery
  // protocol kicking off). Workers are quiescent, so flush the outboxes
  // straight into the mailboxes; the next phase's first drains pick them
  // up, and the heap restores (time, key) order.
  for (size_t p = 0; p < rt_.size(); ++p) {
    for (size_t d = 0; d < rt_.size(); ++d) {
      std::vector<Event>& outbox = rt_[p]->outbox[d];
      if (outbox.empty()) continue;
      Mailbox& box = *rt_[d]->inbox[p];
      for (Event& e : outbox) box.events.push_back(std::move(e));
      outbox.clear();
    }
  }
  const int64_t ns = obs::EventLoopProfiler::NowNs() - t0;
  ++run_stats_.barriers;
  run_stats_.barrier_ns += ns;
  // Workers quiescent: the main thread may record into the primary shard.
  if (obs::FlightRecorder* flight = net_->flight()) {
    flight->RecordRuntime(t, 0, obs::FlightKind::kBarrier,
                          static_cast<int64_t>(ops), ns, 0);
  }
}

void PdesCoordinator::RunPhase(SimTime start, SimTime end_exclusive) {
  if (end_exclusive <= start) return;
  phase_start_ = start;
  phase_end_ = end_exclusive;
  const int64_t span = end_exclusive - start;
  last_window_ = (span + window_ - 1) / window_ - 1;
  for (auto& rt : rt_) {
    rt->completed.store(-1, std::memory_order_relaxed);
    rt->claimed.store(false, std::memory_order_relaxed);
  }
  done_count_.store(0, std::memory_order_relaxed);
  // Spawn-per-phase: thread creation/join gives happens-before for all the
  // barrier's single-threaded mutations (fault state, phase bounds, node
  // state touched by global ops) without any per-window locking.
  const int64_t t0 = obs::EventLoopProfiler::NowNs();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    pool.emplace_back([this, w] { WorkerLoop(w); });
  }
  WorkerLoop(0);  // the main thread is a worker too
  for (std::thread& th : pool) th.join();
  Logger::SetThreadSimClock(primary_->now_ptr());
  ++run_stats_.phases;
  run_stats_.phase_wall_ns += obs::EventLoopProfiler::NowNs() - t0;
}

void PdesCoordinator::WorkerLoop(int worker) {
  PdesWorkerStats& ws = run_stats_.workers[static_cast<size_t>(worker)];
  const int num_parts = static_cast<int>(envs_.size());
  int idle = 0;
  while (done_count_.load(std::memory_order_acquire) < num_parts) {
    // Claim the laggard: the unclaimed, unfinished partition with the
    // least progress — it gates everyone else's bound.
    int best = -1;
    int64_t best_completed = std::numeric_limits<int64_t>::max();
    for (int p = 0; p < num_parts; ++p) {
      PartitionRuntime& rt = *rt_[p];
      if (rt.claimed.load(std::memory_order_relaxed)) continue;
      const int64_t c = rt.completed.load(std::memory_order_relaxed);
      if (c >= last_window_) continue;
      if (c < best_completed) {
        best_completed = c;
        best = p;
      }
    }
    if (best < 0) {
      if (++idle > 64) {
        std::this_thread::yield();
        idle = 0;
      }
      continue;
    }
    PartitionRuntime& rt = *rt_[best];
    bool expected = false;
    // Acquire pairs with the previous holder's release: this worker sees
    // every mutation the last claim made to the partition's environment.
    if (!rt.claimed.compare_exchange_strong(expected, true,
                                            std::memory_order_acquire)) {
      continue;
    }
    const int64_t cur = rt.completed.load(std::memory_order_relaxed);
    if (cur >= last_window_) {  // raced with the finishing claim
      rt.claimed.store(false, std::memory_order_release);
      continue;
    }
    int64_t min_other = std::numeric_limits<int64_t>::max();
    for (int q = 0; q < num_parts; ++q) {
      if (q == best) continue;
      min_other =
          std::min(min_other, rt_[q]->completed.load(std::memory_order_acquire));
    }
    const int64_t bound =
        min_other == std::numeric_limits<int64_t>::max()
            ? last_window_
            : std::min(last_window_, min_other + lead_);
    if (bound <= cur) {
      rt.claimed.store(false, std::memory_order_release);
      if (++idle > 64) {
        std::this_thread::yield();
        idle = 0;
      }
      continue;
    }
    idle = 0;
    const int64_t claim_t0 = obs::EventLoopProfiler::NowNs();
    ExecuteClaim(best, cur, bound);
    // Exclusive writers: `ws` belongs to this worker, the partition row to
    // the claim holder. Phase join publishes both to the main thread.
    const int64_t claim_ns = obs::EventLoopProfiler::NowNs() - claim_t0;
    ++ws.claims;
    ws.busy_ns += claim_ns;
    PdesPartitionStats& ps = run_stats_.partitions[static_cast<size_t>(best)];
    ++ps.claims;
    ps.windows += static_cast<uint64_t>(bound - cur);
    ps.busy_ns += claim_ns;
    // Publish progress only after the claim's outboxes are flushed: a
    // reader seeing completed == bound may rely on every message from
    // windows <= bound being in its mailbox.
    rt.completed.store(bound, std::memory_order_release);
    if (bound >= last_window_) {
      done_count_.fetch_add(1, std::memory_order_acq_rel);
    }
    rt.claimed.store(false, std::memory_order_release);
  }
}

void PdesCoordinator::ExecuteClaim(int p, int64_t from, int64_t bound) {
  SimEnvironment* env = envs_[p];
  Logger::SetThreadSimClock(env->now_ptr());
  PartitionRuntime& rt = *rt_[static_cast<size_t>(p)];
  const int num_parts = static_cast<int>(envs_.size());
  const int64_t t0 = obs::EventLoopProfiler::NowNs();
  uint64_t drained = 0;
  // Drain mailboxes *after* computing the bound: everything senders
  // flushed for windows <= bound is in by now, and the conservative
  // condition guarantees nothing can still arrive for them.
  for (int s = 0; s < num_parts; ++s) {
    if (s == p) continue;
    Mailbox& box = *rt.inbox[s];
    {
      std::lock_guard<std::mutex> lock(box.mu);
      if (!box.events.empty()) box.events.swap(rt.drain_scratch);
    }
    if (!rt.drain_scratch.empty()) {
      drained += rt.drain_scratch.size();
      for (const Event& e : rt.drain_scratch) {
        // Conservative invariant: nothing arrives for a window that
        // already ran.
        SAMYA_CHECK_GE(e.time, phase_start_ + (from + 1) * window_);
      }
      env->InjectEvents(&rt.drain_scratch);  // clears the scratch
    }
  }
  for (int64_t j = from + 1; j <= bound; ++j) {
    const SimTime horizon =
        j == last_window_ ? phase_end_ : phase_start_ + (j + 1) * window_;
    env->RunWindow(horizon);
  }
  PdesPartitionStats& ps = run_stats_.partitions[static_cast<size_t>(p)];
  ps.mailbox_events += drained;
  ps.max_mailbox_batch = std::max(ps.max_mailbox_batch, drained);
  // Runtime channel: one event per claim into the partition's own shard
  // recorder (exclusive under the claim; never part of the canonical order).
  obs::FlightRecorder* flight =
      p == 0 ? net_->flight() : part_flight_[static_cast<size_t>(p)].get();
  if (flight != nullptr) {
    flight->RecordRuntime(env->Now(), p, obs::FlightKind::kClaim, bound - from,
                          obs::EventLoopProfiler::NowNs() - t0,
                          static_cast<int64_t>(drained));
  }
  // Flush this claim's cross-partition sends before publishing progress.
  for (int d = 0; d < num_parts; ++d) {
    std::vector<Event>& outbox = rt.outbox[d];
    if (outbox.empty()) continue;
    Mailbox& box = *rt_[static_cast<size_t>(d)]->inbox[static_cast<size_t>(p)];
    std::lock_guard<std::mutex> lock(box.mu);
    for (Event& e : outbox) box.events.push_back(std::move(e));
    outbox.clear();
  }
}

}  // namespace samya::sim
