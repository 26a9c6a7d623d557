#ifndef SAMYA_OBS_PROFILER_H_
#define SAMYA_OBS_PROFILER_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "common/json.h"

namespace samya::obs {

/// \file
/// Event-loop profiler (DESIGN.md §8).
///
/// Answers "where does wall-clock time go?" for one simulation: total events
/// executed by `SimEnvironment::Step`, and within that, handler wall-time
/// broken down by message type (attributed by `Network::Deliver`) and by
/// timer callbacks. Everything not attributed to a message or timer —
/// queue manipulation, client closures, scheduling overhead — shows up as
/// the "other" residue, which keeps the accounting honest without tagging
/// every queue entry.
///
/// This is the one obs component that reads wall-clock time; it never feeds
/// anything back into the simulation, so determinism is untouched.
class EventLoopProfiler {
 public:
  EventLoopProfiler() = default;
  EventLoopProfiler(const EventLoopProfiler&) = delete;
  EventLoopProfiler& operator=(const EventLoopProfiler&) = delete;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// One event popped and executed by the loop (any kind).
  void AccountEvent(int64_t ns) {
    events_ += 1;
    loop_ns_ += ns;
  }

  /// Wall-time spent inside a message handler, by wire type.
  void AccountMessage(uint32_t type, int64_t ns) {
    uint32_t slot = type < kTypeSlots ? type : kTypeSlots - 1;
    type_count_[slot] += 1;
    type_ns_[slot] += ns;
  }

  /// Wall-time spent inside a timer callback.
  void AccountTimer(int64_t ns) {
    timer_count_ += 1;
    timer_ns_ += ns;
  }

  uint64_t events() const { return events_; }
  int64_t loop_ns() const { return loop_ns_; }

  /// {events, loop_ns, timers:{...}, other_ns, by_type:[{type,name,count,ns}]}
  /// sorted by descending ns; zero-count types omitted.
  JsonValue ToJson() const;

  /// Human-readable table of the top handlers by wall-time.
  std::string Report() const;

 private:
  // Message-type registry tops out below 270 (common/token_api.h); the last
  // slot collects any out-of-range stragglers.
  static constexpr uint32_t kTypeSlots = 280;

  uint64_t events_ = 0;
  int64_t loop_ns_ = 0;
  uint64_t timer_count_ = 0;
  int64_t timer_ns_ = 0;
  uint64_t type_count_[kTypeSlots] = {};
  int64_t type_ns_[kTypeSlots] = {};
};

}  // namespace samya::obs

#endif  // SAMYA_OBS_PROFILER_H_
