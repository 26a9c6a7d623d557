#ifndef SAMYA_RT_NODE_H_
#define SAMYA_RT_NODE_H_

#include <cstdint>

#include "common/codec.h"
#include "common/flat_set64.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/time.h"
#include "rt/latency_model.h"

namespace samya::obs {
class FlightRecorder;
}  // namespace samya::obs

namespace samya::rt {

/// Identifies a process (site, app manager, client, replica) in a cluster.
using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

class Node;

/// \brief The portable runtime plane beneath every node (DESIGN.md §14).
///
/// Protocol code (`src/core`, `src/consensus`, `src/baselines`) is written
/// against this seam only: transport (`Send`), timers (`ArmTimer`), and the
/// observability attachment points. Two backends implement it:
///
///  - `sim::Network` — the deterministic discrete-event simulator. FIFO per
///    link unless faults are armed; messages may be delayed/dropped/
///    duplicated by the fault layer; bit-for-bit reproducible from a seed.
///  - `rt::RealCluster` — real threads and UDP sockets on localhost with an
///    in-process netem-style latency/jitter/loss injector. Datagrams are
///    CRC-framed (rt/wire.h); corruption is rejected, never decoded.
///
/// The clock and per-node RNG are bound into the `Node` itself at
/// registration (see `Bind`) so the per-event hot path stays a plain load.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Transmits `n` encoded bytes from `from` to `to`. Delivery latency,
  /// loss, duplication and reordering are backend policy; protocol code must
  /// tolerate all of them (§3.1's asynchronous model).
  virtual void Send(Node* from, NodeId to, uint32_t type, const uint8_t* data,
                    size_t n) = 0;

  /// Arms a timer firing `HandleTimer(token)` on `node` after `delay`,
  /// unless cancelled or invalidated by a crash/recover epoch bump first.
  /// Returns the timer id used for cancellation (never 0).
  virtual uint64_t ArmTimer(Node* node, Duration delay, uint64_t token) = 0;

  /// Called by `Node::CancelTimer` for a timer that was still armed, after
  /// it left the node's armed set (so the fire guard already rejects it).
  /// The simulator removes the pending fire event from its queue; the
  /// default, which the real backend keeps, leaves it to the guard.
  virtual void DisarmTimer(Node* node, uint64_t timer_id) {
    (void)node;
    (void)timer_id;
  }

  // --- Observability attachment point (may be null) ------------------------
  virtual obs::FlightRecorder* flight_for(NodeId id) const {
    (void)id;
    return nullptr;
  }

 protected:
  // --- Backend access to node runtime state --------------------------------
  // Protocol code never touches these. Both backends drive registration,
  // crash/recover, and the timer fire guard through the same helpers, which
  // is what makes cancel-vs-fire and stale-epoch semantics identical across
  // backends by construction (ISSUE 9 satellite; pinned by
  // tests/rt/timer_epoch_test.cc).

  /// Wires a node to its backend: runtime pointer and clock cell. The clock
  /// is a pointer so `Node::Now()` stays a single inlined load (the sim
  /// points it at the environment's simulated clock; the real backend at the
  /// per-loop monotonic-time cell).
  static inline void Bind(Node& n, Runtime* runtime, const SimTime* clock);

  /// Seeds the node's own RNG stream.
  static inline void SeedRng(Node& n, Rng rng);

  static inline bool alive(const Node& n);
  static inline uint64_t epoch(const Node& n);

  /// The node's backend pointer, for code (e.g. a timer closure with a tight
  /// capture budget) that reaches the backend through the node itself.
  static inline Runtime* runtime_of(const Node& n);

  /// Crash: kill future timers (epoch bump + active-set clear) and mark the
  /// node dead. The caller then runs `HandleCrash` on the node's execution
  /// context.
  static inline void MarkCrashed(Node& n);

  /// Recover: mark alive under a fresh epoch (stale timers armed before the
  /// crash stay dead). The caller then runs `HandleRecover`.
  static inline void MarkRecovered(Node& n);

  /// Allocates a timer id and registers it as active. Pair with
  /// `TimerShouldFire` at expiry.
  static inline uint64_t RegisterTimer(Node& n, uint64_t* out_epoch);

  /// Registers a backend-chosen, unique, non-zero timer id as active (the
  /// simulator uses the fire event's queue handle).
  static inline void RegisterTimerId(Node& n, uint64_t timer_id);

  /// The shared fire guard, exactly the simulator's historical sequence:
  /// dead nodes never fire, a crash/recover since arming invalidates, and a
  /// `CancelTimer` (which erases from the active set) wins over a
  /// concurrent-looking fire because both run on the node's own execution
  /// context. Consumes the timer when it returns true.
  static inline bool TimerShouldFire(Node& n, uint64_t timer_id,
                                     uint64_t armed_epoch);
};

/// \brief Base class for every process, on either backend.
///
/// Subclasses implement message and timer handlers; the base provides the
/// runtime: `Send` (bytes over the backend transport), `SetTimer` /
/// `CancelTimer`, `Now`, and a per-node RNG stream.
///
/// Execution contract (both backends): all of a node's code — message
/// handlers, timer handlers, Start, crash/recover hooks — runs on one
/// logical execution context at a time (the event loop serially; one thread
/// per node on the real backend), so node state needs no locking and
/// `CancelTimer` can never race a fire of the same node's timer.
///
/// Crash semantics: when the backend crashes a node, all pending timers are
/// invalidated (an epoch counter guards stragglers), in-flight messages to
/// it are dropped at delivery, and `HandleCrash` runs so the subclass can
/// clear volatile state. On recovery `HandleRecover` runs; subclasses reload
/// durable state from their `StableStorage` there.
class Node {
 public:
  Node(NodeId id, Region region) : id_(id), region_(region) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Region region() const { return region_; }
  bool alive() const { return alive_; }

  /// Called once by the cluster after all nodes are registered.
  virtual void Start() {}

  /// Delivers a decoded message envelope. `reader` is positioned at the
  /// start of the type-specific payload. The payload may come from an
  /// untrusted transport: handlers must reject (not crash on) truncated or
  /// corrupt fields — decode through `Result` and drop on failure.
  virtual void HandleMessage(NodeId from, uint32_t type,
                             BufferReader& reader) = 0;

  /// Fires for a timer armed with `SetTimer(delay, token)`.
  virtual void HandleTimer(uint64_t token);

  /// Node crashed: drop volatile state. Durable state survives in storage.
  virtual void HandleCrash() {}

  /// Node recovered: reconstruct state from stable storage, re-arm timers.
  virtual void HandleRecover() {}

 protected:
  /// Sends `payload` to `to`; delivery is scheduled by the backend with its
  /// latency, jitter, loss and partition rules applied.
  void Send(NodeId to, uint32_t type, const BufferWriter& payload) {
    Send(to, type, payload.buffer().data(), payload.buffer().size());
  }

  /// Same, for already-encoded bytes (e.g. a relay forwarding a request
  /// verbatim) — skips the intermediate `BufferWriter`.
  void Send(NodeId to, uint32_t type, const uint8_t* data, size_t n) {
    SAMYA_CHECK(runtime_ != nullptr);
    runtime_->Send(this, to, type, data, n);
  }

  /// Arms a timer; `HandleTimer(token)` fires after `delay` unless the timer
  /// is cancelled or the node crashes first. Returns an id for cancellation.
  uint64_t SetTimer(Duration delay, uint64_t token) {
    SAMYA_CHECK(runtime_ != nullptr);
    return runtime_->ArmTimer(this, delay, token);
  }
  /// No-op for a timer that already fired, was cancelled, or was
  /// invalidated by a crash (and for id 0, "never armed").
  void CancelTimer(uint64_t timer_id) {
    if (active_timers_.erase(timer_id) != 0) {
      runtime_->DisarmTimer(this, timer_id);
    }
  }

  /// Current time on this node's backend clock: simulated microseconds in
  /// the simulator, monotonic microseconds since cluster start on the real
  /// backend. Read through a pointer cached at registration: handlers
  /// consult the clock several times per event, so this stays a single
  /// inlined load.
  SimTime Now() const {
    SAMYA_CHECK(clock_ != nullptr);
    return *clock_;
  }
  Rng& rng() { return rng_; }
  Runtime* runtime() { return runtime_; }

 private:
  friend class Runtime;

  NodeId id_;
  Region region_;
  bool alive_ = true;
  uint64_t epoch_ = 0;  // bumped on crash & recover to kill stale timers
  uint64_t next_timer_id_ = 1;
  // Armed-timer ids. Every request and every Avantan round arms and cancels
  // a timer, so this sits on the hot path; FlatSet64 keeps it a flat probe
  // instead of a node allocation per insert.
  FlatSet64 active_timers_;
  Runtime* runtime_ = nullptr;
  const SimTime* clock_ = nullptr;  // backend clock cell, bound at Register
  Rng rng_{0};
};

// --- Runtime backend accessors (inline: these sit on per-event hot paths) ---

void Runtime::Bind(Node& n, Runtime* runtime, const SimTime* clock) {
  n.runtime_ = runtime;
  n.clock_ = clock;
}

void Runtime::SeedRng(Node& n, Rng rng) { n.rng_ = rng; }

bool Runtime::alive(const Node& n) { return n.alive_; }

uint64_t Runtime::epoch(const Node& n) { return n.epoch_; }

Runtime* Runtime::runtime_of(const Node& n) { return n.runtime_; }

void Runtime::MarkCrashed(Node& n) {
  n.alive_ = false;
  ++n.epoch_;
  n.active_timers_.clear();
}

void Runtime::MarkRecovered(Node& n) {
  n.alive_ = true;
  ++n.epoch_;
}

uint64_t Runtime::RegisterTimer(Node& n, uint64_t* out_epoch) {
  const uint64_t timer_id = n.next_timer_id_++;
  n.active_timers_.insert(timer_id);
  if (out_epoch != nullptr) *out_epoch = n.epoch_;
  return timer_id;
}

void Runtime::RegisterTimerId(Node& n, uint64_t timer_id) {
  SAMYA_CHECK(n.active_timers_.insert(timer_id));
}

bool Runtime::TimerShouldFire(Node& n, uint64_t timer_id,
                              uint64_t armed_epoch) {
  // Exactly the historical sim guard, in this order: a dead node never
  // fires; a crash/recover since arming invalidates; a cancelled timer
  // (erased from the active set) loses to the cancel.
  if (!n.alive_) return false;
  if (n.epoch_ != armed_epoch) return false;
  if (n.active_timers_.erase(timer_id) == 0) return false;
  return true;
}

}  // namespace samya::rt

#endif  // SAMYA_RT_NODE_H_
