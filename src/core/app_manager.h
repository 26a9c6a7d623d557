#ifndef SAMYA_CORE_APP_MANAGER_H_
#define SAMYA_CORE_APP_MANAGER_H_

#include <array>
#include <functional>

#include "common/flat_map64.h"
#include "common/token_api.h"
#include "rt/node.h"

namespace samya::core {

struct AppManagerOptions {
  /// Sites in preference order; the first is the closest (§4.1.2 step 2).
  std::vector<rt::NodeId> sites;
  /// Failover: if the chosen site does not answer within this timeout the
  /// request is re-relayed to the next site. One attempt by default because
  /// redistribution can legitimately delay a queued request, and re-sending
  /// a queued acquire would double-apply it.
  Duration site_timeout = Millis(1500);
  int max_attempts = 1;
  /// Retries back off exponentially from `site_timeout` (x2 per attempt) up
  /// to this cap, plus a uniform jitter of up to `backoff_jitter` of the
  /// computed timeout drawn from the manager's own sim RNG stream — so
  /// replicas that failed over together do not re-stampede the next site in
  /// lockstep, and the draw perturbs nothing outside this node. The first
  /// attempt always waits exactly `site_timeout` (no draw), which keeps
  /// every max_attempts=1 deployment — the default — bit-identical to the
  /// fixed-resend behavior this replaces.
  Duration backoff_cap = Seconds(6);
  double backoff_jitter = 0.2;
  /// Load balancing: rotate fresh requests over the first `rotate_over`
  /// sites (the same-region replicas in the Fig 3g scalability setup).
  size_t rotate_over = 1;
};

/// \brief Stateless application manager (§3.1): relays client token requests
/// to the closest live site and routes the responses back.
///
/// "Stateless" as in the paper: it holds only transient routing entries for
/// in-flight requests, nothing durable — a crashed app manager can be
/// replaced by a fresh process and clients simply retry.
class AppManager : public rt::Node {
 public:
  AppManager(rt::NodeId id, rt::Region region, AppManagerOptions opts);

  void HandleMessage(rt::NodeId from, uint32_t type,
                     BufferReader& r) override;
  void HandleTimer(uint64_t token) override;
  void HandleCrash() override { inflight_.clear(); }

  uint64_t relayed() const { return relayed_; }
  /// Timed-out relays re-sent to a failover site (attempts past the first).
  uint64_t failover_resends() const { return failover_resends_; }

  /// History tap for linearizability checking: fires with every site
  /// response this manager routes back toward a client — the earliest point
  /// the front door knows an outcome, even if the client-bound hop is then
  /// lost. Not part of the protocol; pass nullptr to remove.
  using ResponseTap = std::function<void(const TokenResponse&)>;
  void set_response_tap(ResponseTap tap) { response_tap_ = std::move(tap); }

 private:
  struct Inflight {
    rt::NodeId client = rt::kInvalidNode;
    // The client's encoded request, relayed verbatim; held inline so that
    // relaying allocates no buffer per request.
    std::array<uint8_t, TokenRequest::kMaxEncodedBytes> request{};
    uint8_t request_len = 0;
    size_t site_index = 0;
    int attempts = 0;
    uint64_t timer = 0;
  };

  void RelayTo(uint64_t request_id, Inflight& entry);
  /// Timeout for the attempt just recorded in `entry.attempts`.
  Duration AttemptTimeout(const Inflight& entry);

  AppManagerOptions opts_;
  ResponseTap response_tap_;  // checker hook; not protocol state
  // Keyed by request id; keyed lookups only (no ordered iteration), and one
  // insert+erase per relayed request, held inline in a flat table.
  FlatMap64<Inflight> inflight_;
  uint64_t relayed_ = 0;
  uint64_t failover_resends_ = 0;
  size_t rotation_ = 0;
  // Reused for every response forwarded back to a client; `Send` copies the
  // bytes out synchronously, so one scratch writer per manager is safe.
  BufferWriter send_scratch_;
};

}  // namespace samya::core

#endif  // SAMYA_CORE_APP_MANAGER_H_
