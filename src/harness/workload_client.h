#ifndef SAMYA_HARNESS_WORKLOAD_CLIENT_H_
#define SAMYA_HARNESS_WORKLOAD_CLIENT_H_

#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/timeseries.h"
#include "common/token_api.h"
#include "harness/history.h"
#include "sim/node.h"
#include "workload/request_stream.h"

namespace samya::harness {

/// Per-client measurement results; the raw material of every table/figure.
struct ClientStats {
  Histogram latency;            ///< commit latency (µs), committed txns only
  Histogram acquire_latency;    ///< commit latency of acquires alone
  RateSeries committed{Seconds(1)};  ///< committed txns per second
  uint64_t committed_acquires = 0;
  uint64_t committed_releases = 0;
  uint64_t committed_reads = 0;
  uint64_t rejected = 0;   ///< final constraint rejections
  uint64_t dropped = 0;    ///< gave up after retries/timeouts
  uint64_t sent = 0;
  /// Releases skipped because the client held no acquired tokens (§3.2: "an
  /// individual client never returns more tokens than what it has acquired").
  uint64_t skipped_releases = 0;

  uint64_t TotalCommitted() const {
    return committed_acquires + committed_releases + committed_reads;
  }

  /// Folds another client's histograms and counters into this one. The
  /// per-second `committed` series is not folded: it stays per client.
  void Merge(const ClientStats& other) {
    latency.Merge(other.latency);
    acquire_latency.Merge(other.acquire_latency);
    committed_acquires += other.committed_acquires;
    committed_releases += other.committed_releases;
    committed_reads += other.committed_reads;
    rejected += other.rejected;
    dropped += other.dropped;
    sent += other.sent;
    skipped_releases += other.skipped_releases;
  }
};

struct WorkloadClientOptions {
  /// Servers this client may contact. The first entry is the preferred
  /// (closest) one — in Samya that is the region's site, in MultiPaxSys any
  /// replica (a leader hint redirects).
  std::vector<sim::NodeId> servers;
  Duration request_timeout = Millis(600);
  int max_attempts = 4;
  Duration overload_backoff = Millis(40);
  /// Closed-loop mode: ignore the script's timestamps and keep `window`
  /// requests outstanding, issuing the next one as each completes. This is
  /// the saturation-style load of Fig 3h, where throughput is bounded by
  /// request latency rather than trace arrival rate.
  bool closed_loop = false;
  int window = 4;
  /// Optional history recorder (non-owning): every issued request records an
  /// invocation, every final response a completion, for the linearizability
  /// checker. Null (the default) records nothing.
  HistoryRecorder* history = nullptr;
};

/// \brief Trace-driven open-loop client (§5.2: one per region, all issuing
/// transactions simultaneously).
///
/// Plays a scripted request stream against any system speaking the token
/// API. Retries `kNotLeader` at the hinted leader and `kOverloaded` after a
/// backoff; gives up after `max_attempts`, counting the request as dropped.
/// Records commit latency (client-observed, as in the paper) and per-second
/// committed throughput.
class WorkloadClient : public sim::Node {
 public:
  WorkloadClient(sim::NodeId id, sim::Region region,
                 WorkloadClientOptions opts,
                 std::vector<workload::Request> script);

  void Start() override;
  void HandleMessage(sim::NodeId from, uint32_t type,
                     BufferReader& r) override;
  void HandleTimer(uint64_t token) override;
  void HandleCrash() override;

  const ClientStats& stats() const { return stats_; }
  size_t outstanding() const { return outstanding_.size(); }

 private:
  struct Outstanding {
    TokenRequest request;
    SimTime first_sent = 0;
    int attempts = 0;
    sim::NodeId target = sim::kInvalidNode;
    uint64_t timeout_timer = 0;
  };

  void ScheduleNext();
  void IssueNext();
  void SendTo(Outstanding& out, sim::NodeId target);
  void Retry(uint64_t request_id, sim::NodeId target, Duration delay);
  sim::NodeId PreferredServer() const;
  sim::NodeId NextServer(sim::NodeId previous) const;

  WorkloadClientOptions opts_;
  std::vector<workload::Request> script_;
  size_t next_request_ = 0;
  uint64_t next_request_id_ = 1;
  sim::NodeId leader_hint_ = sim::kInvalidNode;
  // Keyed lookups only, never iterated in order; bounded by the client
  // window, so a small pre-sized hash map avoids a node allocation per
  // request.
  std::unordered_map<uint64_t, Outstanding> outstanding_;
  bool issue_timer_armed_ = false;  ///< at most one pending issue timer
  int64_t balance_ = 0;  ///< tokens acquired minus tokens released
  ClientStats stats_;
  // Reused for every request sent; `Send` copies the bytes out
  // synchronously, so one scratch writer per client is safe.
  BufferWriter send_scratch_;
};

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_WORKLOAD_CLIENT_H_
