#include "core/app_manager.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace samya::core {

AppManager::AppManager(rt::NodeId id, rt::Region region,
                       AppManagerOptions opts)
    : Node(id, region), opts_(std::move(opts)) {
  SAMYA_CHECK(!opts_.sites.empty());
  inflight_.reserve(256);
}

void AppManager::HandleMessage(rt::NodeId from, uint32_t type,
                               BufferReader& r) {
  if (type == kMsgTokenRequest) {
    // Decode for the request id, but keep the raw encoded span so the relay
    // forwards the client's bytes verbatim instead of re-encoding them.
    const size_t start = r.position();
    auto req = TokenRequest::DecodeFrom(r);
    if (!req.ok()) return;
    const size_t len = r.position() - start;
    if (len > TokenRequest::kMaxEncodedBytes) return;

    Inflight entry;
    entry.client = from;
    std::memcpy(entry.request.data(), r.data() + start, len);
    entry.request_len = static_cast<uint8_t>(len);
    if (opts_.rotate_over > 1) {
      entry.site_index = rotation_++ % opts_.rotate_over;
    }
    Inflight& slot = inflight_[req->request_id];
    slot = std::move(entry);
    RelayTo(req->request_id, slot);
    return;
  }
  SAMYA_CHECK_EQ(type, kMsgTokenResponse);
  auto resp = TokenResponse::DecodeFrom(r);
  if (!resp.ok()) return;
  auto it = inflight_.find(resp->request_id);
  if (it == inflight_.end()) return;  // stale (timed out / crashed meanwhile)
  if (response_tap_) response_tap_(*resp);
  CancelTimer(it->second.timer);
  send_scratch_.Clear();
  resp->EncodeTo(send_scratch_);
  Send(it->second.client, kMsgTokenResponse, send_scratch_);
  inflight_.erase(it);
}

Duration AppManager::AttemptTimeout(const Inflight& entry) {
  if (entry.attempts <= 1) return opts_.site_timeout;
  // Retry: double per attempt up to the cap, then jitter so co-failing
  // managers spread their re-sends instead of stampeding the failover site.
  Duration timeout = opts_.site_timeout;
  for (int a = 1; a < entry.attempts && timeout < opts_.backoff_cap; ++a) {
    timeout *= 2;
  }
  timeout = std::min(timeout, opts_.backoff_cap);
  if (opts_.backoff_jitter > 0.0) {
    const double frac = rng().NextDouble() * opts_.backoff_jitter;
    timeout += static_cast<Duration>(static_cast<double>(timeout) * frac);
  }
  // Clamp after jitter: the cap is the documented worst case, so the jitter
  // term must not push the effective timeout past it. (The jitter draw above
  // still happens either way, keeping RNG sequences bit-identical.)
  return std::min(timeout, opts_.backoff_cap);
}

void AppManager::RelayTo(uint64_t request_id, Inflight& entry) {
  const rt::NodeId site = opts_.sites[entry.site_index % opts_.sites.size()];
  ++entry.attempts;
  ++relayed_;
  if (entry.attempts > 1) ++failover_resends_;
  Send(site, kMsgTokenRequest, entry.request.data(), entry.request_len);
  entry.timer = SetTimer(AttemptTimeout(entry), request_id);
}

void AppManager::HandleTimer(uint64_t token) {
  auto it = inflight_.find(token);
  if (it == inflight_.end()) return;
  Inflight& entry = it->second;
  if (entry.attempts >= opts_.max_attempts) {
    // Give up; the client's own retry/timeout policy takes over.
    inflight_.erase(it);
    return;
  }
  ++entry.site_index;  // fail over to the next-closest site
  RelayTo(token, entry);
}

}  // namespace samya::core
