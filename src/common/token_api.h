#ifndef SAMYA_COMMON_TOKEN_API_H_
#define SAMYA_COMMON_TOKEN_API_H_

#include <cstddef>
#include <cstdint>

#include "common/codec.h"
#include "common/status.h"

namespace samya {

/// \file
/// Client-facing token API shared by every system in the repository: Samya
/// app managers/sites, MultiPaxSys, the Raft-based CockroachDB-like baseline,
/// and Demarcation/Escrow all speak these two messages, so the experiment
/// harness can drive them interchangeably.
///
/// Message-type registry (`sim::Network` carries a uint32 type per message):
///   10-19   token client API (this file)
///   100-119 multi-Paxos
///   120-139 Raft
///   200-229 Avantan (both versions)
///   230-249 Samya site/app-manager internal
///   250-269 Demarcation/Escrow
///   270-279 BoundedCounter CRDT

inline constexpr uint32_t kMsgTokenRequest = 10;
inline constexpr uint32_t kMsgTokenResponse = 11;
/// Retired: the app manager's batched request form. No node sends it and a
/// site drops it as an unknown type; the number stays reserved, do not reuse.
inline constexpr uint32_t kMsgTokenBatchRequest = 12;

/// The paper's transaction types (§3.2) plus the read-only global-snapshot
/// transaction of §5.8.
enum class TokenOp : uint8_t {
  kAcquire = 1,  ///< acquireTokens(e, n)
  kRelease = 2,  ///< releaseTokens(e, m)
  kRead = 3,     ///< read total available tokens
};

/// A client transaction against an entity's token pool. `entity` selects
/// the resource type (§3.2's e — VM, storage, bandwidth, …); single-entity
/// deployments use the default 0.
struct TokenRequest {
  uint64_t request_id = 0;
  uint32_t entity = 0;
  TokenOp op = TokenOp::kAcquire;
  int64_t amount = 1;

  /// The longest encoding `DecodeFrom` accepts: the u64 id, a varint entity
  /// of up to 10 bytes (a sender may pad it), the op byte and a 10-byte
  /// varint amount.
  static constexpr size_t kMaxEncodedBytes = 8 + 10 + 1 + 10;

  void EncodeTo(BufferWriter& w) const;
  static Result<TokenRequest> DecodeFrom(BufferReader& r);
};

/// Final or retryable outcome of a token transaction.
enum class TokenStatus : uint8_t {
  kCommitted = 1,   ///< transaction committed
  kRejected = 2,    ///< final: constraint Eq. 1 would be violated
  kNotLeader = 3,   ///< retryable: resend to `leader_hint`
  kOverloaded = 4,  ///< retryable: admission queue full, back off
};

/// Outcome of a token transaction, relayed back to the issuing client.
struct TokenResponse {
  uint64_t request_id = 0;
  TokenStatus status = TokenStatus::kRejected;
  /// For reads: the observed global token availability.
  int64_t value = 0;
  /// When a non-leader replica rejects a request it hints who leads.
  int32_t leader_hint = -1;

  bool committed() const { return status == TokenStatus::kCommitted; }

  void EncodeTo(BufferWriter& w) const;
  static Result<TokenResponse> DecodeFrom(BufferReader& r);
};


// Inline definitions. Both messages cross the wire once per client
// transaction in every system, so the codecs stay in the header where the
// varint loops and `Result` plumbing inline into the handler loops.

inline void TokenRequest::EncodeTo(BufferWriter& w) const {
  w.PutU64(request_id);
  w.PutVarint(entity);
  w.PutU8(static_cast<uint8_t>(op));
  w.PutVarintSigned(amount);
}

inline Result<TokenRequest> TokenRequest::DecodeFrom(BufferReader& r) {
  TokenRequest req;
  SAMYA_ASSIGN_OR_RETURN(req.request_id, r.GetU64());
  SAMYA_ASSIGN_OR_RETURN(uint64_t entity, r.GetVarint());
  req.entity = static_cast<uint32_t>(entity);
  SAMYA_ASSIGN_OR_RETURN(uint8_t op, r.GetU8());
  if (op < 1 || op > 3) return Status::Corruption("bad token op");
  req.op = static_cast<TokenOp>(op);
  SAMYA_ASSIGN_OR_RETURN(req.amount, r.GetVarintSigned());
  return req;
}

inline void TokenResponse::EncodeTo(BufferWriter& w) const {
  w.PutU64(request_id);
  w.PutU8(static_cast<uint8_t>(status));
  w.PutVarintSigned(value);
  w.PutVarintSigned(leader_hint);
}

inline Result<TokenResponse> TokenResponse::DecodeFrom(BufferReader& r) {
  TokenResponse resp;
  SAMYA_ASSIGN_OR_RETURN(resp.request_id, r.GetU64());
  SAMYA_ASSIGN_OR_RETURN(uint8_t status, r.GetU8());
  if (status < 1 || status > 4) return Status::Corruption("bad token status");
  resp.status = static_cast<TokenStatus>(status);
  SAMYA_ASSIGN_OR_RETURN(resp.value, r.GetVarintSigned());
  SAMYA_ASSIGN_OR_RETURN(int64_t hint, r.GetVarintSigned());
  resp.leader_hint = static_cast<int32_t>(hint);
  return resp;
}

}  // namespace samya

#endif  // SAMYA_COMMON_TOKEN_API_H_
