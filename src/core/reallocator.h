#ifndef SAMYA_CORE_REALLOCATOR_H_
#define SAMYA_CORE_REALLOCATOR_H_

#include <memory>
#include <vector>

#include "core/types.h"

namespace samya::core {

/// Result of Algorithm 2 for one participating site.
struct Allocation {
  rt::NodeId site = rt::kInvalidNode;
  /// The site's new TokensLeft (all participants' tokens were pooled, so
  /// this *replaces* the old local count rather than adding to it).
  int64_t tokens_granted = 0;
  /// True if the site's TokensWanted was zeroed by RejectSomeRequests.
  bool wanted_rejected = false;
};

/// \brief Pluggable Redistribution Module (§4.1.1, §4.4): given the agreed
/// list L_t, deterministically reallocates the pooled spare tokens.
///
/// Every participant runs this locally on the same input and must reach the
/// same output — that is what lets Avantan finish with purely local
/// reallocation, no extra round.
class Reallocator {
 public:
  virtual ~Reallocator() = default;
  virtual std::vector<Allocation> Reallocate(const StateList& list) const = 0;
};

/// The paper's Algorithm 2. Greedy strategy that maximises overall token
/// usage: if total wanted exceeds the pooled spare, requests are rejected in
/// ascending order of TokensWanted until the remainder fits; every surviving
/// request is granted in full and the leftover is split equally (integer
/// division; the remainder goes to the lowest site ids so no token is ever
/// created or destroyed).
class GreedyReallocator : public Reallocator {
 public:
  std::vector<Allocation> Reallocate(const StateList& list) const override;
};

/// Alternative strategy (the module is pluggable; used by the ablation
/// bench): satisfy as many *requests* as possible instead of maximising
/// token usage — i.e. reject the largest TokensWanted first.
class MaxRequestsReallocator : public Reallocator {
 public:
  std::vector<Allocation> Reallocate(const StateList& list) const override;
};

/// Proportional strategy: when demand exceeds spare, grant each requester a
/// pro-rata share instead of rejecting anyone outright.
class ProportionalReallocator : public Reallocator {
 public:
  std::vector<Allocation> Reallocate(const StateList& list) const override;
};

}  // namespace samya::core

#endif  // SAMYA_CORE_REALLOCATOR_H_
