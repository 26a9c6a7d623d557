#include "core/reallocator.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include <functional>

namespace samya::core {

namespace {

/// Shared skeleton of RedistributeTokens + AllocateTokens: `reject` decides
/// which requests to drop when TotalTW > S_t.
std::vector<Allocation> RunAlgorithm2(
    const StateList& list,
    const std::function<void(std::vector<EntityState>&, int64_t)>& reject) {
  std::vector<EntityState> states = list.entries;
  // Lines 4-6: pooled spare tokens and total tokens wanted.
  int64_t spare = 0;
  int64_t total_wanted = 0;
  for (const auto& s : states) {
    SAMYA_CHECK_GE(s.tokens_left, 0);
    SAMYA_CHECK_GE(s.tokens_wanted, 0);
    spare += s.tokens_left;
    total_wanted += s.tokens_wanted;
  }

  std::vector<Allocation> out(states.size());
  for (size_t i = 0; i < states.size(); ++i) out[i].site = states[i].site;

  // Lines 7-8: RejectSomeRequests when demand exceeds the pooled spare.
  if (total_wanted > spare) {
    std::vector<int64_t> before(states.size());
    for (size_t i = 0; i < states.size(); ++i) before[i] = states[i].tokens_wanted;
    reject(states, spare);
    for (size_t i = 0; i < states.size(); ++i) {
      out[i].wanted_rejected = states[i].tokens_wanted < before[i];
    }
  }

  // Lines 18-23: AllocateTokens. Every surviving request is granted in full,
  // then the remaining spare is split equally across all participants.
  int64_t remaining = spare;
  for (size_t i = 0; i < states.size(); ++i) {
    out[i].tokens_granted = states[i].tokens_wanted;
    remaining -= states[i].tokens_wanted;
  }
  SAMYA_CHECK_GE(remaining, 0);
  const int64_t n = static_cast<int64_t>(states.size());
  const int64_t share = n > 0 ? remaining / n : 0;
  int64_t leftover = n > 0 ? remaining % n : 0;
  // Deterministic remainder placement: ascending site id.
  std::vector<size_t> order(states.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return states[a].site < states[b].site;
  });
  for (size_t idx : order) {
    out[idx].tokens_granted += share;
    if (leftover > 0) {
      ++out[idx].tokens_granted;
      --leftover;
    }
  }
  return out;
}

}  // namespace

std::vector<Allocation> GreedyReallocator::Reallocate(
    const StateList& list) const {
  return RunAlgorithm2(list, [](std::vector<EntityState>& states,
                                int64_t spare) {
    // Lines 10-17: reject requests in ascending order of TokensWanted until
    // the surviving demand fits in the pooled spare. (The paper's pseudocode
    // grows S_t by the rejected site's TokensLeft, which double-counts a
    // quantity already pooled in lines 4-6; we implement the stated intent —
    // "reject requests with least tokens wanted first" until Total TW <=
    // S_t — which conserves tokens.)
    std::vector<size_t> order(states.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (states[a].tokens_wanted != states[b].tokens_wanted) {
        return states[a].tokens_wanted < states[b].tokens_wanted;
      }
      return states[a].site < states[b].site;
    });
    int64_t total_wanted = 0;
    for (const auto& s : states) total_wanted += s.tokens_wanted;
    for (size_t idx : order) {
      if (total_wanted <= spare) break;
      total_wanted -= states[idx].tokens_wanted;
      states[idx].tokens_wanted = 0;
    }
  });
}

std::vector<Allocation> MaxRequestsReallocator::Reallocate(
    const StateList& list) const {
  return RunAlgorithm2(list, [](std::vector<EntityState>& states,
                                int64_t spare) {
    // Reject the largest requests first, keeping as many distinct requests
    // satisfied as possible.
    std::vector<size_t> order(states.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (states[a].tokens_wanted != states[b].tokens_wanted) {
        return states[a].tokens_wanted > states[b].tokens_wanted;
      }
      return states[a].site < states[b].site;
    });
    int64_t total_wanted = 0;
    for (const auto& s : states) total_wanted += s.tokens_wanted;
    for (size_t idx : order) {
      if (total_wanted <= spare) break;
      total_wanted -= states[idx].tokens_wanted;
      states[idx].tokens_wanted = 0;
    }
  });
}

std::vector<Allocation> ProportionalReallocator::Reallocate(
    const StateList& list) const {
  return RunAlgorithm2(list, [](std::vector<EntityState>& states,
                                int64_t spare) {
    int64_t total_wanted = 0;
    for (const auto& s : states) total_wanted += s.tokens_wanted;
    if (total_wanted <= 0) return;
    // Scale every request down pro rata; floor keeps the sum within spare.
    int64_t granted_sum = 0;
    for (auto& s : states) {
      s.tokens_wanted = s.tokens_wanted * spare / total_wanted;
      granted_sum += s.tokens_wanted;
    }
    SAMYA_CHECK_LE(granted_sum, spare);
  });
}

}  // namespace samya::core
