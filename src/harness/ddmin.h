#ifndef SAMYA_HARNESS_DDMIN_H_
#define SAMYA_HARNESS_DDMIN_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace samya::harness {

/// \brief ddmin delta debugging (Zeller & Hildebrandt) over a list of items.
///
/// Tries removing ever-finer chunks of `items`, keeping a reduction whenever
/// `reproduces(candidate)` still holds, then sweeps single items. Candidate
/// order is fixed, so with a deterministic predicate the result is too.
/// `reproduces` is called at most `max_runs` times; `runs_used` (optional)
/// reports how many. The result is 1-minimal (no single item can go) when
/// the budget sufficed. Inputs of 0 or 1 items come back unchanged with no
/// runs spent.
template <typename T, typename Reproduces>
std::vector<T> Ddmin(std::vector<T> items, Reproduces&& reproduces,
                     int max_runs, int* runs_used = nullptr) {
  int runs = 0;
  const auto test = [&](const std::vector<T>& candidate) {
    ++runs;
    return reproduces(candidate);
  };
  size_t n = 2;
  while (items.size() >= 2 && runs < max_runs) {
    const size_t chunk = (items.size() + n - 1) / n;
    bool reduced = false;
    for (size_t i = 0; i < n && i * chunk < items.size(); ++i) {
      if (runs >= max_runs) break;
      std::vector<T> candidate;
      candidate.reserve(items.size() - chunk);
      for (size_t j = 0; j < items.size(); ++j) {
        if (j / chunk != i) candidate.push_back(items[j]);
      }
      if (candidate.size() == items.size() || candidate.empty()) continue;
      if (test(candidate)) {
        items = std::move(candidate);
        n = std::max<size_t>(n - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= items.size()) break;  // 1-minimal
      n = std::min(n * 2, items.size());
    }
  }
  // Final singleton sweep: drop any item whose removal keeps the failure.
  for (size_t i = 0; i < items.size() && items.size() > 1 && runs < max_runs;) {
    std::vector<T> candidate = items;
    candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
    if (test(candidate)) {
      items = std::move(candidate);
    } else {
      ++i;
    }
  }
  if (runs_used != nullptr) *runs_used = runs;
  return items;
}

}  // namespace samya::harness

#endif  // SAMYA_HARNESS_DDMIN_H_
