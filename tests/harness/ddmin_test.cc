// Ddmin<T> on synthetic predicates: no simulation, just the search order,
// its budget, and the 1-minimality of what it returns.

#include "harness/ddmin.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace samya::harness {
namespace {

std::vector<int> Range(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

bool Contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

TEST(DdminTest, ReturnsOneMinimalSubset) {
  // The "failure" needs both 3 and 11; everything else is noise.
  int calls = 0;
  const auto needs_both = [&calls](const std::vector<int>& v) {
    ++calls;
    return Contains(v, 3) && Contains(v, 11);
  };
  int runs_used = 0;
  const std::vector<int> out =
      Ddmin(Range(20), needs_both, /*max_runs=*/300, &runs_used);
  EXPECT_EQ(out, (std::vector<int>{3, 11}));
  EXPECT_EQ(runs_used, calls);
  EXPECT_GT(runs_used, 0);
}

TEST(DdminTest, NeverExceedsItsRunBudget) {
  for (int budget : {0, 1, 3, 7, 12}) {
    int calls = 0;
    const auto needs_both = [&calls](const std::vector<int>& v) {
      ++calls;
      return Contains(v, 3) && Contains(v, 11);
    };
    int runs_used = -1;
    const std::vector<int> out = Ddmin(Range(20), needs_both, budget,
                                       &runs_used);
    EXPECT_LE(calls, budget) << "budget " << budget;
    EXPECT_EQ(runs_used, calls);
    // Whatever it returns still reproduces: a reduction is only kept when
    // the predicate held on it.
    EXPECT_TRUE(Contains(out, 3) && Contains(out, 11));
  }
}

TEST(DdminTest, TinyInputsComeBackUnchanged) {
  int calls = 0;
  const auto always = [&calls](const std::vector<int>&) {
    ++calls;
    return true;
  };
  int runs_used = -1;
  EXPECT_TRUE(Ddmin(std::vector<int>{}, always, 300, &runs_used).empty());
  EXPECT_EQ(runs_used, 0);
  EXPECT_EQ(Ddmin(std::vector<int>{7}, always, 300, &runs_used),
            (std::vector<int>{7}));
  EXPECT_EQ(runs_used, 0);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace samya::harness
