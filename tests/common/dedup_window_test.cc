#include "common/dedup_window.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/random.h"

namespace samya {
namespace {

/// The window's specification: two `unordered_map` generations, rolled when
/// the current one holds `kGenerationSize` ids, before the insert.
class ReferenceWindow {
 public:
  void Remember(uint64_t id, int64_t value) {
    if (cur_.size() >= DedupWindow::kGenerationSize) {
      prev_ = std::move(cur_);
      cur_ = {};
    }
    cur_[id] = value;
  }
  const int64_t* Lookup(uint64_t id) const {
    if (auto it = cur_.find(id); it != cur_.end()) return &it->second;
    if (auto it = prev_.find(id); it != prev_.end()) return &it->second;
    return nullptr;
  }
  void Clear() {
    cur_.clear();
    prev_.clear();
  }

 private:
  std::unordered_map<uint64_t, int64_t> cur_;
  std::unordered_map<uint64_t, int64_t> prev_;
};

enum class Ids { kSequentialWithHoles, kRandom };

/// Drives the window and the reference through the same operations and
/// checks that every lookup agrees: fresh ids, rewrites of remembered ids
/// (in either generation or already dropped), a `Clear` partway, and over
/// three rolls after it.
void RunDifferential(Ids ids, uint64_t seed) {
  DedupWindow window;
  ReferenceWindow model;
  Rng rng(seed);
  std::vector<uint64_t> seen;
  uint64_t next_id = 1;
  const auto check = [&](uint64_t id) {
    const int64_t* got = window.Lookup(id);
    const int64_t* want = model.Lookup(id);
    ASSERT_EQ(got == nullptr, want == nullptr) << "id " << id;
    if (want != nullptr) {
      ASSERT_EQ(*got, *want) << "id " << id;
    }
  };
  const int64_t ops = DedupWindow::kGenerationSize * 4;  // 3+ rolls after Clear
  for (int64_t op = 0; op < ops + DedupWindow::kGenerationSize / 2; ++op) {
    if (op == DedupWindow::kGenerationSize / 2) {
      window.Clear();
      model.Clear();
      check(seen.back());
    }
    uint64_t id;
    if (!seen.empty() && rng.NextDouble() < 0.05) {
      id = seen[rng.NextUint64(seen.size())];  // a retry's rewrite
    } else if (ids == Ids::kSequentialWithHoles) {
      // Reads and rejections leave holes in a site's stored ids.
      next_id += 1 + rng.NextUint64(4);
      id = next_id;
    } else {
      id = rng.Next();
    }
    const int64_t value = static_cast<int64_t>(rng.NextUint64(1000000));
    window.Remember(id, value);
    model.Remember(id, value);
    seen.push_back(id);
    check(id);
    check(seen[rng.NextUint64(seen.size())]);
    check(ids == Ids::kRandom ? rng.Next() : next_id + 1);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DedupWindowTest, MatchesReferenceOnSequentialIdsWithHoles) {
  RunDifferential(Ids::kSequentialWithHoles, 1);
}

TEST(DedupWindowTest, MatchesReferenceOnRandomIds) {
  RunDifferential(Ids::kRandom, 2);
}

TEST(DedupWindowTest, RollKeepsOneGenerationAndRewritesInTheCurrent) {
  DedupWindow w;
  constexpr uint64_t kGen = DedupWindow::kGenerationSize;
  for (uint64_t id = 1; id <= kGen; ++id) w.Remember(id, 10);
  w.Remember(1, 20);  // rolls first: id 1 now sits in both generations
  ASSERT_NE(w.Lookup(1), nullptr);
  EXPECT_EQ(*w.Lookup(1), 20);  // the current generation wins
  EXPECT_EQ(*w.Lookup(2), 10);  // the previous generation still answers
  for (uint64_t id = kGen + 1; id < 2 * kGen; ++id) w.Remember(id, 30);
  w.Remember(2 * kGen, 40);  // second roll drops ids 2..kGen
  EXPECT_EQ(w.Lookup(2), nullptr);
  EXPECT_EQ(*w.Lookup(1), 20);
  EXPECT_EQ(*w.Lookup(2 * kGen), 40);
  w.Clear();
  EXPECT_EQ(w.Lookup(1), nullptr);
  EXPECT_EQ(w.Lookup(2 * kGen), nullptr);
}

}  // namespace
}  // namespace samya
