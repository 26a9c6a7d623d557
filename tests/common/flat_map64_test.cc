#include "common/flat_map64.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/random.h"

namespace samya {
namespace {

TEST(FlatSet64Test, InsertContainsErase) {
  FlatSet64 set;
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.insert(1));
  EXPECT_FALSE(set.insert(1));  // duplicate
  EXPECT_TRUE(set.insert(2));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(1));
  EXPECT_TRUE(set.contains(2));
  EXPECT_FALSE(set.contains(3));
  EXPECT_EQ(set.erase(1), 1u);
  EXPECT_EQ(set.erase(1), 0u);
  EXPECT_FALSE(set.contains(1));
  EXPECT_TRUE(set.contains(2));
  EXPECT_EQ(set.size(), 1u);
}

// Regression: key 0 is the empty-slot sentinel. erase(0) used to match an
// empty slot and corrupt the table (losing armed timers in sim::Node, which
// calls CancelTimer(0) for never-armed timer ids). All ops on 0 must be
// harmless no-ops.
TEST(FlatSet64Test, KeyZeroIsReservedAndHarmless) {
  FlatSet64 set;
  EXPECT_FALSE(set.insert(0));
  EXPECT_FALSE(set.contains(0));
  EXPECT_EQ(set.erase(0), 0u);
  for (uint64_t i = 1; i <= 64; ++i) set.insert(i);
  EXPECT_EQ(set.erase(0), 0u);  // must not disturb the table
  EXPECT_FALSE(set.contains(0));
  EXPECT_EQ(set.size(), 64u);
  for (uint64_t i = 1; i <= 64; ++i) EXPECT_TRUE(set.contains(i));
}

TEST(FlatSet64Test, ClearRemovesEverything) {
  FlatSet64 set;
  for (uint64_t i = 1; i <= 100; ++i) set.insert(i);
  set.clear();
  EXPECT_TRUE(set.empty());
  for (uint64_t i = 1; i <= 100; ++i) EXPECT_FALSE(set.contains(i));
  // Reusable after clear.
  EXPECT_TRUE(set.insert(5));
  EXPECT_TRUE(set.contains(5));
}

TEST(FlatSet64Test, GrowsPastInitialCapacity) {
  FlatSet64 set;
  for (uint64_t i = 1; i <= 10000; ++i) EXPECT_TRUE(set.insert(i));
  EXPECT_EQ(set.size(), 10000u);
  for (uint64_t i = 1; i <= 10000; ++i) EXPECT_TRUE(set.contains(i));
  EXPECT_FALSE(set.contains(10001));
}

TEST(FlatSet64Test, TimerLifecyclePattern) {
  // The sim::Node pattern: ids arm sequentially, most cancel promptly.
  FlatSet64 set;
  uint64_t next_id = 1;
  for (int round = 0; round < 1000; ++round) {
    const uint64_t armed = next_id++;
    EXPECT_TRUE(set.insert(armed));
    EXPECT_EQ(set.erase(armed), 1u);
  }
  EXPECT_TRUE(set.empty());
  EXPECT_LE(set.capacity(), 64u);  // churn must not grow the table
}

TEST(FlatSet64Test, MatchesUnorderedSetUnderRandomChurn) {
  Rng rng(99);
  FlatSet64 set;
  std::unordered_set<uint64_t> ref;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = static_cast<uint64_t>(rng.UniformInt(1, 500));
    if (rng.Bernoulli(0.5)) {
      EXPECT_EQ(set.insert(key), ref.insert(key).second);
    } else {
      EXPECT_EQ(set.erase(key), ref.erase(key));
    }
    ASSERT_EQ(set.size(), ref.size());
  }
  for (uint64_t key = 1; key <= 500; ++key) {
    ASSERT_EQ(set.contains(key), ref.count(key) > 0) << key;
  }
}

// The table's home-slot hash (splitmix64's finaliser), mirrored here to
// build probe chains that wrap past the end of the table.
uint64_t HomeHash(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Keys 1.. whose home slot in a 16-slot table is `home`.
std::vector<uint64_t> KeysWithHome(size_t home, size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < n; ++k) {
    if ((HomeHash(k) & 15) == home) keys.push_back(k);
  }
  return keys;
}

TEST(FlatMap64Test, EraseAcrossWraparoundKeepsChainsIntact) {
  // Three keys homed on the last slot fill slots 15, 0 and 1; a key homed
  // on slot 0 lands on 2. Erasing the first must shift the chain back
  // across the end of the table, and every survivor must stay reachable.
  const std::vector<uint64_t> last = KeysWithHome(15, 3);
  const uint64_t zero = KeysWithHome(0, 1)[0];
  for (size_t victim = 0; victim < 4; ++victim) {
    FlatMap64<uint64_t> map;
    std::vector<uint64_t> keys = last;
    keys.push_back(zero);
    for (uint64_t k : keys) *map.try_emplace(k).first = k * 7;
    ASSERT_EQ(map.capacity(), 16u);
    EXPECT_EQ(map.erase(keys[victim]), 1u);
    EXPECT_EQ(map.find(keys[victim]), nullptr);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i == victim) continue;
      const uint64_t* v = map.find(keys[i]);
      ASSERT_NE(v, nullptr) << "victim " << victim << " lost key " << i;
      EXPECT_EQ(*v, keys[i] * 7);
    }
    EXPECT_EQ(map.size(), 3u);
  }
}

TEST(FlatMap64Test, KeyZeroIsRejected) {
  FlatMap64<int> map;
  const auto [value, inserted] = map.try_emplace(0);
  EXPECT_EQ(value, nullptr);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.erase(0), 0u);
  EXPECT_TRUE(map.empty());
  *map.try_emplace(5).first = 1;
  EXPECT_EQ(map.try_emplace(0).first, nullptr);
  EXPECT_EQ(map.size(), 1u);
}

// Differential test against std::unordered_map: inserts, overwrites and
// erases over a key range dense enough that probe chains wrap and erases
// shift entries, while the table grows from 16 slots to thousands; then it
// drains back to empty. Every value is compared after every phase.
TEST(FlatMap64Test, MatchesUnorderedMapThroughGrowthAndErase) {
  Rng rng(2029);
  FlatMap64<uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> ref;
  auto check_all = [&](uint64_t max_key) {
    ASSERT_EQ(map.size(), ref.size());
    for (uint64_t k = 1; k <= max_key; ++k) {
      const uint64_t* v = map.find(k);
      const auto it = ref.find(k);
      ASSERT_EQ(v != nullptr, it != ref.end()) << k;
      if (v != nullptr) {
        ASSERT_EQ(*v, it->second) << k;
      }
    }
  };
  for (uint64_t range : {12u, 40u, 300u, 5000u}) {
    for (int i = 0; i < 30000; ++i) {
      const uint64_t key = static_cast<uint64_t>(
          rng.UniformInt(1, static_cast<int64_t>(range)));
      const int op = static_cast<int>(rng.UniformInt(0, 9));
      if (op < 6) {
        const auto [value, inserted] = map.try_emplace(key);
        const auto [it, ref_inserted] = ref.try_emplace(key, 0);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*value, it->second);
        const uint64_t v = rng.Next();
        *value = v;
        it->second = v;
      } else {
        ASSERT_EQ(map.erase(key), ref.erase(key));
      }
      ASSERT_EQ(map.size(), ref.size());
    }
    check_all(range);
  }
  EXPECT_GE(map.capacity(), 4096u);
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_EQ(map.erase(k), ref.erase(k));
  }
  check_all(5000);
  EXPECT_TRUE(map.empty());
}

}  // namespace
}  // namespace samya
