#include "workload/request_stream.h"

#include <gtest/gtest.h>

#include "workload/azure_generator.h"
#include "workload/transform.h"

namespace samya::workload {
namespace {

DemandTrace TinyTrace() {
  std::vector<DemandInterval> data = {{5, 2}, {3, 4}};
  return DemandTrace(Seconds(5), std::move(data));
}

TEST(RequestStreamTest, CountsMatchTrace) {
  auto reqs = GenerateRequests(TinyTrace(), {});
  int64_t acquires = 0, releases = 0, reads = 0;
  for (const auto& r : reqs) {
    if (r.type == Request::Type::kAcquire) ++acquires;
    if (r.type == Request::Type::kRelease) ++releases;
    if (r.type == Request::Type::kRead) ++reads;
    EXPECT_EQ(r.amount, 1);
  }
  EXPECT_EQ(acquires, 8);
  EXPECT_EQ(releases, 6);
  EXPECT_EQ(reads, 0);
}

TEST(RequestStreamTest, TimesWithinIntervalsAndSorted) {
  auto reqs = GenerateRequests(TinyTrace(), {});
  SimTime prev = 0;
  for (const auto& r : reqs) {
    EXPECT_GE(r.at, prev);
    EXPECT_LT(r.at, Seconds(10));
    prev = r.at;
  }
}

TEST(RequestStreamTest, HorizonCapsGeneration) {
  RequestStreamOptions opts;
  opts.horizon = Seconds(5);
  auto reqs = GenerateRequests(TinyTrace(), opts);
  for (const auto& r : reqs) EXPECT_LT(r.at, Seconds(5));
  // Only interval 0's requests remain.
  EXPECT_EQ(reqs.size(), 7u);
}

TEST(RequestStreamTest, ReadRatioApproximatelyHonored) {
  AzureTraceOptions o;
  o.days = 2;
  auto trace = CompressTime(GenerateAzureTrace(o), 60);
  RequestStreamOptions opts;
  opts.read_ratio = 0.5;
  auto reqs = GenerateRequests(trace, opts);
  int64_t reads = 0;
  for (const auto& r : reqs) reads += (r.type == Request::Type::kRead);
  const double frac =
      static_cast<double>(reads) / static_cast<double>(reqs.size());
  EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(RequestStreamTest, DeterministicBySeed) {
  auto a = GenerateRequests(TinyTrace(), {});
  auto b = GenerateRequests(TinyTrace(), {});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(static_cast<int>(a[i].type), static_cast<int>(b[i].type));
  }
}

TEST(RequestStreamTest, CompressedHourHasPaperScaleVolume) {
  // §5.3: one compressed hour (60 original hours) yields ~820k transactions
  // across 5 regions, i.e. ~164k for one region.
  auto trace = CompressTime(GenerateAzureTrace({}), 60);
  RequestStreamOptions opts;
  opts.horizon = kHour;
  auto reqs = GenerateRequests(trace, opts);
  EXPECT_GT(reqs.size(), 80000u);
  EXPECT_LT(reqs.size(), 400000u);
}

// FNV-1a over every request's (at, type, amount), in script order.
uint64_t ScriptChecksum(const std::vector<Request>& reqs) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<uint64_t>(v) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& r : reqs) {
    mix(r.at);
    mix(static_cast<int64_t>(r.type));
    mix(r.amount);
  }
  return h;
}

TEST(RequestStreamTest, ThirtyMinuteScriptsArePinned) {
  // Checksums of 30-min §5.1.2 scripts, computed when Request was 24 bytes
  // and the script grew by doubling. Seed 49 orders 2 (no reads) and 6 (20%
  // reads) equal-time pairs of different types, so the sort's handling of
  // ties is pinned too.
  const auto trace = CompressTime(GenerateAzureTrace({}), 60);
  struct Pinned {
    double read_ratio;
    uint64_t seed;
    size_t size;
    uint64_t checksum;
  };
  for (const Pinned& p : {Pinned{0.0, 7, 87753, 0x7b5ceed64dbc8cc4ull},
                          Pinned{0.0, 49, 87753, 0x808d04f56b8bdad6ull},
                          Pinned{0.2, 7, 109991, 0xe3d611873d7aeb3bull},
                          Pinned{0.2, 49, 109542, 0x16da5aa4b15a2f6dull}}) {
    RequestStreamOptions opts;
    opts.read_ratio = p.read_ratio;
    opts.horizon = 30 * kMinute;
    opts.seed = p.seed;
    const auto reqs = GenerateRequests(trace, opts);
    EXPECT_EQ(reqs.size(), p.size) << "seed " << p.seed;
    EXPECT_EQ(ScriptChecksum(reqs), p.checksum) << "seed " << p.seed;
    // The reservation covers the script, so it never doubled.
    EXPECT_LT(reqs.capacity(), reqs.size() + reqs.size() / 100);
  }
}

}  // namespace
}  // namespace samya::workload
