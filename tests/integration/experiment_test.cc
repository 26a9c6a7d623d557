#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <string>

namespace samya::harness {
namespace {

ExperimentOptions SmallOptions(SystemKind system, uint64_t seed = 42) {
  ExperimentOptions opts;
  opts.system = system;
  opts.duration = Minutes(3);
  opts.seed = seed;
  opts.trace.days = 3;  // enough compressed trace for a few minutes
  return opts;
}

TEST(ExperimentTest, EverySystemCommitsTransactions) {
  for (SystemKind system :
       {SystemKind::kSamyaMajority, SystemKind::kSamyaAny,
        SystemKind::kMultiPaxSys, SystemKind::kCockroachLike,
        SystemKind::kDemarcation,
        SystemKind::kSamyaNoConstraint,
        SystemKind::kSamyaNoRedistribution,
        SystemKind::kSamyaMajorityNoPredict, SystemKind::kSamyaAnyNoPredict}) {
    Experiment experiment(SmallOptions(system));
    experiment.Setup();
    auto result = experiment.Run();
    EXPECT_GT(result.aggregate.TotalCommitted(), 1000u)
        << SystemName(system);
  }
}

TEST(ExperimentTest, SamyaConservesTokensExactly) {
  for (SystemKind system :
       {SystemKind::kSamyaMajority, SystemKind::kSamyaAny}) {
    ExperimentOptions opts = SmallOptions(system);
    opts.max_tokens = 1200;  // tight pool: redistributions must happen
    Experiment experiment(opts);
    experiment.Setup();
    auto result = experiment.Run();
    // Eq. 1 audit: all of M_e is either in a site pool or held by clients.
    EXPECT_EQ(experiment.TotalSiteTokens() + experiment.NetCommittedAcquires(),
              1200)
        << SystemName(system);
    EXPECT_GT(result.instances_completed, 0u) << SystemName(system);
  }
}

TEST(ExperimentTest, SamyaVastlyOutperformsReplicatedBaselines) {
  // The headline result (Fig 3b): dis-aggregation commits an order of
  // magnitude more transactions than per-update replication.
  auto run = [](SystemKind system) {
    Experiment experiment(SmallOptions(system));
    experiment.Setup();
    return experiment.Run().aggregate.TotalCommitted();
  };
  const auto samya = run(SystemKind::kSamyaMajority);
  const auto multipax = run(SystemKind::kMultiPaxSys);
  EXPECT_GT(samya, 8 * multipax);
}

TEST(ExperimentTest, SamyaLatencyFarBelowBaseline) {
  // Burst-free workload: demand bursts above M_e legitimately push Samya's
  // tail into redistribution-wait territory (that is Table 2b's p99); the
  // p90 contrast with the baselines is about the common case.
  auto p90 = [](SystemKind system) {
    ExperimentOptions opts = SmallOptions(system);
    opts.trace.burst_probability = 0;
    Experiment experiment(opts);
    experiment.Setup();
    auto result = experiment.Run();
    return result.aggregate.latency.P90();
  };
  const double samya = p90(SystemKind::kSamyaMajority);
  const double multipax = p90(SystemKind::kMultiPaxSys);
  EXPECT_LT(samya, Millis(20));
  EXPECT_GT(multipax, Millis(60));
}

TEST(ExperimentTest, DeterministicBySeed) {
  auto run = [](uint64_t seed) {
    Experiment experiment(SmallOptions(SystemKind::kSamyaMajority, seed));
    experiment.Setup();
    auto result = experiment.Run();
    return result.aggregate.TotalCommitted();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(ExperimentTest, AggregateIsTheSumOverClients) {
  for (SystemKind system :
       {SystemKind::kSamyaMajority, SystemKind::kMultiPaxSys}) {
    Experiment experiment(SmallOptions(system));
    experiment.Setup();
    auto result = experiment.Run();
    ClientStats sum;
    uint64_t latency_count = 0;
    uint64_t acquire_latency_count = 0;
    for (const ClientStats& s : result.per_client) {
      sum.committed_acquires += s.committed_acquires;
      sum.committed_releases += s.committed_releases;
      sum.committed_reads += s.committed_reads;
      sum.rejected += s.rejected;
      sum.dropped += s.dropped;
      sum.sent += s.sent;
      sum.skipped_releases += s.skipped_releases;
      latency_count += s.latency.count();
      acquire_latency_count += s.acquire_latency.count();
    }
    const ClientStats& agg = result.aggregate;
    const std::string name = SystemName(system);
    // The open-loop trace releases more than a client holds at some point,
    // so every counter below is exercised.
    EXPECT_GT(sum.skipped_releases, 0u) << name;
    EXPECT_EQ(agg.committed_acquires, sum.committed_acquires) << name;
    EXPECT_EQ(agg.committed_releases, sum.committed_releases) << name;
    EXPECT_EQ(agg.committed_reads, sum.committed_reads) << name;
    EXPECT_EQ(agg.rejected, sum.rejected) << name;
    EXPECT_EQ(agg.dropped, sum.dropped) << name;
    EXPECT_EQ(agg.sent, sum.sent) << name;
    EXPECT_EQ(agg.skipped_releases, sum.skipped_releases) << name;
    EXPECT_EQ(agg.latency.count(), latency_count) << name;
    EXPECT_EQ(agg.acquire_latency.count(), acquire_latency_count) << name;
  }
}

TEST(ExperimentTest, ReadRatioProducesReads) {
  ExperimentOptions opts = SmallOptions(SystemKind::kSamyaMajority);
  opts.read_ratio = 0.5;
  opts.trace.burst_probability = 0;  // keep the committed write/read mix 50/50
  Experiment experiment(opts);
  experiment.Setup();
  auto result = experiment.Run();
  EXPECT_GT(result.aggregate.committed_reads, 1000u);
  const double frac =
      static_cast<double>(result.aggregate.committed_reads) /
      static_cast<double>(result.aggregate.TotalCommitted());
  EXPECT_NEAR(frac, 0.5, 0.1);
}

TEST(ExperimentTest, ScalesToTwentySites) {
  ExperimentOptions opts = SmallOptions(SystemKind::kSamyaAny);
  opts.num_sites = 20;
  opts.scale_load_with_sites = true;
  Experiment experiment(opts);
  experiment.Setup();
  EXPECT_EQ(experiment.samya_sites().size(), 20u);
  auto result = experiment.Run();
  EXPECT_GT(result.aggregate.TotalCommitted(), 1000u);
  EXPECT_EQ(experiment.TotalSiteTokens() + experiment.NetCommittedAcquires(),
            5000);
}

}  // namespace
}  // namespace samya::harness
