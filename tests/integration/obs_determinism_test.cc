// Observability must be a pure observer: a run with the full stack attached
// (metrics, profiler, an unbounded flight recorder) has to produce
// bit-identical simulation results to the same run with it off. Flight seqs
// come from plain per-site counters and ride the delivery closure, never
// payload bytes, so RNG draw order and event ordering are unchanged — this
// test is the regression guard for that contract.

#include <gtest/gtest.h>

#include <tuple>

#include "harness/experiment.h"

namespace samya::harness {
namespace {

using Digest = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                          uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                          uint64_t, int64_t, uint64_t, double>;

Digest RunOnce(SystemKind system, obs::ObsOptions obs_opts) {
  ExperimentOptions opts;
  opts.system = system;
  opts.duration = Seconds(25);
  opts.max_tokens = 800;  // scarce enough to trigger redistributions
  opts.seed = 11;
  opts.obs = obs_opts;
  Experiment experiment(opts);
  experiment.Setup();
  // Loss and duplication exercise the recorded drop / duplicate branches,
  // which must consume the exact same RNG draws as the unrecorded ones.
  experiment.cluster().net().set_loss_rate(0.02);
  experiment.cluster().net().set_duplicate_rate(0.02);
  const ExperimentResult r = experiment.Run();
  return Digest(
      r.events_executed, r.aggregate.committed_acquires,
      r.aggregate.committed_releases, r.aggregate.committed_reads,
      r.aggregate.rejected, r.network.messages_sent,
      r.network.messages_delivered, r.network.messages_dropped_loss,
      r.network.messages_duplicated, r.network.bytes_sent,
      r.instances_completed, experiment.TotalSiteTokens(),
      r.aggregate.latency.count(), r.aggregate.latency.Percentile(99));
}

TEST(ObsDeterminismTest, ObsOnVsOffIsBitIdentical_Majority) {
  const Digest off = RunOnce(SystemKind::kSamyaMajority, obs::ObsOptions{});
  const Digest on = RunOnce(SystemKind::kSamyaMajority, obs::ObsOptions::All());
  EXPECT_EQ(off, on);
}

TEST(ObsDeterminismTest, ObsOnVsOffIsBitIdentical_Any) {
  const Digest off = RunOnce(SystemKind::kSamyaAny, obs::ObsOptions{});
  const Digest on = RunOnce(SystemKind::kSamyaAny, obs::ObsOptions::All());
  EXPECT_EQ(off, on);
}

TEST(ObsDeterminismTest, ObservedRunsAreRepeatable) {
  const Digest a = RunOnce(SystemKind::kSamyaMajority, obs::ObsOptions::All());
  const Digest b = RunOnce(SystemKind::kSamyaMajority, obs::ObsOptions::All());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace samya::harness
