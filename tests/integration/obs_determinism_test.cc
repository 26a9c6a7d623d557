// Observability must be a pure observer: a run with the full stack attached
// (metrics, profiler, an unbounded flight recorder) has to produce
// bit-identical simulation results to the same run with it off. Flight seqs
// come from plain per-site counters and ride the delivery closure, never
// payload bytes, so RNG draw order and event ordering are unchanged — this
// test is the regression guard for that contract. The fault-path cases also
// pin repeatability end to end: two runs of the same schedule agree on the
// full digest and on the metrics registry's JSON, byte for byte.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "common/json.h"
#include "harness/experiment.h"
#include "sim/nemesis.h"

namespace samya::harness {
namespace {

using Digest = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                          uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                          uint64_t, int64_t, uint64_t, double>;

struct Scenario {
  SystemKind system = SystemKind::kSamyaMajority;
  Duration duration = Seconds(25);
  int64_t max_tokens = 800;  ///< scarce enough to trigger redistributions
  /// Loss and duplication for the whole run exercise the recorded drop /
  /// duplicate branches, which must consume the exact same RNG draws as
  /// the unrecorded ones.
  double loss_and_dup = 0.02;
  sim::FaultSchedule faults;
  /// Heartbeat timers, op-log writes and the reconcile handshake all run.
  bool disconnected = false;
};

struct Run {
  Digest digest;
  std::string metrics_json;  ///< "" when metrics are off
};

Run RunOnce(const Scenario& sc, obs::ObsOptions obs_opts) {
  ExperimentOptions opts;
  opts.system = sc.system;
  opts.duration = sc.duration;
  opts.max_tokens = sc.max_tokens;
  opts.seed = 11;
  opts.fault_schedule = sc.faults;
  opts.obs = obs_opts;
  opts.site_template.enable_disconnected_mode = sc.disconnected;
  Experiment experiment(opts);
  experiment.Setup();
  experiment.cluster().net().set_loss_rate(sc.loss_and_dup);
  experiment.cluster().net().set_duplicate_rate(sc.loss_and_dup);
  const ExperimentResult r = experiment.Run();
  Run out;
  out.digest = Digest(
      r.events_executed, r.aggregate.committed_acquires,
      r.aggregate.committed_releases, r.aggregate.committed_reads,
      r.aggregate.rejected, r.network.messages_sent,
      r.network.messages_delivered, r.network.messages_dropped_loss,
      r.network.messages_duplicated, r.network.bytes_sent,
      r.instances_completed, experiment.TotalSiteTokens(),
      r.aggregate.latency.count(), r.aggregate.latency.Percentile(99));
  if (r.obs != nullptr && r.obs->metrics() != nullptr) {
    out.metrics_json = JsonDump(r.obs->metrics()->ToJson());
  }
  return out;
}

TEST(ObsDeterminismTest, ObsOnVsOffIsBitIdentical_Majority) {
  const Scenario sc;
  EXPECT_EQ(RunOnce(sc, obs::ObsOptions{}).digest,
            RunOnce(sc, obs::ObsOptions::All()).digest);
}

TEST(ObsDeterminismTest, ObsOnVsOffIsBitIdentical_Any) {
  Scenario sc;
  sc.system = SystemKind::kSamyaAny;
  EXPECT_EQ(RunOnce(sc, obs::ObsOptions{}).digest,
            RunOnce(sc, obs::ObsOptions::All()).digest);
}

TEST(ObsDeterminismTest, ObservedRunsAreRepeatable) {
  const Scenario sc;
  EXPECT_EQ(RunOnce(sc, obs::ObsOptions::All()).digest,
            RunOnce(sc, obs::ObsOptions::All()).digest);
}

/// A fault schedule on a 20 s, 300-token run with no background loss:
/// obs-on equals obs-off, and two observed runs agree byte for byte.
void ExpectFaultRunDeterministic(sim::FaultSchedule faults,
                                 bool disconnected) {
  Scenario sc;
  sc.duration = Seconds(20);
  sc.max_tokens = 300;
  sc.loss_and_dup = 0.0;
  sc.faults = std::move(faults);
  sc.disconnected = disconnected;
  const Run off = RunOnce(sc, obs::ObsOptions{});
  const Run on = RunOnce(sc, obs::ObsOptions::All());
  const Run again = RunOnce(sc, obs::ObsOptions::All());
  EXPECT_EQ(on.digest, off.digest);
  EXPECT_EQ(again.digest, on.digest);
  EXPECT_FALSE(on.metrics_json.empty());
  EXPECT_TRUE(again.metrics_json == on.metrics_json)
      << "metrics JSON differs between identical runs";
}

/// A generated chaos schedule over the five sites: crashes, partitions,
/// link cuts, loss/delay/duplication spikes.
TEST(ObsDeterminismTest, ChaosNemesisRunsAreDeterministic) {
  sim::NemesisOptions n;
  n.horizon = Seconds(16);
  n.intensity = 1.5;
  n.nodes = {0, 1, 2, 3, 4};
  ExpectFaultRunDeterministic(sim::GenerateSchedule(n, /*seed=*/7),
                              /*disconnected=*/false);
}

/// Global and per-link delay factors plus loss and duplication, so the
/// latency-scaling paths and the per-sender RNG draw order are exercised
/// hard.
TEST(ObsDeterminismTest, DelayStormWithLossAndDupIsDeterministic) {
  sim::FaultSchedule s;
  auto add = [&s](SimTime at, sim::FaultOp::Kind kind, double value,
                  sim::NodeId a = sim::kInvalidNode,
                  sim::NodeId b = sim::kInvalidNode) {
    sim::FaultOp op;
    op.at = at;
    op.kind = kind;
    op.value = value;
    op.a = a;
    op.b = b;
    s.ops.push_back(op);
  };
  add(Seconds(2), sim::FaultOp::Kind::kSetDelayFactor, 3.0);
  add(Seconds(3), sim::FaultOp::Kind::kSetLossRate, 0.05);
  add(Seconds(4), sim::FaultOp::Kind::kSetLinkDelayFactor, 2.5, 0, 1);
  add(Seconds(5), sim::FaultOp::Kind::kSetDuplicateRate, 0.05);
  add(Seconds(9), sim::FaultOp::Kind::kSetDelayFactor, 1.0);
  add(Seconds(10), sim::FaultOp::Kind::kSetLossRate, 0.0);
  add(Seconds(11), sim::FaultOp::Kind::kClearLinkFaults, 0.0);
  add(Seconds(12), sim::FaultOp::Kind::kSetDuplicateRate, 0.0);
  ExpectFaultRunDeterministic(s, /*disconnected=*/false);
}

/// Site isolation with a crash/recover cycle inside the isolation window:
/// the disconnected-mode trigger and the op-log replay path.
TEST(ObsDeterminismTest, CrashInsideDisconnectedIsolationIsDeterministic) {
  sim::FaultSchedule s;
  sim::FaultOp iso;
  iso.at = Seconds(3);
  iso.kind = sim::FaultOp::Kind::kIsolateSite;
  iso.a = 0;
  iso.groups = {{0, 5, 10}};
  s.ops.push_back(iso);
  s.ops.push_back({Seconds(7), sim::FaultOp::Kind::kCrash, 0});
  s.ops.push_back({Seconds(9), sim::FaultOp::Kind::kRecover, 0});
  s.ops.push_back({Seconds(14), sim::FaultOp::Kind::kHeal});
  ExpectFaultRunDeterministic(s, /*disconnected=*/true);
}

}  // namespace
}  // namespace samya::harness
