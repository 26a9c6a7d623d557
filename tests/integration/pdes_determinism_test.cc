// Conservative-window PDES must be an *implementation detail*: the same
// experiment run on 1, 2, or 4 workers has to produce bit-identical results
// — full result digests, merged metrics JSON, profiler event counts — with
// and without faults in flight. These tests are the contract for
// DESIGN.md §11; if any of them fails, the parallel path has diverged from
// the serial loop and must not be trusted for paper numbers.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/json.h"
#include "harness/experiment.h"
#include "sim/nemesis.h"
#include "sim/schedule_oracle.h"

namespace samya::harness {
namespace {

using Digest =
    std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
               uint64_t, uint64_t, uint64_t, uint64_t, uint64_t, int64_t,
               uint64_t, double>;

struct RunSpec {
  int workers = 1;
  sim::FaultSchedule faults;
  obs::ObsOptions obs;
  sim::ScheduleOracle* oracle = nullptr;
  /// Arms SiteOptions::enable_disconnected_mode (DESIGN.md §12): heartbeat
  /// timers, op-log writes and the reconcile handshake all run.
  bool disconnected = false;
};

struct RunOut {
  Digest digest;
  bool active = false;
  std::string fallback;
  std::string metrics_json;       ///< "" when metrics are off
  uint64_t profiler_events = 0;   ///< 0 when the profiler is off
  uint64_t flight_digest = 0;     ///< 0 when the flight recorder is off
  uint64_t flight_total = 0;
};

RunOut RunOnce(RunSpec spec) {
  ExperimentOptions opts;
  opts.system = SystemKind::kSamyaMajority;
  opts.duration = Seconds(20);
  opts.max_tokens = 300;  // scarce enough to trigger redistributions
  opts.seed = 11;
  opts.pdes_workers = spec.workers;
  opts.fault_schedule = std::move(spec.faults);
  opts.obs = spec.obs;
  opts.oracle = spec.oracle;
  opts.site_template.enable_disconnected_mode = spec.disconnected;
  Experiment experiment(opts);
  experiment.Setup();
  const ExperimentResult r = experiment.Run();
  RunOut out;
  out.digest = Digest(
      r.events_executed, r.aggregate.committed_acquires,
      r.aggregate.committed_releases, r.aggregate.rejected,
      r.network.messages_sent, r.network.messages_delivered,
      r.network.messages_dropped_loss, r.network.messages_duplicated,
      r.network.bytes_sent, r.instances_completed,
      r.proactive_redistributions + r.reactive_redistributions,
      experiment.TotalSiteTokens(), r.aggregate.latency.count(),
      r.aggregate.latency.Percentile(99));
  out.active = experiment.pdes_active();
  out.fallback = experiment.pdes_fallback_reason();
  if (r.obs != nullptr && r.obs->metrics() != nullptr) {
    out.metrics_json = JsonDump(r.obs->metrics()->ToJson());
  }
  if (r.obs != nullptr && r.obs->profiler() != nullptr) {
    out.profiler_events = r.obs->profiler()->events();
  }
  if (r.obs != nullptr && r.obs->flight() != nullptr) {
    out.flight_digest = r.obs->flight()->Digest();
    out.flight_total = r.obs->flight()->total();
  }
  return out;
}

/// A generated chaos schedule over the five sites: crashes, partitions,
/// link cuts, loss/delay/duplication spikes. `GenerateSchedule` floors
/// delay-storm factors at 2.0, so the schedule never shrinks latency and
/// PDES stays eligible.
sim::FaultSchedule ChaosSchedule() {
  sim::NemesisOptions n;
  n.horizon = Seconds(16);
  n.intensity = 1.5;
  n.nodes = {0, 1, 2, 3, 4};
  return sim::GenerateSchedule(n, /*seed=*/7);
}

/// A hand-written storm that leans on the latency-scaling paths: global and
/// per-link delay factors (all >= 1, so lookahead stays valid) plus loss
/// and duplication so the per-sender RNG draw order is exercised hard.
sim::FaultSchedule DelayStormSchedule() {
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
  return s;
}

TEST(PdesDeterminismTest, ParallelMatchesSerial_NoFault) {
  const RunOut serial = RunOnce({.workers = 1});
  for (int workers : {2, 4}) {
    const RunOut par = RunOnce({.workers = workers});
    EXPECT_TRUE(par.active) << "workers=" << workers << ": " << par.fallback;
    EXPECT_EQ(par.digest, serial.digest) << "workers=" << workers;
  }
}

TEST(PdesDeterminismTest, ParallelMatchesSerial_ChaosNemesis) {
  const RunOut serial = RunOnce({.workers = 1, .faults = ChaosSchedule()});
  for (int workers : {2, 4}) {
    const RunOut par =
        RunOnce({.workers = workers, .faults = ChaosSchedule()});
    EXPECT_TRUE(par.active) << "workers=" << workers << ": " << par.fallback;
    EXPECT_EQ(par.digest, serial.digest) << "workers=" << workers;
  }
}

/// Site-isolation plus a crash/recover cycle *inside* the isolation window
/// — the disconnected-mode trigger and the op-log replay path — with the
/// island spanning regions so cross-partition PDES links go quiet and wake.
sim::FaultSchedule IsolationCrashSchedule() {
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
  return s;
}

TEST(PdesDeterminismTest, ParallelMatchesSerial_CrashRecoverCycle) {
  sim::FaultSchedule s;
  s.ops.push_back({Seconds(4), sim::FaultOp::Kind::kCrash, 1});
  s.ops.push_back({Seconds(8), sim::FaultOp::Kind::kRecover, 1});
  s.ops.push_back({Seconds(10), sim::FaultOp::Kind::kCrash, 3});
  s.ops.push_back({Seconds(13), sim::FaultOp::Kind::kRecover, 3});
  const RunOut serial = RunOnce({.workers = 1, .faults = s});
  for (int workers : {2, 4}) {
    const RunOut par = RunOnce({.workers = workers, .faults = s});
    EXPECT_TRUE(par.active) << "workers=" << workers << ": " << par.fallback;
    EXPECT_EQ(par.digest, serial.digest) << "workers=" << workers;
  }
}

TEST(PdesDeterminismTest, ParallelMatchesSerial_IsolatedDisconnectedSite) {
  const RunOut serial = RunOnce(
      {.workers = 1, .faults = IsolationCrashSchedule(), .disconnected = true});
  for (int workers : {2, 4}) {
    const RunOut par = RunOnce({.workers = workers,
                                .faults = IsolationCrashSchedule(),
                                .disconnected = true});
    EXPECT_TRUE(par.active) << "workers=" << workers << ": " << par.fallback;
    EXPECT_EQ(par.digest, serial.digest) << "workers=" << workers;
  }
}

TEST(PdesDeterminismTest, ParallelMatchesSerial_DelayStorm) {
  const RunOut serial =
      RunOnce({.workers = 1, .faults = DelayStormSchedule()});
  for (int workers : {2, 4}) {
    const RunOut par =
        RunOnce({.workers = workers, .faults = DelayStormSchedule()});
    EXPECT_TRUE(par.active) << "workers=" << workers << ": " << par.fallback;
    EXPECT_EQ(par.digest, serial.digest) << "workers=" << workers;
  }
}

TEST(PdesDeterminismTest, ParallelRunsAreRepeatable) {
  const RunOut a = RunOnce({.workers = 4, .faults = ChaosSchedule()});
  const RunOut b = RunOnce({.workers = 4, .faults = ChaosSchedule()});
  EXPECT_EQ(a.digest, b.digest);
}

// Every obs component attached: the merged per-partition registries must
// serialize to exactly the serial run's JSON, the profiler must account
// exactly the serial event count, and the merged flight history must equal
// the serial one.
TEST(PdesDeterminismTest, ObsMergeMatchesSerial) {
  const RunOut serial = RunOnce({.workers = 1, .obs = obs::ObsOptions::All()});
  const RunOut par = RunOnce({.workers = 4, .obs = obs::ObsOptions::All()});
  EXPECT_TRUE(par.active) << par.fallback;
  EXPECT_EQ(par.digest, serial.digest);
  EXPECT_FALSE(serial.metrics_json.empty());
  EXPECT_EQ(par.metrics_json, serial.metrics_json);
  EXPECT_GT(serial.profiler_events, 0u);
  EXPECT_EQ(par.profiler_events, serial.profiler_events);
  EXPECT_GT(serial.flight_total, 0u);
  EXPECT_EQ(par.flight_total, serial.flight_total);
  EXPECT_EQ(par.flight_digest, serial.flight_digest);
}

// Observability must stay a pure observer under parallel execution too.
TEST(PdesDeterminismTest, ObsOnVsOffIsBitIdenticalAtFourWorkers) {
  const RunOut off = RunOnce({.workers = 4});
  const RunOut on = RunOnce({.workers = 4, .obs = obs::ObsOptions::All()});
  EXPECT_TRUE(off.active) << off.fallback;
  EXPECT_TRUE(on.active) << on.fallback;
  EXPECT_EQ(on.digest, off.digest);
}

// Schedule exploration owns the serial loop: requesting workers alongside
// an oracle must quietly run serial — with the reason surfaced — and match
// the plain serial-with-oracle run exactly.
TEST(PdesDeterminismTest, ScheduleOracleForcesSerial) {
  sim::FifoOracle serial_fifo;
  const RunOut serial = RunOnce({.workers = 1, .oracle = &serial_fifo});
  sim::FifoOracle par_fifo;
  const RunOut par = RunOnce({.workers = 4, .oracle = &par_fifo});
  EXPECT_FALSE(par.active);
  EXPECT_NE(par.fallback.find("oracle"), std::string::npos) << par.fallback;
  EXPECT_EQ(par.digest, serial.digest);
  EXPECT_EQ(par_fifo.decisions(), serial_fifo.decisions());
}

// A fault schedule that *shrinks* latency breaks the lookahead bound; the
// prescan must refuse it (and say why) rather than risk a causality hole.
TEST(PdesDeterminismTest, LatencyShrinkingScheduleForcesSerial) {
  sim::FaultSchedule s;
  sim::FaultOp op;
  op.at = Seconds(2);
  op.kind = sim::FaultOp::Kind::kSetDelayFactor;
  op.value = 0.5;
  s.ops.push_back(op);
  const RunOut serial = RunOnce({.workers = 1, .faults = s});
  const RunOut par = RunOnce({.workers = 4, .faults = s});
  EXPECT_FALSE(par.active);
  EXPECT_NE(par.fallback.find("lookahead"), std::string::npos)
      << par.fallback;
  EXPECT_EQ(par.digest, serial.digest);
}

}  // namespace
}  // namespace samya::harness
