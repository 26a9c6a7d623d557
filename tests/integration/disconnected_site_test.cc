// End-to-end disconnected-site operation (DESIGN.md §12): a Samya site cut
// off together with its region's app manager and client must keep serving
// from its local pool behind the durable op-log, then reconcile on heal with
// token conservation exact — including when the site crashes and recovers
// *inside* the disconnected window (op-log replay).

#include <gtest/gtest.h>

#include <tuple>

#include "harness/chaos.h"
#include "harness/experiment.h"
#include "sim/nemesis.h"

namespace samya::harness {
namespace {

/// Isolation island for site 0 under the standard 5-site deployment layout:
/// the site, its region's app manager (id 5) and its client (id 10), so
/// load keeps arriving at the cut-off site.
ChaosCase IsolationCase(bool disconnected_mode,
                        SystemKind system = SystemKind::kSamyaMajority) {
  ChaosCase c;
  c.system = system;
  c.seed = 11;
  c.max_tokens = 2000;  // roomy pools: the isolated site can serve locally
  c.duration = Seconds(24);
  c.disconnected_mode = disconnected_mode;
  c.schedule.ops.push_back({Seconds(4), sim::FaultOp::Kind::kIsolateSite, 0,
                            sim::kInvalidNode, 0.0,
                            {{0, 5, 10}}});
  c.schedule.ops.push_back({Seconds(16), sim::FaultOp::Kind::kHeal});
  return c;
}

TEST(DisconnectedSiteTest, ServesDuringIsolationAndReconcilesOnHeal) {
  for (SystemKind system :
       {SystemKind::kSamyaMajority, SystemKind::kSamyaAny}) {
    Experiment e(MakeChaosOptions(IsolationCase(true, system), AuditOptions{}));
    e.Setup();
    const ExperimentResult r = e.Run();
    const core::Site& site = *e.samya_sites()[0];
    EXPECT_TRUE(r.violations.empty())
        << SystemName(system) << ": " << r.violations.front().check << " "
        << r.violations.front().detail;

    // The heartbeat-miss detector tripped and the window actually served.
    EXPECT_GE(site.stats().disconnected_epochs, 1u) << SystemName(system);
    EXPECT_GT(site.stats().disconnected_served, 0u) << SystemName(system);
    EXPECT_GT(site.stats().oplog_appends, 0u) << SystemName(system);

    // The heal folded the window back: reconciled, no longer disconnected,
    // and Eq. 1 conservation exact against the server-side ledger.
    EXPECT_GE(site.stats().reconciles, 1u) << SystemName(system);
    EXPECT_FALSE(site.disconnected()) << SystemName(system);
    EXPECT_EQ(e.TotalSiteTokens() + e.ServerNetAcquires(), 2000)
        << SystemName(system);
  }
}

TEST(DisconnectedSiteTest, FlagOffKeepsSeedBehaviour) {
  // Without enable_disconnected_mode the same isolation must not create any
  // disconnected epoch (the detector never arms), and conservation still
  // holds once the partition heals and queued work drains.
  Experiment e(MakeChaosOptions(IsolationCase(false), AuditOptions{}));
  e.Setup();
  const ExperimentResult r = e.Run();
  const core::Site& site = *e.samya_sites()[0];
  EXPECT_EQ(site.stats().disconnected_epochs, 0u);
  EXPECT_EQ(site.stats().oplog_appends, 0u);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().check << " " << r.violations.front().detail;
  EXPECT_EQ(e.TotalSiteTokens() + e.ServerNetAcquires(), 2000);
}

TEST(DisconnectedSiteTest, CrashInsideWindowReplaysOpLog) {
  // Crash the isolated site mid-window, recover it while still isolated:
  // recovery must replay the op-log (rebuilding the pool and dedup cache),
  // resume the disconnected epoch, and the eventual heal must still
  // reconcile to exact conservation.
  ChaosCase c = IsolationCase(true);
  c.schedule.ops.push_back({Seconds(10), sim::FaultOp::Kind::kCrash, 0});
  c.schedule.ops.push_back({Seconds(12), sim::FaultOp::Kind::kRecover, 0});
  c.schedule.SortByTime();

  Experiment e(MakeChaosOptions(c, AuditOptions{}));
  e.Setup();
  const ExperimentResult r = e.Run();
  const core::Site& site = *e.samya_sites()[0];
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().check << " " << r.violations.front().detail;
  EXPECT_GE(site.stats().disconnected_epochs, 1u);
  EXPECT_GT(site.stats().disconnected_served, 0u);
  EXPECT_GT(site.stats().oplog_replayed, 0u);
  EXPECT_GE(site.stats().reconciles, 1u);
  EXPECT_FALSE(site.disconnected());
  EXPECT_EQ(e.TotalSiteTokens() + e.ServerNetAcquires(), 2000);
}

TEST(DisconnectedSiteTest, DisconnectedRunsAreDeterministic) {
  auto digest = [](const ExperimentResult& r, Experiment& e) {
    const core::SiteStats& s = e.samya_sites()[0]->stats();
    return std::tuple(r.events_executed, r.aggregate.TotalCommitted(),
                      r.network.messages_sent, s.disconnected_served,
                      s.oplog_appends, s.reconciles, e.TotalSiteTokens());
  };
  Experiment a(MakeChaosOptions(IsolationCase(true), AuditOptions{}));
  a.Setup();
  const ExperimentResult ra = a.Run();
  Experiment b(MakeChaosOptions(IsolationCase(true), AuditOptions{}));
  b.Setup();
  const ExperimentResult rb = b.Run();
  EXPECT_EQ(digest(ra, a), digest(rb, b));
}

TEST(DisconnectedSiteTest, GeneratedIsolationSweepStaysClean) {
  // The `samya_search chaos` grid in miniature: generated nemesis schedules
  // with isolation waves armed, samya + bounded_counter, all clean after
  // heal.
  for (SystemKind system :
       {SystemKind::kSamyaMajority, SystemKind::kBoundedCounter}) {
    ChaosCase c = MakeNemesisCase(system, /*seed=*/5, /*intensity=*/1.0,
                                  /*num_sites=*/5, /*isolate=*/1.5,
                                  /*disconnected_mode=*/true);
    c.duration = Seconds(30);
    const ExperimentResult r = RunChaosCase(c, AuditOptions{});
    EXPECT_TRUE(r.violations.empty())
        << SystemName(system) << ": " << r.violations.front().check << " "
        << r.violations.front().detail;
  }
}

}  // namespace
}  // namespace samya::harness
