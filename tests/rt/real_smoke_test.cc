// Satellite of the runtime-seam PR: real-backend loopback smoke. Five sites
// as threads on localhost UDP with the paper's 5-region latency matrix,
// the Fig 3b-shaped scripted workload, against the exit gates:
//   - Eq. 1 conservation holds exactly after the drain,
//   - zero invariant violations on either backend,
//   - sim-predicted vs real-measured messages/request within 5%.

#include <gtest/gtest.h>

#include "harness/real_harness.h"

namespace samya::harness {
namespace {

TEST(RealSmokeTest, FigThreeBWorkloadSimVsReal) {
  RealHarnessOptions opts;
  opts.requests_per_region = 20;
  opts.spacing = Millis(20);
  opts.drain = Seconds(2);

  RealHarness harness(opts);
  const BackendRun sim = harness.RunSim();
  const BackendRun real = harness.RunReal();

  // Both backends replay the same scripts; committed work must be real.
  ASSERT_GT(sim.aggregate.TotalCommitted(), 0u);
  ASSERT_GT(real.aggregate.TotalCommitted(), 0u);
  EXPECT_EQ(real.aggregate.dropped, 0u);

  // Exit gate 1: Eq. 1 conservation, exact.
  EXPECT_TRUE(sim.conservation_exact)
      << "sim pools " << sim.total_site_tokens << " + net "
      << sim.server_net_acquires;
  EXPECT_TRUE(real.conservation_exact)
      << "real pools " << real.total_site_tokens << " + net "
      << real.server_net_acquires;

  // Exit gate 2: zero invariant violations (continuous auditor on sim,
  // post-run checks on real).
  EXPECT_EQ(sim.violations, 0u);
  EXPECT_EQ(real.violations, 0u);

  // Exit gate 3: protocol cost matches across backends within 5%.
  ASSERT_GT(sim.messages_per_request, 0.0);
  const double ratio = real.messages_per_request / sim.messages_per_request;
  EXPECT_GE(ratio, 0.95) << "real " << real.messages_per_request << " sim "
                         << sim.messages_per_request;
  EXPECT_LE(ratio, 1.05) << "real " << real.messages_per_request << " sim "
                         << sim.messages_per_request;

  // Framing never rejects our own well-formed traffic.
  EXPECT_EQ(real.frames_rejected, 0u);

  // Observability rode along on the real backend too.
  EXPECT_TRUE(real.flight.is_object());
}

}  // namespace
}  // namespace samya::harness
