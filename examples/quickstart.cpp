// Quickstart: bring up a 5-region Samya deployment, acquire and release
// tokens through an app manager, trigger a redistribution, and read the
// global availability. Exits 1 unless the script committed and Eq. 1 holds
// on the measured pools and client counters (ctest runs it).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/app_manager.h"
#include "core/site.h"
#include "harness/workload_client.h"
#include "sim/cluster.h"

using namespace samya;  // NOLINT — example code

namespace {
constexpr int64_t kMaxTokens = 5000;  // M_e, 1000 per site
constexpr int64_t kAcquire = 600;
constexpr int64_t kRelease = 100;
}  // namespace

int main() {
  std::printf("Samya quickstart: 5 geo-distributed sites, M_e = 5000\n\n");

  // 1. A simulated geo-distributed cluster (deterministic by seed).
  sim::Cluster cluster(/*seed=*/2024);

  // 2. Five sites, one per paper region, each starting with 1000 tokens.
  std::vector<sim::NodeId> site_ids = {0, 1, 2, 3, 4};
  std::vector<core::Site*> sites;
  for (int i = 0; i < 5; ++i) {
    core::SiteOptions opts;
    opts.sites = site_ids;
    opts.initial_tokens = kMaxTokens / 5;
    opts.protocol = core::Protocol::kAvantanMajority;
    opts.enable_prediction = false;  // keep the quickstart reactive-only
    auto* site =
        cluster.AddNode<core::Site>(sim::kPaperRegions[static_cast<size_t>(i)], opts);
    site->set_storage(cluster.StorageFor(site->id()));
    sites.push_back(site);
  }

  // 3. An app manager in us-west1 relaying to the local site first.
  core::AppManagerOptions aopts;
  aopts.sites = site_ids;
  auto* am = cluster.AddNode<core::AppManager>(sim::Region::kUsWest1, aopts);

  // 4. A scripted client: acquire 600, acquire 600 more (forcing an Avantan
  //    redistribution — the local site only has 1000), release 100, then
  //    read the global availability.
  harness::WorkloadClientOptions copts;
  copts.servers = {am->id()};
  std::vector<workload::Request> script = {
      {Millis(10), workload::Request::Type::kAcquire, kAcquire},
      {Millis(20), workload::Request::Type::kAcquire, kAcquire},
      {Seconds(2), workload::Request::Type::kRelease, kRelease},
      {Seconds(3), workload::Request::Type::kRead, 1},
  };
  auto* client = cluster.AddNode<harness::WorkloadClient>(
      sim::Region::kUsWest1, copts, script);

  // 5. Run the simulation.
  cluster.StartAll();
  cluster.env().RunFor(Seconds(5));

  // 6. Inspect the outcome.
  const auto& stats = client->stats();
  std::printf("client: %llu acquires, %llu releases, %llu reads committed\n",
              static_cast<unsigned long long>(stats.committed_acquires),
              static_cast<unsigned long long>(stats.committed_releases),
              static_cast<unsigned long long>(stats.committed_reads));
  std::printf("commit latency: p50=%.2fms p99=%.2fms (the second acquire paid "
              "for a redistribution)\n",
              stats.latency.P50() / 1000.0, stats.latency.P99() / 1000.0);

  int64_t pooled = 0;
  for (auto* site : sites) {
    std::printf("site %d (%s): %lld tokens left, %llu redistributions\n",
                site->id(), sim::RegionName(site->region()),
                static_cast<long long>(site->tokens_left()),
                static_cast<unsigned long long>(
                    site->stats().reactive_redistributions +
                    site->stats().proactive_redistributions));
    pooled += site->tokens_left();
  }
  const int64_t held =
      static_cast<int64_t>(stats.committed_acquires) * kAcquire -
      static_cast<int64_t>(stats.committed_releases) * kRelease;
  std::printf("\nEq. 1 check: %lld in pools + %lld held by the client = %lld "
              "(M_e = 5000)\n",
              static_cast<long long>(pooled), static_cast<long long>(held),
              static_cast<long long>(pooled + held));
  const bool ok = pooled + held == kMaxTokens &&
                  stats.committed_acquires == 2 &&
                  stats.committed_releases == 1;
  if (!ok) std::printf("FAIL: the script did not commit or Eq. 1 broke\n");
  return ok ? 0 : 1;
}
