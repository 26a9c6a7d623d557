// samya_real — run the canonical Fig 3b-shaped workload on the simulator
// and on the real thread/socket backend (DESIGN.md §14) and compare.
//
// Both backends run the identical deployment (5 sites on the paper's
// 5-region latency matrix, one app manager and one open-loop client per
// region) and the identical deterministic scripts; the report prints
// sim-predicted vs real-measured per-request latency and messages/request,
// plus the Eq. 1 conservation audit of each side.
//
// Flags:
//   --seed N           experiment seed (default 42)
//   --requests N       requests per region, >= 1 (default 40)
//   --spacing-ms N     inter-request spacing per region, >= 1 (default 25)
//   --tokens N         global limit M_e, >= 1 (default 5000)
//   --sites N          number of Samya sites, 1..64 (default 5)
//   --loss P           real-backend message loss rate in [0, 1] (default 0)
//   --delay-factor F   scales the injected latency model, > 0 (default 1.0)
//   --backend B        sim | real | both (default both)
//   --flight-out F     write the real run's flight-recorder JSON
//
// Exit status: 0 on success; 1 when either backend fails its invariant
// gate (Eq. 1 conservation, zero violations) or — when both backends ran
// with loss 0 — when messages/request diverges by more than 5%, or (at
// delay factor 1) when the real p50 latency is above 1.5x or below 0.95x
// the simulator's; 2 on a bad flag, before any run starts.
//
// Example:
//   samya_real --requests 40 --flight-out real_flight.json

#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"
#include "flag_parse.h"
#include "harness/real_harness.h"

using namespace samya;           // NOLINT — tool code
using namespace samya::harness;  // NOLINT

namespace {

/// Tripwires on real/sim p50 at default shaping. The ceiling catches a loop
/// that wakes late: at 197 samples on a 4-vCPU VM, holding datagrams at the
/// receiver measured 1.09-1.27 over five runs, holding them in the sender's
/// outbox 1.18-1.30 interleaved with those, and loops that rounded each
/// sleep up to whole milliseconds about 1.9. The headroom is for noisy
/// shared machines.
constexpr double kMaxP50Ratio = 1.5;
/// The floor catches early delivery: a datagram may run up to
/// rt::kDeliveryWindow before its drawn latency, and that must never make
/// the real backend look faster than its model.
constexpr double kMinP50Ratio = 0.95;
/// The real backend runs one loop thread and one socket per node.
constexpr int64_t kMaxSites = 64;

void Usage() {
  std::fprintf(stderr,
               "usage: samya_real [--seed N] [--requests N] [--spacing-ms N]\n"
               "                  [--tokens N] [--sites N] [--loss P]\n"
               "                  [--delay-factor F] [--backend sim|real|both]\n"
               "                  [--flight-out F]\n");
}

bool WriteJson(const std::string& path, const JsonValue& v) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "samya_real: cannot write %s\n", path.c_str());
    return false;
  }
  out << JsonDump(v, 2) << "\n";
  return out.good();
}

void PrintRun(const BackendRun& run) {
  std::printf("%-5s committed=%llu (acq=%llu rel=%llu) rejected=%llu "
              "dropped=%llu\n",
              run.backend.c_str(),
              static_cast<unsigned long long>(run.aggregate.TotalCommitted()),
              static_cast<unsigned long long>(run.aggregate.committed_acquires),
              static_cast<unsigned long long>(run.aggregate.committed_releases),
              static_cast<unsigned long long>(run.aggregate.rejected),
              static_cast<unsigned long long>(run.aggregate.dropped));
  std::printf("      latency_us p50=%.0f p90=%.0f p99=%.0f (n=%llu)\n",
              run.aggregate.latency.P50(),
              run.aggregate.latency.P90(),
              run.aggregate.latency.P99(),
              static_cast<unsigned long long>(run.aggregate.latency.count()));
  std::printf("      messages sent=%llu delivered=%llu rejected_frames=%llu "
              "msgs/req=%.3f\n",
              static_cast<unsigned long long>(run.messages_sent),
              static_cast<unsigned long long>(run.messages_delivered),
              static_cast<unsigned long long>(run.frames_rejected),
              run.messages_per_request);
  std::printf("      eq1: site_pools=%lld + net_acquires=%lld -> %s, "
              "violations=%llu, wall=%.2fs\n",
              static_cast<long long>(run.total_site_tokens),
              static_cast<long long>(run.server_net_acquires),
              run.conservation_exact ? "exact" : "MISMATCH",
              static_cast<unsigned long long>(run.violations),
              run.wall_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  RealHarnessOptions opts;
  std::string backend = "both";
  std::string flight_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) tools::UsageExit(Usage);
      return argv[++i];
    };
    if (arg == "--seed") {
      opts.seed = static_cast<uint64_t>(
          tools::ParseInt(next(), 0, tools::kInt64Max, Usage));
    } else if (arg == "--requests") {
      opts.requests_per_region =
          static_cast<int>(tools::ParseInt(next(), 1, tools::kIntMax, Usage));
    } else if (arg == "--spacing-ms") {
      opts.spacing = Millis(tools::ParseInt(next(), 1, tools::kIntMax, Usage));
    } else if (arg == "--tokens") {
      opts.max_tokens = tools::ParseInt(next(), 1, tools::kInt64Max, Usage);
    } else if (arg == "--sites") {
      opts.num_sites =
          static_cast<int>(tools::ParseInt(next(), 1, kMaxSites, Usage));
    } else if (arg == "--loss") {
      opts.netem.loss_rate = tools::ParseReal(next(), 0.0, 1.0, Usage);
    } else if (arg == "--delay-factor") {
      opts.netem.delay_factor =
          tools::ParseReal(next(), tools::kPositive, tools::kRealMax, Usage);
    } else if (arg == "--backend") {
      backend = next();
    } else if (arg == "--flight-out") {
      flight_out = next();
    } else {
      Usage();
      return 2;
    }
  }
  if (backend != "sim" && backend != "real" && backend != "both") {
    Usage();
    return 2;
  }

  RealHarness harness(opts);
  std::printf("samya_real: %d sites, %d req/region, spacing %lld ms, "
              "M_e=%lld, seed=%llu\n",
              opts.num_sites, opts.requests_per_region,
              static_cast<long long>(opts.spacing / 1000),
              static_cast<long long>(opts.max_tokens),
              static_cast<unsigned long long>(opts.seed));

  bool ok = true;
  BackendRun sim_run;
  BackendRun real_run;
  const bool run_sim = backend != "real";
  const bool run_real = backend != "sim";

  if (run_sim) {
    sim_run = harness.RunSim();
    PrintRun(sim_run);
    ok = ok && sim_run.conservation_exact && sim_run.violations == 0;
  }
  if (run_real) {
    real_run = harness.RunReal();
    PrintRun(real_run);
    ok = ok && real_run.conservation_exact && real_run.violations == 0;
    if (!flight_out.empty()) ok = WriteJson(flight_out, real_run.flight) && ok;
  }

  if (run_sim && run_real) {
    const double p50_ratio =
        sim_run.aggregate.latency.P50() > 0
            ? real_run.aggregate.latency.P50() /
                  sim_run.aggregate.latency.P50()
            : 0.0;
    std::printf("sim-vs-real: latency_p50 real/sim = %.3f, msgs/req sim=%.3f "
                "real=%.3f\n",
                p50_ratio, sim_run.messages_per_request,
                real_run.messages_per_request);
    // The message-count gate only holds when shaping matches the sim model
    // (loss injection makes retries diverge by design).
    if (opts.netem.loss_rate == 0.0 && sim_run.messages_per_request > 0) {
      const double rel = real_run.messages_per_request /
                             sim_run.messages_per_request -
                         1.0;
      if (rel < -0.05 || rel > 0.05) {
        std::printf("sim-vs-real: msgs/req diverges by %.1f%% (>5%%)\n",
                    rel * 100.0);
        ok = false;
      }
    }
    // Latencies compare only at loss 0 and delay factor 1: retries add
    // latency, and the simulator side ignores --delay-factor.
    if (opts.netem.loss_rate == 0.0 && opts.netem.delay_factor == 1.0) {
      if (p50_ratio > kMaxP50Ratio) {
        std::printf("sim-vs-real: latency_p50 real/sim %.3f > %.2f\n",
                    p50_ratio, kMaxP50Ratio);
        ok = false;
      }
      if (p50_ratio < kMinP50Ratio) {
        std::printf("sim-vs-real: latency_p50 real/sim %.3f < %.2f\n",
                    p50_ratio, kMinP50Ratio);
        ok = false;
      }
    }
  }

  std::printf("samya_real: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
