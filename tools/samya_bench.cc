// samya_bench — command-line experiment runner.
//
// Runs any of the repository's systems under the standard geo-distributed
// workload with user-chosen parameters and prints a measurement summary.
//
// Usage:
//   samya_bench [--system NAME] [--minutes N] [--sites N] [--max-tokens N]
//               [--read-ratio F] [--seed N] [--closed-loop] [--csv]
//
// Systems: samya-majority (default), samya-any, multipaxsys, cockroach,
//          demarcation, no-constraint, no-redistribution,
//          samya-majority-nopredict, samya-any-nopredict
//
// Examples:
//   samya_bench --system samya-any --minutes 10
//   samya_bench --system multipaxsys --minutes 5 --read-ratio 0.5
//   samya_bench --system samya-majority --sites 20 --max-tokens 20000 --csv

#include <cstdio>
#include <cstring>
#include <string>

#include "flag_parse.h"
#include "harness/experiment.h"

using namespace samya;           // NOLINT — tool code
using namespace samya::harness;  // NOLINT

namespace {

struct NamedSystem {
  const char* flag;
  SystemKind kind;
};

constexpr NamedSystem kSystems[] = {
    {"samya-majority", SystemKind::kSamyaMajority},
    {"samya-any", SystemKind::kSamyaAny},
    {"multipaxsys", SystemKind::kMultiPaxSys},
    {"cockroach", SystemKind::kCockroachLike},
    {"demarcation", SystemKind::kDemarcation},
    {"no-constraint", SystemKind::kSamyaNoConstraint},
    {"no-redistribution", SystemKind::kSamyaNoRedistribution},
    {"samya-majority-nopredict", SystemKind::kSamyaMajorityNoPredict},
    {"samya-any-nopredict", SystemKind::kSamyaAnyNoPredict},
};

void Usage() {
  std::fprintf(stderr,
               "usage: samya_bench [--system NAME] [--minutes N] [--sites N]\n"
               "                   [--max-tokens N] [--read-ratio F] [--seed N]\n"
               "                   [--closed-loop] [--csv]\nsystems:");
  for (const auto& s : kSystems) std::fprintf(stderr, " %s", s.flag);
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  ExperimentOptions opts;
  int minutes = 10;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) tools::UsageExit(Usage);
      return argv[++i];
    };
    if (arg == "--system") {
      const std::string name = next();
      bool found = false;
      for (const auto& s : kSystems) {
        if (name == s.flag) {
          opts.system = s.kind;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown system '%s'\n", name.c_str());
        Usage();
        return 2;
      }
    } else if (arg == "--minutes") {
      minutes = static_cast<int>(tools::ParseInt(next(), 1, 12 * 60, Usage));
    } else if (arg == "--sites") {
      opts.num_sites =
          static_cast<int>(tools::ParseInt(next(), 1, 1024, Usage));
      opts.scale_load_with_sites = opts.num_sites != 5;
    } else if (arg == "--max-tokens") {
      opts.max_tokens = tools::ParseInt(next(), 1, tools::kInt64Max, Usage);
    } else if (arg == "--read-ratio") {
      opts.read_ratio = tools::ParseReal(next(), 0.0, 1.0, Usage);
    } else if (arg == "--seed") {
      opts.seed = static_cast<uint64_t>(
          tools::ParseInt(next(), 0, tools::kInt64Max, Usage));
    } else if (arg == "--closed-loop") {
      opts.closed_loop = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  opts.duration = Minutes(minutes);

  Experiment experiment(opts);
  experiment.Setup();
  auto r = experiment.Run();

  if (csv) {
    std::printf(
        "system,minutes,sites,max_tokens,read_ratio,seed,committed,rejected,"
        "dropped,tps,p50_ms,p90_ms,p99_ms,redistributions,aborted\n");
    std::printf("%s,%d,%d,%lld,%.2f,%llu,%llu,%llu,%llu,%.2f,%.3f,%.3f,%.3f,"
                "%llu,%llu\n",
                SystemName(opts.system), minutes, opts.num_sites,
                static_cast<long long>(opts.max_tokens), opts.read_ratio,
                static_cast<unsigned long long>(opts.seed),
                static_cast<unsigned long long>(r.aggregate.TotalCommitted()),
                static_cast<unsigned long long>(r.aggregate.rejected),
                static_cast<unsigned long long>(r.aggregate.dropped),
                r.MeanTps(opts.duration), r.aggregate.latency.P50() / 1000.0,
                r.aggregate.latency.P90() / 1000.0,
                r.aggregate.latency.P99() / 1000.0,
                static_cast<unsigned long long>(r.proactive_redistributions +
                                                r.reactive_redistributions),
                static_cast<unsigned long long>(r.instances_aborted));
    return 0;
  }

  std::printf("system      : %s\n", SystemName(opts.system));
  std::printf("workload    : %d min, %d sites, M_e=%lld, read ratio %.0f%%, "
              "%s clients, seed %llu\n",
              minutes, opts.num_sites,
              static_cast<long long>(opts.max_tokens), opts.read_ratio * 100,
              opts.closed_loop ? "closed-loop" : "trace-driven",
              static_cast<unsigned long long>(opts.seed));
  std::printf("committed   : %llu (%.1f tps)   rejected %llu, dropped %llu\n",
              static_cast<unsigned long long>(r.aggregate.TotalCommitted()),
              r.MeanTps(opts.duration),
              static_cast<unsigned long long>(r.aggregate.rejected),
              static_cast<unsigned long long>(r.aggregate.dropped));
  std::printf("latency     : p50 %.2f ms, p90 %.2f ms, p99 %.2f ms\n",
              r.aggregate.latency.P50() / 1000.0,
              r.aggregate.latency.P90() / 1000.0,
              r.aggregate.latency.P99() / 1000.0);
  if (IsSamyaVariant(opts.system)) {
    std::printf("avantan     : %llu proactive + %llu reactive instances, "
                "%llu aborted, %s total frozen\n",
                static_cast<unsigned long long>(r.proactive_redistributions),
                static_cast<unsigned long long>(r.reactive_redistributions),
                static_cast<unsigned long long>(r.instances_aborted),
                FormatDuration(r.total_site_frozen_time).c_str());
    std::printf("audit (Eq.1): %lld pooled + %lld held = %lld (M_e %lld)\n",
                static_cast<long long>(experiment.TotalSiteTokens()),
                static_cast<long long>(experiment.ServerNetAcquires()),
                static_cast<long long>(experiment.TotalSiteTokens() +
                                       experiment.ServerNetAcquires()),
                static_cast<long long>(opts.max_tokens));
  }
  std::printf("simulation  : %llu events, %llu messages (%llu dropped)\n",
              static_cast<unsigned long long>(r.events_executed),
              static_cast<unsigned long long>(r.network.messages_sent),
              static_cast<unsigned long long>(
                  r.network.messages_dropped_loss +
                  r.network.messages_dropped_partition +
                  r.network.messages_dropped_crashed));
  return 0;
}
