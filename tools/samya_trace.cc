// samya_trace — generates the synthetic Azure-like VM demand trace as CSV
// (for plotting, or for feeding external prediction tooling).
//
// Usage:
//   samya_trace [--days N] [--seed N] [--compress N] [--phase-shift-region R]
//               [--stats-only]

#include <cstdio>
#include <cstring>
#include <string>

#include "flag_parse.h"
#include "workload/azure_generator.h"
#include "workload/transform.h"

using namespace samya;            // NOLINT — tool code
using namespace samya::workload;  // NOLINT

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: samya_trace [--days N] [--seed N] [--compress N] "
               "[--phase-shift-region R] [--stats-only]\n");
}

}  // namespace

int main(int argc, char** argv) {
  AzureTraceOptions opts;
  int64_t compress = 1;
  int region = 0;
  bool stats_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) tools::UsageExit(Usage);
      return argv[++i];
    };
    if (arg == "--days") {
      opts.days =
          static_cast<int>(tools::ParseInt(next(), 1, tools::kIntMax, Usage));
    } else if (arg == "--seed") {
      opts.seed = static_cast<uint64_t>(
          tools::ParseInt(next(), 0, tools::kInt64Max, Usage));
    } else if (arg == "--compress") {
      compress = tools::ParseInt(next(), 1, tools::kInt64Max, Usage);
    } else if (arg == "--phase-shift-region") {
      region = static_cast<int>(tools::ParseInt(next(), 0, 4, Usage));
    } else if (arg == "--stats-only") {
      stats_only = true;
    } else {
      Usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  auto trace = GenerateAzureTrace(opts);
  if (compress > 1) trace = CompressTime(trace, compress);
  if (region != 0) {
    const Duration day = trace.interval() * 288;
    trace = PhaseShift(trace, day * region / 5);
  }

  if (stats_only) {
    std::printf("intervals=%zu interval=%s total=%s\n", trace.size(),
                FormatDuration(trace.interval()).c_str(),
                FormatDuration(trace.TotalDuration()).c_str());
    std::printf("mean_demand=%.2f max_demand=%lld\n", trace.MeanDemand(),
                static_cast<long long>(trace.MaxDemand()));
    std::printf("total_creations=%lld total_deletions=%lld\n",
                static_cast<long long>(trace.TotalCreations()),
                static_cast<long long>(trace.TotalDeletions()));
    return 0;
  }
  std::fputs(trace.ToCsv().c_str(), stdout);
  return 0;
}
