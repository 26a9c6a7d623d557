// Conservative-window PDES scaling bench (DESIGN.md §11). Runs the
// canonical Fig 3b configuration (Samya Avantan[(n+1)/2], 20 simulated
// minutes) serially and then on 2/4/8 PDES workers, asserts every parallel
// run is bit-identical to the serial one, and emits BENCH_pdes.json with
// the wall-clock scaling table.
//
// Exit status reflects *correctness only* (digest identity): speedup is
// reported, not gated, because CI machines may expose fewer cores than the
// worker counts swept here. --smoke shortens the run for CI.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>

#include "bench_util.h"

using namespace samya;          // NOLINT
using namespace samya::bench;   // NOLINT
using namespace samya::harness; // NOLINT

namespace {

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

ExperimentOptions CanonicalOptions(bool smoke, int workers) {
  ExperimentOptions opts;  // Fig 3b defaults: Samya Av[(n+1)/2], 5 sites
  opts.system = SystemKind::kSamyaMajority;
  opts.duration = smoke ? Minutes(2) : Minutes(20);
  opts.pdes_workers = workers;
  return opts;
}

/// Everything a run can disagree on, cheap enough to compare exactly.
using Digest = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
                          uint64_t, uint64_t, double>;

Digest DigestOf(const ExperimentResult& r) {
  return {r.events_executed,
          r.aggregate.committed_acquires,
          r.aggregate.committed_releases,
          r.aggregate.rejected,
          r.network.messages_sent,
          r.network.messages_delivered,
          r.network.bytes_sent,
          r.aggregate.latency.P99()};
}

struct Row {
  int workers = 1;
  double wall = 0;
  double events_per_sec = 0;
  bool pdes_active = false;
  std::string fallback;
  Digest digest;
  /// Runtime attribution of the best rep (DESIGN.md §8): where the wall
  /// clock went — barriers vs parallel phases — and how busy each worker
  /// and partition actually was.
  sim::PdesRunStats stats;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  Banner("bench_pdes", "conservative-window PDES scaling vs the serial loop");
  if (smoke) std::printf("[--smoke: 2 simulated minutes]\n");

  std::vector<Row> rows;
  const int reps = smoke ? 1 : 3;
  for (int workers : {1, 2, 4, 8}) {
    Row row;
    row.workers = workers;
    double best_wall = 1e18;
    for (int rep = 0; rep < reps; ++rep) {
      Experiment experiment(CanonicalOptions(smoke, workers));
      experiment.Setup();
      const auto t0 = std::chrono::steady_clock::now();
      auto r = experiment.Run();
      const auto t1 = std::chrono::steady_clock::now();
      const double wall = Seconds(t0, t1);
      if (wall < best_wall) {
        best_wall = wall;
        row.events_per_sec = static_cast<double>(r.events_executed) / wall;
        if (experiment.pdes_active()) {
          row.stats = experiment.cluster().pdes()->run_stats();
        }
      }
      row.pdes_active = experiment.pdes_active();
      row.fallback = experiment.pdes_fallback_reason();
      row.digest = DigestOf(r);
    }
    row.wall = best_wall;
    std::printf("workers=%d: %.3fs wall, %.0f events/sec%s%s\n", workers,
                row.wall, row.events_per_sec,
                row.pdes_active ? " [pdes]" : " [serial: ",
                row.pdes_active ? "" : (row.fallback + "]").c_str());
    if (row.pdes_active && row.stats.phase_wall_ns > 0) {
      // Where the flat part of the curve comes from: the barrier share of
      // wall time and the mean worker utilization inside parallel phases.
      double busy_ns = 0;
      for (const auto& w : row.stats.workers) {
        busy_ns += static_cast<double>(w.busy_ns);
      }
      const double util =
          busy_ns / (static_cast<double>(row.stats.phase_wall_ns) *
                     static_cast<double>(row.stats.workers.size()));
      std::printf("  attribution: %llu barriers (%.3fs stall), "
                  "worker utilization %.0f%%\n",
                  static_cast<unsigned long long>(row.stats.barriers),
                  static_cast<double>(row.stats.barrier_ns) / 1e9,
                  100.0 * util);
    }
    rows.push_back(row);
  }

  bool identical = true;
  for (const Row& row : rows) {
    if (row.digest != rows[0].digest) {
      std::printf("MISMATCH: workers=%d differs from the serial run\n",
                  row.workers);
      identical = false;
    }
  }
  const double serial_wall = rows[0].wall;
  std::printf("\nscaling (vs workers=1):");
  for (const Row& row : rows) {
    std::printf("  %dw=%.2fx", row.workers, serial_wall / row.wall);
  }
  std::printf("   results %s\n", identical ? "identical" : "MISMATCH");

  FILE* out = std::fopen("BENCH_pdes.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_pdes.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"config\": \"fig3b samya_majority %s\",\n",
               smoke ? "2min (smoke)" : "20min");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"hardware_threads\": %d,\n", DefaultRunnerThreads());
  std::fprintf(out, "  \"results_identical\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(out, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out, "    {\"workers\": %d, \"wall_seconds\": %.4f, "
                 "\"events_per_sec\": %.0f, \"speedup_vs_serial\": %.3f, "
                 "\"pdes_active\": %s",
                 row.workers, row.wall, row.events_per_sec,
                 serial_wall / row.wall, row.pdes_active ? "true" : "false");
    if (row.pdes_active) {
      // Runtime attribution of the best rep: barrier stalls and per-worker/
      // per-partition busy time, so a flat speedup point explains itself.
      const sim::PdesRunStats& st = row.stats;
      std::fprintf(out, ",\n     \"phases\": %llu, \"barriers\": %llu, "
                   "\"barrier_seconds\": %.4f, \"phase_seconds\": %.4f",
                   static_cast<unsigned long long>(st.phases),
                   static_cast<unsigned long long>(st.barriers),
                   static_cast<double>(st.barrier_ns) / 1e9,
                   static_cast<double>(st.phase_wall_ns) / 1e9);
      std::fprintf(out, ",\n     \"worker_utilization\": [");
      for (size_t w = 0; w < st.workers.size(); ++w) {
        const double util =
            st.phase_wall_ns > 0
                ? static_cast<double>(st.workers[w].busy_ns) /
                      static_cast<double>(st.phase_wall_ns)
                : 0.0;
        std::fprintf(out, "%s%.3f", w == 0 ? "" : ", ", util);
      }
      std::fprintf(out, "],\n     \"workers_detail\": [");
      for (size_t w = 0; w < st.workers.size(); ++w) {
        std::fprintf(out, "%s{\"claims\": %llu, \"busy_seconds\": %.4f}",
                     w == 0 ? "" : ", ",
                     static_cast<unsigned long long>(st.workers[w].claims),
                     static_cast<double>(st.workers[w].busy_ns) / 1e9);
      }
      std::fprintf(out, "],\n     \"partitions\": [");
      for (size_t p = 0; p < st.partitions.size(); ++p) {
        const sim::PdesPartitionStats& ps = st.partitions[p];
        std::fprintf(out,
                     "%s{\"claims\": %llu, \"windows\": %llu, "
                     "\"mailbox_events\": %llu, \"max_mailbox_batch\": %llu, "
                     "\"busy_seconds\": %.4f}",
                     p == 0 ? "" : ", ",
                     static_cast<unsigned long long>(ps.claims),
                     static_cast<unsigned long long>(ps.windows),
                     static_cast<unsigned long long>(ps.mailbox_events),
                     static_cast<unsigned long long>(ps.max_mailbox_batch),
                     static_cast<double>(ps.busy_ns) / 1e9);
      }
      std::fprintf(out, "]");
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_pdes.json\n");
  return identical ? 0 : 1;
}
