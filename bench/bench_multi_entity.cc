// Multi-entity scale-out bench (DESIGN.md §9, EXPERIMENTS.md). Emits
// BENCH_multientity.json with:
//   - sweep: E in {1, 10, 100, 1000} entities at 1,000 simulated users per
//     entity (so total users span 10^3..10^6), each point run with and
//     without app-manager batching: shard events/sec, p50/p99 acquire
//     latency, and network messages per client request;
//   - equivalence: the E=10 deployment run serially and sharded across the
//     worker pool, compared shard by shard on the full deterministic
//     snapshot (EntityShardResult::ToJson) — the parallel-runner contract;
//   - batching: a high fan-in deployment (40,000 users per entity) where
//     same-window coalescing visibly amortizes the app-manager -> site hop.
//
// "Simulated users" follows the paper's §5 framing: one entity's Azure
// trace at the default mean rate stands for ~1,000 tenants whose aggregate
// demand it is; `load_scale` maps user counts onto arrival rates (0.1
// creations per user per 5-minute interval). Clients are per-region
// aggregators of that demand, not one node per user.
//
// `--smoke` runs the CI shape: the E=10 equivalence check plus a trimmed
// sweep (E in {1, 10}) and batching comparison, same JSON schema.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/json.h"
#include "harness/multi_entity.h"
#include "harness/parallel_runner.h"

using namespace samya;           // NOLINT
using namespace samya::harness;  // NOLINT

namespace {

constexpr int kUsersPerEntity = 1000;
constexpr double kUsersPerLoadUnit = 1000.0;  ///< load_scale 1.0 == 1k users

double WallSeconds(std::chrono::steady_clock::time_point a,
                   std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

MultiEntityOptions BaseOptions(int entities, int users_per_entity) {
  MultiEntityOptions opts;
  opts.num_entities = entities;
  opts.sites_per_entity = 5;
  opts.tokens_per_entity = 5000;
  opts.duration = Minutes(2);
  opts.seed = 42;
  opts.trace.days = 1;
  opts.load_scale = static_cast<double>(users_per_entity) / kUsersPerLoadUnit;
  // Reactive-only sites: the sweep stresses deployment scale, not the
  // prediction module, and skipping per-site training keeps 1000-shard
  // setup affordable.
  opts.site_template.enable_prediction = false;
  return opts;
}

struct SweepPoint {
  int entities = 0;
  double wall_seconds = 0;
  MultiEntityResult unbatched;
  MultiEntityResult batched;
};

SweepPoint RunSweepPoint(int entities) {
  SweepPoint point;
  point.entities = entities;
  MultiEntityOptions opts = BaseOptions(entities, kUsersPerEntity);
  const auto t0 = std::chrono::steady_clock::now();
  point.unbatched = RunMultiEntity(opts);
  const auto t1 = std::chrono::steady_clock::now();
  opts.batch_requests = true;
  point.batched = RunMultiEntity(opts);
  point.wall_seconds = WallSeconds(t0, t1);

  std::printf(
      "E=%-5d users=%-8d %7.2fs wall  %10.0f events/s  acquire p50=%6.1fms "
      "p99=%7.1fms  msgs/req %.2f -> %.2f\n",
      entities, entities * kUsersPerEntity, point.wall_seconds,
      static_cast<double>(point.unbatched.events_executed) /
          point.wall_seconds,
      point.unbatched.aggregate.acquire_latency.P50() / 1000.0,
      point.unbatched.aggregate.acquire_latency.P99() / 1000.0,
      point.unbatched.MessagesPerRequest(), point.batched.MessagesPerRequest());
  return point;
}

JsonValue SweepPointJson(const SweepPoint& p) {
  JsonValue o = JsonValue::MakeObject();
  o.Set("entities", static_cast<int64_t>(p.entities));
  o.Set("total_users", static_cast<int64_t>(p.entities * kUsersPerEntity));
  o.Set("wall_seconds", p.wall_seconds);
  o.Set("events_executed", p.unbatched.events_executed);
  o.Set("events_per_sec",
        static_cast<double>(p.unbatched.events_executed) / p.wall_seconds);
  o.Set("committed_acquires", p.unbatched.aggregate.committed_acquires);
  o.Set("acquire_p50_ms",
        p.unbatched.aggregate.acquire_latency.P50() / 1000.0);
  o.Set("acquire_p99_ms",
        p.unbatched.aggregate.acquire_latency.P99() / 1000.0);
  JsonValue mpr = JsonValue::MakeObject();
  mpr.Set("unbatched", p.unbatched.MessagesPerRequest());
  mpr.Set("batched", p.batched.MessagesPerRequest());
  o.Set("messages_per_request", std::move(mpr));
  return o;
}

/// Serial vs sharded, compared shard by shard on the full snapshot.
bool CheckEquivalence(JsonValue* out) {
  MultiEntityOptions opts = BaseOptions(/*entities=*/10, kUsersPerEntity);
  opts.threads = 1;
  MultiEntityResult serial = RunMultiEntity(opts);
  opts.threads = 0;
  MultiEntityResult sharded = RunMultiEntity(opts);

  bool identical = serial.per_entity.size() == sharded.per_entity.size();
  for (size_t i = 0; identical && i < serial.per_entity.size(); ++i) {
    identical = JsonDump(serial.per_entity[i].ToJson()) ==
                JsonDump(sharded.per_entity[i].ToJson());
  }
  std::printf("equivalence (E=10): serial vs sharded on %d thread(s): %s\n",
              DefaultRunnerThreads(), identical ? "identical" : "MISMATCH");

  JsonValue o = JsonValue::MakeObject();
  o.Set("entities", static_cast<int64_t>(10));
  o.Set("threads", static_cast<int64_t>(DefaultRunnerThreads()));
  o.Set("identical", identical);
  o.Set("events_executed", serial.events_executed);
  *out = std::move(o);
  return identical;
}

/// High fan-in batching comparison: enough same-window arrivals per app
/// manager that coalescing visibly pays.
bool CheckBatching(int entities, int fan_in_users, JsonValue* out) {
  MultiEntityOptions opts = BaseOptions(entities, fan_in_users);
  MultiEntityResult unbatched = RunMultiEntity(opts);
  opts.batch_requests = true;
  opts.batch_window = Millis(5);
  MultiEntityResult batched = RunMultiEntity(opts);

  const double before = unbatched.MessagesPerRequest();
  const double after = batched.MessagesPerRequest();
  const double mean_batch =
      batched.batches_sent == 0
          ? 0.0
          : static_cast<double>(batched.batched_requests) /
                static_cast<double>(batched.batches_sent);
  const bool reduced = after < before;
  std::printf(
      "batching (E=%d, %d users/entity): %.2f -> %.2f msgs/request "
      "(-%.1f%%), mean batch %.1f\n",
      entities, fan_in_users, before, after,
      100.0 * (before - after) / before, mean_batch);

  JsonValue o = JsonValue::MakeObject();
  o.Set("entities", static_cast<int64_t>(entities));
  o.Set("users_per_entity", static_cast<int64_t>(fan_in_users));
  o.Set("messages_per_request_unbatched", before);
  o.Set("messages_per_request_batched", after);
  o.Set("reduction_pct", 100.0 * (before - after) / before);
  o.Set("mean_batch_size", mean_batch);
  o.Set("committed_acquires_unbatched",
        unbatched.aggregate.committed_acquires);
  o.Set("committed_acquires_batched", batched.aggregate.committed_acquires);
  *out = std::move(o);
  return reduced;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("bench_multi_entity — %s\n",
              smoke ? "multi-entity scale-out (smoke: E=10 equivalence)"
                    : "multi-entity scale-out: E x users sweep, sharding, "
                      "batching");

  JsonValue equivalence;
  const bool identical = CheckEquivalence(&equivalence);

  // Smoke keeps the CI budget: a two-entity fan-in still fills batch
  // windows, just with a tenth of the simulated traffic.
  JsonValue batching;
  const bool reduced = smoke ? CheckBatching(2, 20000, &batching)
                             : CheckBatching(10, 40000, &batching);

  JsonValue sweep = JsonValue::MakeArray();
  const std::vector<int> entity_counts =
      smoke ? std::vector<int>{1, 10} : std::vector<int>{1, 10, 100, 1000};
  for (int entities : entity_counts) {
    sweep.Append(SweepPointJson(RunSweepPoint(entities)));
  }

  JsonValue root = JsonValue::MakeObject();
  root.Set("mode", smoke ? "smoke" : "full");
  root.Set("users_per_entity", static_cast<int64_t>(kUsersPerEntity));
  root.Set("equivalence", std::move(equivalence));
  root.Set("batching", std::move(batching));
  root.Set("sweep", std::move(sweep));
  root.Set("hardware_threads",
           static_cast<int64_t>(DefaultRunnerThreads()));

  FILE* out = std::fopen("BENCH_multientity.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_multientity.json\n");
    return 1;
  }
  const std::string text = JsonDump(root, /*indent=*/2);
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("\nwrote BENCH_multientity.json (equivalence %s, batching %s)\n",
              identical ? "ok" : "FAILED", reduced ? "ok" : "FAILED");
  return (identical && reduced) ? 0 : 1;
}
