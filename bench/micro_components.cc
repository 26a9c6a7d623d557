// Component micro-benchmarks (google-benchmark): the hot paths under every
// experiment — codec, CRC, RNG, histogram, event loop, flight recorder,
// the at-most-once window, Algorithm 2, message round trips, WAL appends,
// predictor inference, and trace and script generation.

#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/dedup_window.h"
#include "common/histogram.h"
#include "common/random.h"
#include "core/messages.h"
#include "core/reallocator.h"
#include "obs/flight_recorder.h"
#include "predict/lstm.h"
#include "sim/environment.h"
#include "storage/wal.h"
#include "workload/azure_generator.h"
#include "workload/request_stream.h"
#include "workload/transform.h"

namespace samya {
namespace {

void BM_CodecVarintRoundTrip(benchmark::State& state) {
  Rng rng(1);
  std::vector<int64_t> values(256);
  for (auto& v : values) v = static_cast<int64_t>(rng.Next());
  for (auto _ : state) {
    BufferWriter w;
    for (int64_t v : values) w.PutVarintSigned(v);
    BufferReader r(w.buffer());
    int64_t acc = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      acc += r.GetVarintSigned().value();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_CodecVarintRoundTrip);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_RngNext(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(9);
  for (auto _ : state) {
    h.Record(static_cast<int64_t>(rng.NextUint64(1000000)));
  }
  benchmark::DoNotOptimize(h.P99());
}
BENCHMARK(BM_HistogramRecord);

void BM_SimEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimEnvironment env(1);
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      env.Schedule(i, [&fired] { ++fired; });
    }
    env.RunUntilIdle();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimEventLoop);

/// One `FlightRecorder::Record` of a message send, as the network's send
/// path makes it. The bounded ring is pre-filled four times over, so every
/// timed record overwrites; the unbounded one appends (and regrows). Both
/// run a fixed count, which caps the unbounded case at ~40 MiB of events.
void BM_FlightRecorderRecord(benchmark::State& state, size_t capacity) {
  obs::FlightRecorder flight(capacity);
  SimTime at = 0;
  if (capacity != obs::FlightRecorder::kUnbounded) {
    for (size_t i = 0; i < 4 * capacity; ++i) {
      flight.Record(++at, static_cast<int32_t>(i % 5),
                    obs::FlightKind::kMsgSend, obs::kSendOk, 3, 1, 48);
    }
  }
  int32_t site = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flight.Record(
        ++at, site, obs::FlightKind::kMsgSend, obs::kSendOk, 3, 1, 48));
    site = site == 4 ? 0 : site + 1;
  }
  benchmark::DoNotOptimize(flight.total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_FlightRecorderRecord, ring,
                  obs::FlightRecorder::kDefaultCapacity)
    ->Iterations(1 << 20);
BENCHMARK_CAPTURE(BM_FlightRecorderRecord, unbounded,
                  obs::FlightRecorder::kUnbounded)
    ->Iterations(1 << 20);

size_t HeapInUse() {
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;  // brk heap + mmapped chunks
}

/// One site write as the request handler makes it: a lookup of the request
/// id (the retry check) and a remember of its value. Ids rise with holes, as
/// a site sees its clients' writes among their reads and rejections, and the
/// run spans several generation rolls. `bytes_per_entry` is the heap one
/// full generation holds, per id.
void BM_DedupWindow(benchmark::State& state) {
  const size_t heap_before = HeapInUse();
  auto window = std::make_unique<DedupWindow>();
  for (uint64_t id = 1; id <= DedupWindow::kGenerationSize; ++id) {
    window->Remember(id, 0);
  }
  const size_t heap_full = HeapInUse();
  Rng rng(17);
  uint64_t id = DedupWindow::kGenerationSize;
  int64_t hits = 0;
  for (auto _ : state) {
    id += 1 + rng.NextUint64(4);
    hits += window->Lookup(id) != nullptr;
    window->Remember(id, static_cast<int64_t>(id));
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
  state.counters["bytes_per_entry"] =
      static_cast<double>(heap_full - heap_before) /
      DedupWindow::kGenerationSize;
}
BENCHMARK(BM_DedupWindow);

void BM_Algorithm2Reallocate(benchmark::State& state) {
  core::GreedyReallocator realloc;
  core::StateList list;
  Rng rng(11);
  for (int i = 0; i < state.range(0); ++i) {
    list.entries.push_back(core::EntityState{
        static_cast<rt::NodeId>(i), rng.UniformInt(0, 1000),
        rng.UniformInt(0, 1500)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(realloc.Reallocate(list));
  }
}
BENCHMARK(BM_Algorithm2Reallocate)->Arg(5)->Arg(20)->Arg(100);

void BM_AvantanMessageRoundTrip(benchmark::State& state) {
  core::ElectionOkValue m;
  m.instance = 42;
  m.ballot = {7, 3};
  m.init_val = {3, 1000, 250};
  for (int i = 0; i < 5; ++i) {
    m.accept_val.entries.push_back(core::EntityState{i, 100 * i, 10 * i});
  }
  for (auto _ : state) {
    BufferWriter w;
    m.EncodeTo(w);
    BufferReader r(w.buffer());
    auto decoded = core::ElectionOkValue::DecodeFrom(r);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_AvantanMessageRoundTrip);

void BM_LstmInference(benchmark::State& state) {
  predict::LstmOptions opts;
  opts.window = 32;
  opts.hidden = 24;
  opts.epochs = 1;
  opts.stride = 8;
  predict::LstmPredictor lstm(opts);
  std::vector<double> series(512);
  Rng rng(13);
  for (auto& v : series) v = rng.Uniform(0, 100);
  (void)lstm.Train(series);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.PredictNext());
  }
}
BENCHMARK(BM_LstmInference);

void BM_AzureTraceGeneration(benchmark::State& state) {
  workload::AzureTraceOptions opts;
  opts.days = 7;
  for (auto _ : state) {
    auto trace = workload::GenerateAzureTrace(opts);
    benchmark::DoNotOptimize(trace.TotalCreations());
  }
}
BENCHMARK(BM_AzureTraceGeneration);

/// One region's client script for a 30-min fig3b run (§5.1.2: the Azure
/// trace compressed 60x, one request per creation or deletion).
void BM_GenerateRequests(benchmark::State& state) {
  const auto trace =
      workload::CompressTime(workload::GenerateAzureTrace({}), 60);
  workload::RequestStreamOptions opts;
  opts.horizon = 30 * kMinute;
  opts.seed = 49;
  size_t requests = 0;
  for (auto _ : state) {
    auto script = workload::GenerateRequests(trace, opts);
    requests = script.size();
    benchmark::DoNotOptimize(script.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests));
}
BENCHMARK(BM_GenerateRequests)->Unit(benchmark::kMillisecond);

/// One storage write as `FileStableStorage` makes it, a 48-byte record
/// appended and flushed to the OS, and optionally also made durable with
/// `fdatasync`. The log is a temp file in the build directory.
void BM_WalAppend(benchmark::State& state, bool datasync) {
  const std::string path =
      std::string(SAMYA_BENCH_SCRATCH_DIR) + "/micro_components_wal.log";
  std::remove(path.c_str());
  auto wal = storage::WriteAheadLog::Open(path);
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (!wal.ok() || fd < 0) {
    state.SkipWithError("cannot open the WAL temp file");
    if (fd >= 0) ::close(fd);
    return;
  }
  const std::vector<uint8_t> record(48, 0xab);
  for (auto _ : state) {
    if (!(*wal)->Append(record).ok() || !(*wal)->Sync().ok() ||
        (datasync && ::fdatasync(fd) != 0)) {
      state.SkipWithError("WAL append failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  ::close(fd);
  wal->reset();
  std::remove(path.c_str());
}
BENCHMARK_CAPTURE(BM_WalAppend, flush, false)->UseRealTime();
BENCHMARK_CAPTURE(BM_WalAppend, fdatasync, true)->UseRealTime();

}  // namespace
}  // namespace samya

BENCHMARK_MAIN();
