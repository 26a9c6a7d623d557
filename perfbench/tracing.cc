#include "tracing.h"

#include <atomic>
#include <chrono>
#include <cstdio>

#include "common/macros.h"

namespace perfbench {

namespace {

std::atomic<uint64_t> g_next_generation{1};

/// The lane this thread last recorded into, tagged with its recorder's
/// generation so a thread that outlives one recorder never writes into a
/// lane of a destroyed one.
struct LaneCache {
  uint64_t generation = 0;
  void* lane = nullptr;
};
thread_local LaneCache t_lane;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kStorage:
      return "storage";
    case Layer::kReallocate:
      return "core.reallocate";
    case Layer::kPredict:
      return "predict";
    case Layer::kTrain:
      return "predict.train";
    case Layer::kSite:
      return "rt.site";
    case Layer::kAppManager:
      return "rt.am";
    case Layer::kClient:
      return "rt.client";
    case Layer::kCount:
      break;
  }
  return "?";
}

SpanRecorder::SpanRecorder() : generation_(g_next_generation.fetch_add(1)) {}

SpanRecorder::~SpanRecorder() = default;

SpanRecorder::Lane* SpanRecorder::MyLane() {
  if (t_lane.generation == generation_) return static_cast<Lane*>(t_lane.lane);
  std::lock_guard<std::mutex> lk(lanes_mu_);
  lanes_.push_back(std::make_unique<Lane>());
  Lane* lane = lanes_.back().get();
  lane->lane_bits = static_cast<uint64_t>(lanes_.size()) << 48;
  t_lane.generation = generation_;
  t_lane.lane = lane;
  return lane;
}

void SpanRecorder::Begin(Layer layer, int32_t node, int32_t context) {
  Lane* lane = MyLane();
  if (context == kInheritContext) {
    if (!lane->stack.empty()) {
      context = lane->stack.back().context;
    } else {
      context = context_fn_ != nullptr ? context_fn_(context_arg_)
                                       : kTimerContext;
    }
  }
  lane->stack.push_back(
      Frame{lane->lane_bits | lane->next_id++, NowNs(), node, context, layer});
}

void SpanRecorder::End() {
  const int64_t end = NowNs();
  Lane* lane = MyLane();
  SAMYA_CHECK(!lane->stack.empty());
  const Frame f = lane->stack.back();
  lane->stack.pop_back();
  const uint64_t parent = lane->stack.empty() ? 0 : lane->stack.back().id;
  const bool avantan = f.context >= 200 && f.context <= 207;
  LayerTotals& t = lane->totals[static_cast<size_t>(f.layer)][avantan ? 1 : 0];
  t.count += 1;
  t.ns += end - f.start_ns;
  if (lane->spans.size() < kKeepPerLane) {
    lane->spans.push_back(
        Span{f.id, parent, f.start_ns, end, f.node, f.context, f.layer});
  }
}

LayerTotals SpanRecorder::Totals(Layer layer) const {
  LayerTotals sum;
  for (const auto& lane : lanes_) {
    for (const LayerTotals& t : lane->totals[static_cast<size_t>(layer)]) {
      sum.count += t.count;
      sum.ns += t.ns;
    }
  }
  return sum;
}

LayerTotals SpanRecorder::AvantanTotals(Layer layer) const {
  LayerTotals sum;
  for (const auto& lane : lanes_) {
    const LayerTotals& t = lane->totals[static_cast<size_t>(layer)][1];
    sum.count += t.count;
    sum.ns += t.ns;
  }
  return sum;
}

size_t SpanRecorder::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  size_t n = 0;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"layer\":\"%s\",\"node\":%d,"
                   "\"context\":%d,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   LayerName(s.layer), s.node, s.context,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

samya::Status TimedStorage::Put(const std::string& key,
                                const std::vector<uint8_t>& value) {
  ScopedSpan span(rec_, Layer::kStorage, node_);
  return inner_->Put(key, value);
}

samya::Status TimedStorage::Delete(const std::string& key) {
  ScopedSpan span(rec_, Layer::kStorage, node_);
  return inner_->Delete(key);
}

samya::Status TimedPredictor::Train(const std::vector<double>& series) {
  ScopedSpan span(rec_, Layer::kTrain, -1);
  return inner_->Train(series);
}

void TimedPredictor::Observe(double value) {
  ScopedSpan span(rec_, Layer::kPredict, -1);
  inner_->Observe(value);
}

double TimedPredictor::PredictNext() {
  ScopedSpan span(rec_, Layer::kPredict, -1);
  return inner_->PredictNext();
}

std::vector<samya::core::Allocation> TimedReallocator::Reallocate(
    const samya::core::StateList& list) const {
  ScopedSpan span(rec_, Layer::kReallocate, -1);
  return inner_->Reallocate(list);
}

void InstallSiteDecorators(samya::core::SiteOptions* opts, size_t period,
                           SpanRecorder* rec) {
  opts->predictor_factory = [period, rec] {
    return std::make_unique<TimedPredictor>(
        samya::predict::MakeSeasonalNaive(period), rec);
  };
  opts->reallocator = std::make_shared<TimedReallocator>(
      std::make_shared<samya::core::GreedyReallocator>(), rec);
}

}  // namespace perfbench
