// Span recording and the transparent timing decorators the traced runs
// install through the program's public extension points.
//
// Nothing here changes what the program computes: every decorator forwards
// each call unchanged to the wrapped object and only times it. The traced
// simulator run checks that claim by reproducing the untraced run's
// outcome counters exactly.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/reallocator.h"
#include "core/site.h"
#include "predict/predictor.h"
#include "storage/stable_storage.h"

namespace perfbench {

int64_t NowNs();

/// The layers the benchmark times from outside the program.
enum class Layer : uint8_t {
  kStorage,      ///< StableStorage::Put / Delete
  kReallocate,   ///< Reallocator::Reallocate (Algorithm 2)
  kPredict,      ///< DemandPredictor::Observe / PredictNext
  kTrain,        ///< DemandPredictor::Train
  kSite,         ///< core::Site handlers (real backend)
  kAppManager,   ///< core::AppManager handlers (real backend)
  kClient,       ///< benchmark client handlers (real backend)
  kCount,
};

const char* LayerName(Layer layer);

/// What the enclosing handler was working on when a span opened: the wire
/// type of the message being handled, or kTimerContext for timer callbacks
/// and everything else that is not a message delivery.
inline constexpr int32_t kTimerContext = -1;

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: no enclosing span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t node = -1;
  int32_t context = kTimerContext;
  Layer layer = Layer::kStorage;
};

struct LayerTotals {
  uint64_t count = 0;
  int64_t ns = 0;
};

/// \brief In-memory span recorder. Each thread records into its own lane
/// (the real backend runs one loop thread per node), so recording takes no
/// lock after a thread's first span. Spans past kKeepPerLane in a lane still
/// count in the totals but are not retained for the span file, which
/// carries parent ids so self times can be recomputed from it.
class SpanRecorder {
 public:
  static constexpr size_t kKeepPerLane = 5000;

  SpanRecorder();
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Simulator hook: reports the wire type of the message whose handler is
  /// running, or kTimerContext. Consulted for spans opened with no
  /// enclosing span. Null means kTimerContext.
  using ContextFn = int32_t (*)(const void* arg);
  void set_context_fn(ContextFn fn, const void* arg) {
    context_fn_ = fn;
    context_arg_ = arg;
  }

  void Begin(Layer layer, int32_t node, int32_t context = kInheritContext);
  void End();

  /// Totals summed over all lanes: all spans of `layer`, or only those opened
  /// under an Avantan message (types 200-207). Call once every recording
  /// thread is done.
  LayerTotals Totals(Layer layer) const;
  LayerTotals AvantanTotals(Layer layer) const;

  /// Writes retained spans as JSON lines; returns the number written.
  size_t WriteJsonLines(const std::string& path) const;

  static constexpr int32_t kInheritContext = INT32_MIN;

 private:
  struct Frame {
    uint64_t id;
    int64_t start_ns;
    int32_t node;
    int32_t context;
    Layer layer;
  };
  struct Lane {
    std::vector<Frame> stack;
    std::vector<Span> spans;
    /// [layer][0: any other context, 1: under an Avantan message]
    std::array<std::array<LayerTotals, 2>, static_cast<size_t>(Layer::kCount)>
        totals{};
    uint64_t next_id = 1;
    uint64_t lane_bits = 0;
  };

  Lane* MyLane();

  ContextFn context_fn_ = nullptr;
  const void* context_arg_ = nullptr;
  std::mutex lanes_mu_;  // guards lanes_ (registration only)
  std::vector<std::unique_ptr<Lane>> lanes_;
  uint64_t generation_;  // distinguishes recorders in the thread-local cache
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, Layer layer, int32_t node,
             int32_t context = SpanRecorder::kInheritContext)
      : rec_(rec) {
    rec_->Begin(layer, node, context);
  }
  ~ScopedSpan() { rec_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
};

// --- Decorators over the program's extension points ------------------------

/// Times writes; reads pass through untimed (sites read storage only at
/// start and recovery).
class TimedStorage : public samya::storage::StableStorage {
 public:
  TimedStorage(samya::storage::StableStorage* inner, SpanRecorder* rec,
               int32_t node)
      : inner_(inner), rec_(rec), node_(node) {}

  samya::Status Put(const std::string& key,
                    const std::vector<uint8_t>& value) override;
  samya::Result<std::vector<uint8_t>> Get(
      const std::string& key) const override {
    return inner_->Get(key);
  }
  samya::Status Delete(const std::string& key) override;
  std::vector<std::string> Keys() const override { return inner_->Keys(); }

 private:
  samya::storage::StableStorage* inner_;
  SpanRecorder* rec_;
  int32_t node_;
};

class TimedPredictor : public samya::predict::DemandPredictor {
 public:
  TimedPredictor(std::unique_ptr<samya::predict::DemandPredictor> inner,
                 SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  samya::Status Train(const std::vector<double>& series) override;
  void Observe(double value) override;
  double PredictNext() override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<samya::predict::DemandPredictor> inner_;
  SpanRecorder* rec_;
};

class TimedReallocator : public samya::core::Reallocator {
 public:
  TimedReallocator(std::shared_ptr<samya::core::Reallocator> inner,
                   SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  std::vector<samya::core::Allocation> Reallocate(
      const samya::core::StateList& list) const override;

 private:
  std::shared_ptr<samya::core::Reallocator> inner_;
  SpanRecorder* rec_;
};

/// Installs the predictor and reallocator decorators into a site template:
/// the default seasonal-naive predictor over `period` epochs and the
/// default greedy reallocator, each wrapped.
void InstallSiteDecorators(samya::core::SiteOptions* opts, size_t period,
                           SpanRecorder* rec);

/// Wraps a node's handlers in spans of `layer` (real backend). The wire type
/// of a handled message becomes the span context, so nested decorator spans
/// are attributed to the request path, Avantan, or reads.
template <typename T, Layer kLayer>
class Timed : public T {
 public:
  template <typename... Args>
  Timed(samya::rt::NodeId id, samya::rt::Region region, SpanRecorder* rec,
        Args&&... args)
      : T(id, region, std::forward<Args>(args)...), rec_(rec) {}

  void HandleMessage(samya::rt::NodeId from, uint32_t type,
                     samya::BufferReader& r) override {
    ScopedSpan span(rec_, kLayer, this->id(), static_cast<int32_t>(type));
    T::HandleMessage(from, type, r);
  }
  void HandleTimer(uint64_t token) override {
    ScopedSpan span(rec_, kLayer, this->id(), kTimerContext);
    T::HandleTimer(token);
  }

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
