#ifndef SAMYA_COMMON_DEDUP_WINDOW_H_
#define SAMYA_COMMON_DEDUP_WINDOW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace samya {

/// \brief At-most-once window: the value each recently committed write was
/// answered with, keyed by request id, so that a client or app-manager retry
/// of an applied request is answered from here instead of applied twice.
///
/// Two generations bound it. When the current one holds `kGenerationSize`
/// ids, the next `Remember` drops the previous generation and starts a fresh
/// one, so the last `kGenerationSize` to `2 * kGenerationSize` ids are kept.
/// Retries arrive within seconds, far inside that.
///
/// A generation is a chained hash table stored flat: an append log of
/// `(id, value)`, a parallel next-link, and `kGenerationSize` bucket heads
/// picked by the id's low bits, which keeps the locality that sequential ids
/// give (DESIGN.md §6 says why not open addressing). Its storage is reserved
/// at its first `Remember` and reused after every roll and `Clear`, so no
/// later write allocates, and the log's pages are touched only as it fills.
class DedupWindow {
 public:
  static constexpr uint32_t kGenerationSize = 1u << 17;

  /// Records `value` for `id` in the current generation, overwriting an
  /// earlier value there; a copy in the previous generation is left alone.
  void Remember(uint64_t id, int64_t value) {
    if (cur_.size() >= kGenerationSize) {
      std::swap(cur_, prev_);
      cur_.Reset();
    }
    cur_.Put(id, value);
  }

  /// The value remembered for `id`, current generation first, or nullptr.
  /// The pointer is valid until the next `Remember` or `Clear`.
  const int64_t* Lookup(uint64_t id) const {
    if (const int64_t* v = cur_.Find(id)) return v;
    return prev_.Find(id);
  }

  /// Forgets every id: the window is volatile, so a crash loses it.
  void Clear() {
    cur_.Reset();
    prev_.Reset();
  }

 private:
  class Generation {
   public:
    uint32_t size() const { return static_cast<uint32_t>(log_.size()); }

    const int64_t* Find(uint64_t id) const {
      if (heads_.empty()) return nullptr;
      for (uint32_t i = heads_[Bucket(id)]; i != kNil; i = next_[i]) {
        if (log_[i].id == id) return &log_[i].value;
      }
      return nullptr;
    }

    void Put(uint64_t id, int64_t value) {
      if (heads_.empty()) {
        log_.reserve(kGenerationSize);
        next_.reserve(kGenerationSize);
        heads_.assign(kGenerationSize, kNil);
      }
      uint32_t& head = heads_[Bucket(id)];
      for (uint32_t i = head; i != kNil; i = next_[i]) {
        if (log_[i].id == id) {
          log_[i].value = value;
          return;
        }
      }
      next_.push_back(head);
      head = size();
      log_.push_back({id, value});
    }

    void Reset() {
      log_.clear();
      next_.clear();
      std::fill(heads_.begin(), heads_.end(), kNil);
    }

   private:
    static constexpr uint32_t kNil = UINT32_MAX;
    static size_t Bucket(uint64_t id) { return id & (kGenerationSize - 1); }

    struct Entry {
      uint64_t id;
      int64_t value;
    };
    std::vector<Entry> log_;
    std::vector<uint32_t> next_;   // next_[i]: the entry after log_[i] in its chain
    std::vector<uint32_t> heads_;  // per bucket: its newest entry, or kNil
  };

  Generation cur_;
  Generation prev_;
};

}  // namespace samya

#endif  // SAMYA_COMMON_DEDUP_WINDOW_H_
