#ifndef SAMYA_COMMON_DEDUP_WINDOW_H_
#define SAMYA_COMMON_DEDUP_WINDOW_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
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
/// give (DESIGN.md §6 says why not open addressing). The log and its links
/// live in 80 KiB blocks of 4096 entries, allocated as the generation first
/// fills and reused after every roll and `Clear`: once a generation has
/// been full, no write allocates, and no block is reserved before it is
/// written (DESIGN.md §6 item 8 says why not one reserved array).
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
    uint32_t size() const { return size_; }

    const int64_t* Find(uint64_t id) const {
      if (heads_.empty()) return nullptr;
      for (uint32_t i = heads_[Bucket(id)]; i != kNil; i = Next(i)) {
        if (Log(i).id == id) return &Log(i).value;
      }
      return nullptr;
    }

    void Put(uint64_t id, int64_t value) {
      if (heads_.empty()) heads_.assign(kGenerationSize, kNil);
      uint32_t& head = heads_[Bucket(id)];
      for (uint32_t i = head; i != kNil; i = Next(i)) {
        if (Log(i).id == id) {
          Log(i).value = value;
          return;
        }
      }
      if (size_ >> kBlockBits == blocks_.size()) {
        blocks_.push_back(std::make_unique<Block>());
      }
      Block& block = *blocks_[size_ >> kBlockBits];
      block.log[size_ & kBlockMask] = {id, value};
      block.next[size_ & kBlockMask] = head;
      head = size_++;
    }

    void Reset() {
      size_ = 0;
      std::fill(heads_.begin(), heads_.end(), kNil);
    }

   private:
    static constexpr uint32_t kNil = UINT32_MAX;
    static constexpr unsigned kBlockBits = 12;
    static constexpr uint32_t kBlockMask = (1u << kBlockBits) - 1;
    static size_t Bucket(uint64_t id) { return id & (kGenerationSize - 1); }

    struct Entry {
      uint64_t id;
      int64_t value;
    };
    // 4096 entries and their next-links, 80 KiB: below glibc's 128 KiB
    // mmap threshold, so blocks come from the heap and their frees never
    // raise that threshold.
    struct Block {
      Entry log[1u << kBlockBits];
      uint32_t next[1u << kBlockBits];  // the entry after log[i] in its chain
    };

    Entry& Log(uint32_t i) const {
      return blocks_[i >> kBlockBits]->log[i & kBlockMask];
    }
    uint32_t Next(uint32_t i) const {
      return blocks_[i >> kBlockBits]->next[i & kBlockMask];
    }

    std::vector<std::unique_ptr<Block>> blocks_;  // entry i: block i >> 12
    uint32_t size_ = 0;
    std::vector<uint32_t> heads_;  // per bucket: its newest entry, or kNil
  };

  Generation cur_;
  Generation prev_;
};

}  // namespace samya

#endif  // SAMYA_COMMON_DEDUP_WINDOW_H_
