#ifndef SAMYA_COMMON_FLAT_MAP64_H_
#define SAMYA_COMMON_FLAT_MAP64_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace samya {

/// \brief Open-addressing table keyed by non-zero `uint64_t`, used both as
/// a map (`FlatMap64<V>`) and as a set (`FlatSet64`).
///
/// Replaces `std::unordered_map`/`unordered_set` where insert/erase sit on a
/// per-request path: the client's outstanding requests, the app manager's
/// relays, a site's pending reads, `sim::Node`'s armed timers. Entries live
/// inline in one flat power-of-two array probed linearly, so an insert or
/// erase allocates nothing once the table has grown to its working size.
/// Deletion uses backward shift (no tombstones), so lookups stay one short
/// scan. Keys are scattered with a splitmix64 finaliser, which spreads the
/// sequential ids these tables hold.
///
/// Key 0 marks empty slots and is reserved: it is never stored.
/// `insert(0)`/`try_emplace(0)` insert nothing, `find(0)` finds nothing and
/// `erase(0)` erases nothing, so callers like `Node::CancelTimer` may pass 0
/// for a never-armed timer id.
///
/// A value pointer from `find`/`try_emplace` stays valid until the next
/// insert or erase: either may move entries.
template <typename V>
class FlatMap64 {
 public:
  FlatMap64() = default;

  V* find(uint64_t key) {
    const size_t i = IndexOf(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }
  const V* find(uint64_t key) const {
    const size_t i = IndexOf(key);
    return i == kNone ? nullptr : &slots_[i].value;
  }

  bool contains(uint64_t key) const { return IndexOf(key) != kNone; }

  /// Inserts `key` with a value-initialised `V` unless it is present.
  /// Returns the entry's value and whether it was inserted; for key 0,
  /// `{nullptr, false}`.
  std::pair<V*, bool> try_emplace(uint64_t key) {
    if (key == 0) return {nullptr, false};
    if (slots_.empty() || size_ * 4 >= slots_.size() * 3) Grow();
    size_t i = Home(key);
    while (slots_[i].key != 0) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Returns true if the key was inserted (false if already present or 0).
  bool insert(uint64_t key) { return try_emplace(key).second; }

  /// Returns the number of entries removed (0 or 1).
  size_t erase(uint64_t key) {
    const size_t i = IndexOf(key);
    if (i == kNone) return 0;
    // Backward-shift deletion: close the hole so probe chains stay intact.
    size_t hole = i;
    size_t j = (i + 1) & mask_;
    while (slots_[j].key != 0) {
      const size_t home = Home(slots_[j].key);
      // Move slots_[j] into the hole iff the hole lies on its probe path.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole] = Slot{};
    --size_;
    return 1;
  }

  /// Empties the table; its capacity stays.
  void clear() {
    for (Slot& s : slots_) s = Slot{};
    size_ = 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kNone = ~size_t{0};

  struct Slot {
    uint64_t key = 0;
    [[no_unique_address]] V value{};
  };

  static uint64_t Mix(uint64_t x) {
    // splitmix64 finaliser: sequential ids scatter across the table.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  size_t Home(uint64_t key) const { return Mix(key) & mask_; }

  size_t IndexOf(uint64_t key) const {
    if (key == 0 || size_ == 0) return kNone;
    size_t i = Home(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == 0) return kNone;
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Grow() {
    const size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (Slot& s : old) {
      if (s.key == 0) continue;
      size_t i = Home(s.key);
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

namespace flat_map_internal {
struct NoValue {};
}  // namespace flat_map_internal

/// The same table holding keys only: `sizeof` a slot is the key's 8 bytes.
using FlatSet64 = FlatMap64<flat_map_internal::NoValue>;

}  // namespace samya

#endif  // SAMYA_COMMON_FLAT_MAP64_H_
