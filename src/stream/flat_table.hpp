// FlatTable — the open-addressing hash table behind the stream state
// machine (jobs, running tasks, per-host running counts).
//
// One power-of-two array of slots, linear probing, backward-shift
// erase (no tombstones), and no allocation per entry: the array only
// grows, by doubling, when the load would pass three quarters. The stream's
// keys are job ids, machine ids and (job id, task index) pairs, looked
// up once per event; a node-based std::unordered_map pays an
// allocation per insert and a pointer chase per lookup for the same
// work.
//
// Iteration order is the slot order — a function of the hash and the
// insertion history, never of addresses — so it is deterministic, but
// callers that let it reach output must be order-insensitive (the host
// walk only feeds an integer-count sketch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace cgc::stream {

/// Hash of an integer key: the splitmix64 finalizer, so every input
/// bit reaches the low bits the table masks with.
struct IntKeyHash {
  /// Mixed 64-bit hash of `key`.
  std::uint64_t operator()(std::int64_t key) const {
    return util::mix64(static_cast<std::uint64_t>(key));
  }
};

/// Open-addressing map from Key to Value. Value must be
/// default-constructible and cheap to move; Key needs operator==.
template <typename Key, typename Value, typename Hash = IntKeyHash>
class FlatTable {
 public:
  /// Starts with at least `min_capacity` slots (rounded up to a power
  /// of two, minimum 2).
  explicit FlatTable(std::size_t min_capacity = 16) {
    std::size_t capacity = 2;
    while (capacity < min_capacity) {
      capacity *= 2;
    }
    slots_.resize(capacity);
  }

  /// Number of entries.
  std::size_t size() const { return size_; }
  /// Number of slots: a power of two, at least 4/3 of size().
  std::size_t capacity() const { return slots_.size(); }

  /// The value stored under `key`; nullptr when absent.
  Value* find(const Key& key) {
    for (std::size_t i = home(key);; i = next(i)) {
      Slot& slot = slots_[i];
      if (!slot.used) {
        return nullptr;
      }
      if (slot.key == key) {
        return &slot.value;
      }
    }
  }

  /// The value under `key`, default-constructed and inserted first when
  /// absent; `.second` is true when it was inserted. The pointer stays
  /// valid until the next insert or erase.
  std::pair<Value*, bool> try_emplace(const Key& key) {
    if (4 * (size_ + 1) > 3 * slots_.size()) {
      grow();
    }
    std::size_t i = home(key);
    for (; slots_[i].used; i = next(i)) {
      if (slots_[i].key == key) {
        return {&slots_[i].value, false};
      }
    }
    Slot& slot = slots_[i];
    slot.key = key;
    slot.value = Value{};
    slot.used = true;
    ++size_;
    return {&slot.value, true};
  }

  /// Removes `key` and returns its value; nullopt when absent.
  std::optional<Value> take(const Key& key) {
    for (std::size_t i = home(key); slots_[i].used; i = next(i)) {
      if (slots_[i].key == key) {
        std::optional<Value> value(std::move(slots_[i].value));
        erase_slot(i);
        return value;
      }
    }
    return std::nullopt;
  }

  /// Calls fn(key, value) exactly once for every entry, in slot order,
  /// and erases the entries for which it returns true. Erasing shifts
  /// later entries backward, which could move one across the walk (or,
  /// at the wrap, from the walked front to the unwalked back), so the
  /// walk runs to the end first and the erasures follow it.
  template <typename Fn>
  void erase_if(Fn&& fn) {
    doomed_.clear();
    for (const Slot& slot : slots_) {
      if (slot.used && fn(slot.key, slot.value)) {
        doomed_.push_back(slot.key);
      }
    }
    for (const Key& key : doomed_) {
      take(key);
    }
  }

 private:
  struct Slot {
    Key key{};
    Value value{};
    bool used = false;
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>(Hash{}(key)) & mask();
  }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }

  /// Backward-shift deletion: empties slot `hole`, then walks the rest
  /// of its probe run and moves back every entry whose home does not
  /// lie cyclically in (hole, position] — the entries a lookup would
  /// otherwise no longer reach across the new gap.
  void erase_slot(std::size_t hole) {
    for (std::size_t i = next(hole); slots_[i].used; i = next(i)) {
      const std::size_t h = home(slots_[i].key);
      const bool reachable_past_hole =
          hole < i ? (hole < h && h <= i) : (hole < h || h <= i);
      if (!reachable_past_hole) {
        slots_[hole] = std::move(slots_[i]);
        hole = i;
      }
    }
    slots_[hole].used = false;
    --size_;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (Slot& slot : old) {
      if (slot.used) {
        std::size_t i = home(slot.key);
        while (slots_[i].used) {
          i = next(i);
        }
        slots_[i] = std::move(slot);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  /// erase_if's keys to remove, kept between calls so a walk allocates
  /// only when more entries go idle at once than ever before.
  std::vector<Key> doomed_;
};

}  // namespace cgc::stream
