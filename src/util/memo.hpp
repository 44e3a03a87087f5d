// Build-once memo keyed by string.
//
// The bench trace memo (bench/common.cpp) hands every cgc_report case a
// reference to one shared, already-decoded trace. Cases run
// concurrently, so the memo must build each key exactly once, and a
// slow build of one key (a cold trace cache simulating a month) must not
// stall the cases waiting on another. One map lock guards only the slot
// lookup; each slot has its own lock, held across that key's build.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "util/mutex.hpp"
#include "util/thread_annotations.h"

namespace cgc::util {

/// Values of type T built on first use and kept for the memo's lifetime.
template <typename T>
class Memo {
 public:
  /// Creates an empty memo.
  Memo() = default;
  Memo(const Memo&) = delete;
  Memo& operator=(const Memo&) = delete;

  /// The value for `key`, calling `build` if no earlier call built it.
  /// Concurrent first calls for one key run `build` once; the others
  /// wait for it. Calls for different keys build at the same time. A
  /// build that throws leaves the key unbuilt, so the next call retries.
  /// The reference stays valid for the memo's lifetime.
  const T& get(const std::string& key, const std::function<T()>& build) {
    Slot* slot = nullptr;
    {
      MutexLock lock(mutex_);
      std::unique_ptr<Slot>& owned = slots_[key];
      if (!owned) {
        owned = std::make_unique<Slot>();
      }
      slot = owned.get();
    }
    const T* value = nullptr;
    {
      MutexLock lock(slot->mutex);
      if (!slot->value) {
        slot->value = std::make_unique<T>(build());
      }
      value = slot->value.get();
    }
    return *value;
  }

 private:
  /// One key's value and the lock its build holds.
  struct Slot {
    Mutex mutex;
    std::unique_ptr<T> value CGC_GUARDED_BY(mutex);
  };

  Mutex mutex_;
  /// unique_ptr slots keep Slot addresses stable as the map grows.
  std::map<std::string, std::unique_ptr<Slot>> slots_ CGC_GUARDED_BY(mutex_);
};

}  // namespace cgc::util
