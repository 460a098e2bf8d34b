// Preallocated object pool for the serving hot path.
//
// The zero-allocation contract (docs/ARCHITECTURE.md, "The allocation
// plane") splits every serving-plane container into two phases: a warm-up
// phase where capacity is established (BeginRun / first iterations at a new
// shape) and a steady state where capacity is only reused. FixedPool<T>
// makes that split explicit for pooled objects: a free-list over `capacity`
// default-constructed objects. Acquire/Release never touch the heap;
// objects keep their internal buffers (a released LiveRequest keeps its
// reserved prompt tensor), which is exactly what makes admission
// allocation-free after warm-up. Exhaustion throws CheckError loudly rather
// than falling back to the heap -- a silent fallback would turn the
// zero-allocation guarantee into a probabilistic one.
//
// Not thread-safe: the single-threaded control plane (the server's run
// state) owns it. The data plane below never allocates at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.h"

namespace comet::util {

template <typename T>
class FixedPool {
 public:
  FixedPool() = default;
  explicit FixedPool(size_t capacity) { Reserve(capacity); }

  // Grows the pool to `capacity` objects (allocates; warm-up only).
  // Existing acquired objects stay valid: storage slots are stable.
  void Reserve(size_t capacity) {
    while (storage_.size() < capacity) {
      storage_.push_back(std::make_unique<T>());
      free_.reserve(capacity);
      free_.push_back(storage_.back().get());
    }
  }

  // Pops an object off the free list. The object is in whatever state its
  // last user left it (internal capacity intact); callers re-initialize the
  // fields they use. Throws CheckError when exhausted.
  T* Acquire() {
    COMET_CHECK(!free_.empty())
        << "FixedPool exhausted: all " << storage_.size()
        << " objects are live -- the reservation bound is wrong";
    T* p = free_.back();
    free_.pop_back();
    return p;
  }

  // Returns an object to the free list. Must be a pointer obtained from
  // Acquire() on this pool, released at most once.
  void Release(T* p) {
    COMET_CHECK(p != nullptr);
    COMET_CHECK_LT(free_.size(), storage_.size())
        << "FixedPool::Release with no object outstanding (double release?)";
    free_.push_back(p);
  }

  size_t capacity() const { return storage_.size(); }
  size_t available() const { return free_.size(); }
  size_t outstanding() const { return storage_.size() - free_.size(); }

 private:
  std::vector<std::unique_ptr<T>> storage_;  // stable addresses
  std::vector<T*> free_;
};

}  // namespace comet::util
