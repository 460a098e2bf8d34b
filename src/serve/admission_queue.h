// Bounded MPMC admission queue that sheds the newest request when full.
//
// The queue sits between the load generator (producer) and the continuous
// batcher (consumer). It is deliberately BOUNDED: an open-loop arrival
// process does not slow down when the server falls behind, so without a
// bound the queue -- and every queued request's latency -- grows without
// limit. Overload has to go somewhere: a full queue rejects the arriving
// request (classic admission control: protect the latency of work already
// admitted). Shed requests are counted and reported, never silently
// dropped.
//
// Thread safety: all operations are safe from any number of producer and
// consumer threads (mutex + condvar; serve_test hammers it cross-thread
// under TSan). The simulated-clock serving loop drives it single-threaded
// -- determinism there comes from the loop, not from the queue.
//
// Storage is a fixed ring sized at construction (the bound exists anyway --
// that is the whole point of admission control), so steady-state push/pop
// perform zero heap allocations.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/request.h"

namespace comet {

class AdmissionQueue {
 public:
  explicit AdmissionQueue(int64_t capacity);

  // Non-blocking admission; never waits (the producer is an open-loop
  // arrival process -- it cannot be paused). Returns false, shedding the
  // newcomer, when the queue is full or closed.
  bool TryPush(const RequestSpec& spec);

  // Non-blocking pop in FIFO order.
  std::optional<RequestSpec> TryPop();

  // Blocking pop: waits until a request is available or the queue is closed
  // AND drained (then returns nullopt).
  std::optional<RequestSpec> Pop();

  // Removes (and returns) the queued request with RequestSpec::id == id,
  // preserving the order of the rest; nullopt when not queued. The cluster's
  // hedged dispatch uses this for loser cancellation: when one copy of a
  // hedged request completes, the still-queued copy is withdrawn. Not
  // counted as shed (the request completed elsewhere).
  std::optional<RequestSpec> Remove(int64_t id);

  // Wakes all blocked consumers; subsequent TryPush calls shed everything.
  void Close();

  int64_t capacity() const { return capacity_; }
  int64_t size() const;
  // Sum of RequestSpec::TotalTokens over the currently queued requests --
  // the dispatcher hook the cluster plane's least-loaded / power-of-two
  // placement policies read as a replica's backlog.
  int64_t queued_tokens() const;
  // Lifetime counters (monotonic).
  int64_t total_admitted() const;
  int64_t total_shed() const;

 private:
  // Ring accessors; callers hold mu_.
  RequestSpec& At(int64_t pos) {
    return ring_[static_cast<size_t>((head_ + pos) % capacity_)];
  }
  void PushBack(const RequestSpec& spec);
  RequestSpec PopFront();

  const int64_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable ready_;
  // Fixed-capacity ring (RequestSpec is POD): the queue is allocated once at
  // construction and steady-state push/pop touch no heap, which keeps the
  // serving loop's admission path inside the zero-allocation envelope.
  std::vector<RequestSpec> ring_;
  int64_t head_ = 0;  // index of the oldest element
  int64_t size_ = 0;
  bool closed_ = false;
  int64_t queued_tokens_ = 0;
  int64_t total_admitted_ = 0;
  int64_t total_shed_ = 0;
};

}  // namespace comet
