#ifndef PS2_RUNTIME_SPSC_RING_H_
#define PS2_RUNTIME_SPSC_RING_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/wait_strategy.h"

namespace ps2 {

// Bounded lock-free single-producer / single-consumer ring: the threaded
// engine's queue hop (dispatcher -> worker, submit -> dispatcher). Stream
// semantics: FIFO, bounded with producer backpressure, Close() ends the
// stream but queued items drain first — without a lock on either side:
//
//   producer:  TryPush / Push(item, WaitContext)    (one thread)
//   consumer:  PopBatch                             (one other thread)
//   any:       Close
//
// head_ (next slot to pop) is written only by the consumer, tail_ (next
// slot to fill) only by the producer; each lives on its own cache line next
// to the *other* side's cached copy, so the fast paths run entirely out of
// local lines and only touch the shared line when the cache runs dry.
//
// Blocking is delegated to EventCounts so parked threads cost nothing:
// the producer parks on the ring-owned producer_ready_ (consumer notifies
// when it frees slots of a full ring), the consumer parks on an external
// EventCount shared across all rings it drains (producer notifies on the
// empty -> non-empty transition). Both notify decisions read the other
// side's fresh index after a seq_cst fence — the classic store-buffer
// pattern; a stale cached index could skip the notify a parked peer needs.
template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two (minimum 64). The consumer's
  // EventCount is shared by every ring that consumer drains; it must
  // outlive the ring.
  explicit SpscRing(size_t min_capacity, EventCount* consumer_ready)
      : consumer_ready_(consumer_ready) {
    size_t cap = 64;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // --- producer side --------------------------------------------------------
  // Non-blocking: false when the ring is full or closed.
  bool TryPush(T&& item) {
    if (closed_.load(std::memory_order_acquire)) return false;
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ >= capacity()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (t - head_cache_ >= capacity()) return false;
    }
    slots_[t & mask_] = std::move(item);
    tail_.store(t + 1, std::memory_order_release);
    const uint64_t depth = t + 1 - head_cache_;
    if (depth > highwater_) highwater_ = depth;
    // Empty -> non-empty transition check against the consumer's *fresh*
    // head: the consumer may have drained past head_cache_ and parked.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (head_.load(std::memory_order_relaxed) == t) consumer_ready_->Notify();
    return true;
  }

  // Blocks (per the context's strategy) until pushed; false once closed.
  bool Push(T&& item, WaitContext& ctx) {
    T local = std::move(item);
    while (true) {
      if (TryPush(std::move(local))) return true;
      if (closed_.load(std::memory_order_acquire)) return false;
      ctx.Await(producer_ready_, [this] {
        return closed_.load(std::memory_order_relaxed) ||
               tail_.load(std::memory_order_relaxed) -
                       head_.load(std::memory_order_acquire) <
                   capacity();
      });
    }
  }

  // --- consumer side --------------------------------------------------------
  // Non-blocking: appends up to `max` items to `out`, returns the count.
  size_t PopBatch(size_t max, std::vector<T>* out) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (tail_cache_ == h) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (tail_cache_ == h) return 0;
    }
    size_t n = static_cast<size_t>(tail_cache_ - h);
    if (n > max) n = max;
    for (size_t i = 0; i < n; ++i) {
      out->push_back(std::move(slots_[(h + i) & mask_]));
    }
    head_.store(h + n, std::memory_order_release);
    // A producer parks only on a full ring; its post-Prepare re-check reads
    // head_ fresh, so the notify pairs with the fence the same way as the
    // push side.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (tail_.load(std::memory_order_relaxed) - h >= capacity()) {
      producer_ready_.Notify();
    }
    return n;
  }

  // Items currently queued (consumer-side view; approximate from the
  // producer's thread).
  size_t pending() const {
    return static_cast<size_t>(tail_.load(std::memory_order_acquire) -
                               head_.load(std::memory_order_acquire));
  }

  bool Empty() const { return pending() == 0; }

  // --- lifecycle ------------------------------------------------------------
  // Ends the stream: further pushes fail, queued items remain poppable.
  // Callable from any thread (typically the engine's teardown thread).
  void Close() {
    closed_.store(true, std::memory_order_seq_cst);
    producer_ready_.Notify();
    consumer_ready_->Notify();
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  bool closed_and_drained() const { return closed() && Empty(); }

  // Deepest the ring ever got (producer-side estimate; read after join).
  uint64_t highwater() const { return highwater_; }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  EventCount* consumer_ready_;
  EventCount producer_ready_;
  std::atomic<bool> closed_{false};

  // Consumer line: head_ plus the consumer's cached copy of tail_.
  alignas(64) std::atomic<uint64_t> head_{0};
  uint64_t tail_cache_ = 0;
  // Producer line: tail_ plus the producer's cached copy of head_ and the
  // producer-maintained depth high-water mark.
  alignas(64) std::atomic<uint64_t> tail_{0};
  uint64_t head_cache_ = 0;
  uint64_t highwater_ = 0;
};

}  // namespace ps2

#endif  // PS2_RUNTIME_SPSC_RING_H_
