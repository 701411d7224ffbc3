#ifndef FWDECAY_UTIL_BOUNDED_QUEUE_H_
#define FWDECAY_UTIL_BOUNDED_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <semaphore>
#include <utility>

#include "util/check.h"
#include "util/sched.h"
#include "util/thread_annotations.h"

// Bounded handoff queue (DESIGN.md §14.1): the one queue between threads
// in the repo. The pipeline's router hands sub-batches to each shard
// worker through one, the workers hand consumed batches back through a
// second, and fwdecayd's connection threads hand ingest batches to the
// apply thread through a third.
//
// A fixed-capacity slot array under fwdecay::Mutex, plus a counting
// semaphore that wakes the consumer. A condition variable would need
// the raw std::mutex; the semaphore composes with the annotated Mutex,
// so clang's thread-safety analysis still sees every slot access under
// mu_. The semaphore holds one token per queued item, plus one once the
// queue is closed: a consumer that takes a token finds either an item
// or the close.
//
// The lock is taken once per handoff. Both users hand over whole batches
// (up to 1024 rows in the pipeline), so that cost is per batch, not per
// row.

namespace fwdecay {

/// Bounded FIFO queue for any number of producer threads and ONE
/// consumer thread. TryPush never blocks: a full queue is reported to
/// the producer, which chooses between backpressure and refusal. The
/// consumer either polls (TryPop) or parks (Pop) until an item arrives
/// or the queue is closed.
template <typename T>
class BoundedQueue {
 public:
  /// A capacity of 0 is treated as 1.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)),
        slots_(std::make_unique<std::optional<T>[]>(capacity_)) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Moves `item` to the tail and returns true, or returns false with
  /// `item` untouched when the queue is full or closed.
  bool TryPush(T&& item) {
    {
      MutexLock lock(mu_);
      if (closed_ || size_ == capacity_) return false;
      std::size_t tail = head_ + size_;
      if (tail >= capacity_) tail -= capacity_;
      slots_[tail].emplace(std::move(item));
      ++size_;
    }
    ready_.release();
    return true;
  }

  /// Moves the head item into *out and returns true, or returns false
  /// at once when there is none.
  bool TryPop(T* out) {
    // Checked first because a failing try_acquire spins (libstdc++ backs
    // off with sched_yield) before it gives up.
    if (depth() == 0) return false;
    return ready_.try_acquire() && TakeHead(out);
  }

  /// Waits for the head item and moves it into *out. Returns false once
  /// the queue is closed and drained. Inside a sched::Explore() region
  /// it never blocks: the model checker runs one thread at a time, so it
  /// polls and yields to the scheduler instead.
  bool Pop(T* out) {
    if (sched::InScheduledRegion()) {
      while (!ready_.try_acquire()) sched::Yield();
    } else {
      ready_.acquire();
    }
    return TakeHead(out);
  }

  /// Refuses every later TryPush and wakes the consumer. Items already
  /// queued stay poppable. Idempotent.
  void Close() {
    {
      MutexLock lock(mu_);
      if (closed_) return;
      closed_ = true;
    }
    ready_.release();
  }

  std::size_t depth() const {
    MutexLock lock(mu_);
    return size_;
  }

 private:
  // Runs holding one `ready_` token, which announced an item or, on an
  // empty queue, the close; the close token goes back so the next pop
  // sees it too.
  bool TakeHead(T* out) {
    MutexLock lock(mu_);
    if (size_ == 0) {
      FWDECAY_DCHECK(closed_);
      ready_.release();
      return false;
    }
    std::optional<T>& slot = slots_[head_];
    *out = std::move(*slot);
    slot.reset();
    if (++head_ == capacity_) head_ = 0;
    --size_;
    return true;
  }

  const std::size_t capacity_;
  std::counting_semaphore<> ready_{0};
  mutable Mutex mu_;
  const std::unique_ptr<std::optional<T>[]> slots_ FWDECAY_PT_GUARDED_BY(mu_);
  std::size_t head_ FWDECAY_GUARDED_BY(mu_) = 0;
  std::size_t size_ FWDECAY_GUARDED_BY(mu_) = 0;
  bool closed_ FWDECAY_GUARDED_BY(mu_) = false;
};

}  // namespace fwdecay

#endif  // FWDECAY_UTIL_BOUNDED_QUEUE_H_
