// Bounded MPMC queue with admission control and micro-batch draining — the
// spine of the inference runtime.
//
// Producers call push_all(), which REJECTS (kFull) when the items do not fit
// instead of blocking: admission control pushes backpressure to the client
// rather than letting latency grow without bound. Consumers call
// pop_batch(), which blocks for the first item, takes what is queued, and
// if that is short of `max_items` opens a batching window of `max_wait` —
// the dynamic micro-batching rule (close at size OR deadline, whichever
// first).
//
// A window costs its owner one timed sleep. At most one window is open at a
// time: while it is, idle consumers keep waiting instead of opening a
// competing one, and an arrival wakes nobody unless it brings the queue to
// what the owner's batch still has room for — then the owner wakes early.
// When the window closes (full, deadline or close()), the owner takes what
// is queued, up to `max_items`; if items are left over, it wakes one idle
// consumer for them.
//
// Storage is a fixed ring buffer sized at construction (capacity slots, no
// per-push node allocation), and pop_batch has an overload draining into a
// caller-owned vector — together these keep the queue off the steady-state
// heap: a worker reuses one batch vector across its whole life.
//
// close() starts a graceful shutdown: pushes fail from then on, but pops
// continue to drain whatever was admitted; pop_batch returns empty only once
// the queue is closed AND empty, which is the consumer's signal to exit.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace itask::runtime {

/// Why a push was (or was not) admitted — "full" is transient backpressure,
/// "closed" is terminal shutdown; callers surface the two differently.
enum class PushResult { kOk, kFull, kClosed };

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(int64_t capacity)
      : capacity_(capacity), slots_(checked_capacity(capacity)) {}

  /// The one push path — admission control, all-or-nothing: either every
  /// item is admitted under one lock acquisition (so views of one group are
  /// contiguous and no interleaved producer can split them past capacity),
  /// or none is and `items` is left untouched, with the result saying
  /// whether "full" or "closed" refused them. A partial group in flight with
  /// its siblings rejected would burn worker time on views whose gather can
  /// never complete — this rules that state out by construction.
  PushResult push_all(std::span<T> items) {
    ITASK_CHECK(!items.empty(), "BoundedQueue: push_all needs >= 1 item");
    bool window_open = false;
    bool window_full = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (size_ + static_cast<int64_t>(items.size()) > capacity_)
        return PushResult::kFull;
      for (T& item : items) {
        slots_[static_cast<size_t>((head_ + size_) % capacity_)] =
            std::move(item);
        ++size_;
      }
      window_open = window_open_;
      window_full = window_open_ && size_ >= window_room_;
    }
    // An open window gathers arrivals without waking anyone; only the push
    // that fills the owner's batch ends its sleep early. Otherwise one item
    // can feed only one consumer, and more may fill several batches.
    if (window_open) {
      if (window_full) window_.notify_one();
    } else if (items.size() == 1) {
      ready_.notify_one();
    } else {
      ready_.notify_all();
    }
    return PushResult::kOk;
  }

  /// Single-item push for callers that only need admitted-or-not.
  bool try_push(T item) {
    return push_all(std::span<T>(&item, 1)) == PushResult::kOk;
  }

  /// Drains one micro-batch: blocks until an item arrives (or the queue
  /// closes) and no other consumer holds a window open, then gathers up to
  /// `max_items`, waiting at most `max_wait` after the first item before
  /// closing the batch. Returns an empty vector only when the queue is
  /// closed and fully drained.
  std::vector<T> pop_batch(int64_t max_items,
                           std::chrono::microseconds max_wait) {
    std::vector<T> batch;
    pop_batch(max_items, max_wait, batch);
    return batch;
  }

  /// Same, draining into `batch` (cleared first). The runtime workers use
  /// this with a long-lived per-worker vector, so steady-state pops reuse
  /// its capacity instead of allocating a fresh vector per micro-batch.
  void pop_batch(int64_t max_items, std::chrono::microseconds max_wait,
                 std::vector<T>& batch) {
    ITASK_CHECK(max_items >= 1, "BoundedQueue: max_items must be >= 1");
    batch.clear();
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || (size_ > 0 && !window_open_); });
    if (size_ == 0) return;  // closed and drained
    take(max_items, batch);
    const int64_t room = max_items - static_cast<int64_t>(batch.size());
    if (room > 0 && !closed_ && max_wait.count() > 0) {
      window_open_ = true;
      window_room_ = room;
      window_.wait_until(lock, std::chrono::steady_clock::now() + max_wait,
                         [&] { return size_ >= window_room_ || closed_; });
      window_open_ = false;
      take(max_items, batch);
    }
    const bool left_over = size_ > 0;
    lock.unlock();
    if (left_over) ready_.notify_one();
  }

  /// Stops admission; consumers drain the remainder. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
    window_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  int64_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

  int64_t capacity() const { return capacity_; }

 private:
  /// Moves queued items into `batch` until it holds `max_items` or the
  /// queue is empty. Caller holds mutex_.
  void take(int64_t max_items, std::vector<T>& batch) {
    while (size_ > 0 && static_cast<int64_t>(batch.size()) < max_items) {
      T& slot = slots_[static_cast<size_t>(head_)];
      batch.push_back(std::move(slot));
      // Reset the popped slot immediately: a moved-from T is only "valid
      // but unspecified" and may keep hold of whatever resources the move
      // left behind (request image buffers, promise state), pinning up to
      // `capacity` of them while the queue idles. Releasing here makes
      // pop — not the next push that happens to land on this slot — the
      // moment a request's resources die.
      slot = T{};
      head_ = (head_ + 1) % capacity_;
      --size_;
    }
  }

  static size_t checked_capacity(int64_t capacity) {
    ITASK_CHECK(capacity >= 1, "BoundedQueue: capacity must be >= 1");
    return static_cast<size_t>(capacity);
  }

  const int64_t capacity_;
  mutable std::mutex mutex_;
  /// Idle consumers wait here for items and for no window to be open.
  std::condition_variable ready_;
  /// The window owner's one timed sleep; only the owner ever waits here.
  std::condition_variable window_;
  /// Fixed ring of default-constructed slots; [head_, head_+size_) mod
  /// capacity_ are live. pop_batch resets a slot to T{} right after moving
  /// it out, so a popped slot never pins the moved-from shell's resources
  /// until a later push overwrites it (BoundedQueue.PopReleasesSlot…).
  std::vector<T> slots_;
  int64_t head_ = 0;
  int64_t size_ = 0;
  bool closed_ = false;
  bool window_open_ = false;
  /// Items the window owner's batch still has room for; a push that brings
  /// size_ to it wakes the owner.
  int64_t window_room_ = 0;
};

}  // namespace itask::runtime
