#ifndef DHQP_EXECUTOR_BOUNDED_QUEUE_H_
#define DHQP_EXECUTOR_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "src/common/fastclock.h"

namespace dhqp {

/// A bounded blocking queue: the blocking core of BatchQueue (worker.h),
/// which connects query workers to the Volcano consumer. Closing wakes
/// everyone: producers see Push fail and stop; consumers drain the
/// remaining items and then see Pop fail.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Blocks while full. Returns false (item dropped) if the queue closed.
  bool Push(T item) {
    return Push(std::move(item), [](int64_t) {});
  }

  /// As Push, but reports blocking: when the caller finds the queue full
  /// and open, `blocked(elapsed_ticks)` is invoked once — after the lock is
  /// released — with the fastclock ticks spent waiting for space (or for
  /// close). Fast-path pushes never invoke the hook, so wait accounting
  /// counts only genuinely blocked intervals. The hook keeps this header
  /// free of any instrumentation dependency (callers bind it to the waits::
  /// taxonomy).
  template <typename Hook>
  bool Push(T item, Hook&& blocked) {
    int64_t waited = -1;
    bool pushed = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!closed_ && items_.size() >= capacity_) {
        const int64_t start = fastclock::Ticks();
        not_full_.wait(
            lock, [this] { return closed_ || items_.size() < capacity_; });
        waited = fastclock::Ticks() - start;
      }
      if (!closed_) {
        items_.push_back(std::move(item));
        not_empty_.notify_one();
        pushed = true;
      }
    }
    if (waited >= 0) blocked(waited);
    return pushed;
  }

  /// Blocks while empty and open. Returns false once closed and drained.
  bool Pop(T* out) {
    return Pop(out, [](int64_t) {});
  }

  /// As Pop, but invokes `blocked(elapsed_ticks)` once (lock released) when
  /// the caller had to wait for an item or for close. See the Push hook.
  template <typename Hook>
  bool Pop(T* out, Hook&& blocked) {
    int64_t waited = -1;
    bool popped = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!closed_ && items_.empty()) {
        const int64_t start = fastclock::Ticks();
        not_empty_.wait(lock,
                        [this] { return closed_ || !items_.empty(); });
        waited = fastclock::Ticks() - start;
      }
      if (!items_.empty()) {
        *out = std::move(items_.front());
        items_.pop_front();
        not_full_.notify_one();
        popped = true;
      }
    }
    if (waited >= 0) blocked(waited);
    return popped;
  }

  /// No more Pushes will succeed; Pops drain what is buffered.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Buffered item count — an instantaneous reading for metrics (queue
  /// depth histograms); it can be stale by the time the caller uses it.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_, not_empty_;
  std::deque<T> items_;
  size_t capacity_;
  bool closed_ = false;
};

}  // namespace dhqp

#endif  // DHQP_EXECUTOR_BOUNDED_QUEUE_H_
