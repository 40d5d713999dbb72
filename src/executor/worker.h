#ifndef DHQP_EXECUTOR_WORKER_H_
#define DHQP_EXECUTOR_WORKER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/waits.h"
#include "src/executor/bounded_queue.h"
#include "src/executor/exec.h"

namespace dhqp {

/// The threads one operator runs on behalf of the statement that launched
/// them: the prefetch producer, exchange workers, parallel Concat branches.
/// Each thread re-installs the launching thread's wait tally, activity id
/// and engine tag, so its waits, spans and remote commands belong to the
/// same statement, and names its trace track. Every launched thread is
/// joined exactly once — by JoinAll, or by the destructor as a last resort —
/// and counts in live() until then.
class QueryWorkers {
 public:
  QueryWorkers() = default;
  ~QueryWorkers() { JoinAll(); }

  QueryWorkers(const QueryWorkers&) = delete;
  QueryWorkers& operator=(const QueryWorkers&) = delete;

  /// Runs `body` on a new thread whose trace track is named `track`.
  void Launch(std::string track, std::function<void()> body);

  /// Joins every thread launched so far. Safe to call repeatedly and from
  /// several threads; callers must first close whatever the threads block
  /// on.
  void JoinAll();

  /// Query-worker threads launched and not yet joined, process-wide. The
  /// test suites assert this reads 0 after every statement: abandoning a
  /// stream early (error, TOP, a failed sibling) must never leak a thread.
  static int64_t live();

 private:
  std::mutex mu_;
  std::vector<std::thread> threads_;  ///< Guarded by mu_.
};

/// The bounded RowBatch handoff from query workers to the one consumer
/// thread that drains them. Owned by one operator (`owner`), it keeps the
/// accounting every such handoff needs:
///   - a parked batch is charged to the owner's and the query's memory
///     trackers before it is pushed and released when it is popped; the
///     destructor settles whatever a closed queue still holds;
///   - blocked pushes and pops are charged as the given wait types to the
///     query and the owner; a blocking pop that returned a batch counts
///     one stall in the owner's profile slot (queue_stalls, which the
///     statement's ExecStats folds into prefetch_stalls);
///   - the first error a producer reports surfaces after the buffered
///     batches, on every consumer call from then on;
///   - drained buffers return to producers (TakeBuffer), so the steady
///     state allocates no batch storage.
/// Depth is ExecOptions::queue_depth(). `owner` and `query_mem` may be
/// null (no counting / no attribution).
class BatchQueue {
 public:
  BatchQueue(const ExecOptions& options, OperatorProfile* owner,
             MemTracker* query_mem, waits::WaitType push_wait,
             waits::WaitType pop_wait);
  ~BatchQueue();

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  // Producer side; any number of producer threads.

  /// An empty batch to fill: a recycled buffer (capacity kept) when one is
  /// stashed, else a fresh one.
  RowBatch TakeBuffer();
  /// Parks `batch`, blocking while the queue is full. False once the queue
  /// is closed: the batch is dropped and its charge returned.
  bool Push(RowBatch&& batch);
  /// Keeps `status` unless an error is already kept, then closes the queue.
  void Fail(Status status);
  /// No more batches; the consumer drains what is parked.
  void Close();
  /// Parked batches — an instantaneous reading for metrics.
  size_t size() const { return queue_.size(); }

  // Consumer side; one consumer thread.

  /// Fills `out` (cleared first) with the next batch whole when it fits in
  /// `max_rows`, else with its next `max_rows` rows. False at end of data;
  /// the kept error once the parked batches are drained.
  Result<bool> NextBatch(RowBatch* out, int max_rows);

 private:
  struct Parked {
    RowBatch batch;
    int64_t bytes = 0;
  };

  void Charge(int64_t bytes);
  void Release(int64_t bytes);
  waits::WaitTally* owner_waits() const;

  OperatorProfile* owner_;
  MemTracker* query_mem_;
  waits::WaitType push_wait_;
  waits::WaitType pop_wait_;
  BoundedQueue<Parked> queue_;

  std::mutex error_mu_;
  Status error_;  ///< First producer error; guarded by error_mu_.

  /// Buffers kept for reuse: the queue's depth, plus one a producer fills
  /// and one the consumer drains.
  size_t recycle_cap_;
  std::mutex recycle_mu_;
  std::vector<RowBatch> recycle_;  ///< Guarded by recycle_mu_.

  RowBatch current_;  ///< Popped batch being served; consumer thread only.
  size_t pos_ = 0;
};

}  // namespace dhqp

#endif  // DHQP_EXECUTOR_WORKER_H_
