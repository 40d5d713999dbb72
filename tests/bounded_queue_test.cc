// Unit suite for the worker handoff every exchange, prefetch, and Concat
// pipeline runs on: BoundedQueue's blocking/close contract and the
// wait-hook overloads the wait-statistics subsystem uses to time blocked
// intervals, then the two parts built on it — QueryWorkers (thread-local
// handoff, join-once live counting) and BatchQueue (memory settlement,
// rows-then-error order). Deliberately thread-heavy — run under
// -DDHQP_TSAN=ON this is the race check for the handoff itself.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/common/activity.h"
#include "src/common/waits.h"
#include "src/executor/bounded_queue.h"
#include "src/executor/worker.h"

namespace dhqp {
namespace {

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);
  }
}

// Capacity-1 ping-pong: producer and consumer strictly alternate, so both
// sides block on every step. Checks order is preserved and the hooks see
// real (non-negative) blocked intervals, one per blocked call at most.
TEST(BoundedQueueTest, CapacityOnePingPong) {
  constexpr int kItems = 2000;
  BoundedQueue<int> q(1);
  std::atomic<int64_t> push_blocks{0};
  std::atomic<int64_t> pop_blocks{0};

  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      ASSERT_TRUE(q.Push(i, [&](int64_t ticks) {
        EXPECT_GE(ticks, 0);
        push_blocks.fetch_add(1);
      }));
    }
    q.Close();
  });

  int expect = 0;
  int v = -1;
  while (q.Pop(&v, [&](int64_t ticks) {
    EXPECT_GE(ticks, 0);
    pop_blocks.fetch_add(1);
  })) {
    EXPECT_EQ(v, expect++);
  }
  producer.join();
  EXPECT_EQ(expect, kItems);
  // With capacity 1 at least one side must have genuinely blocked; the hook
  // never fires more than once per call.
  EXPECT_GT(push_blocks.load() + pop_blocks.load(), 0);
  EXPECT_LE(push_blocks.load(), kItems);
  EXPECT_LE(pop_blocks.load(), kItems + 1);
}

// Close() while producers are parked on a full queue must wake them all;
// their Push returns false and nothing deadlocks.
TEST(BoundedQueueTest, CloseWakesBlockedProducers) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(0));  // Fill to capacity.

  constexpr int kProducers = 4;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&q, &rejected] {
      if (!q.Push(1)) rejected.fetch_add(1);
    });
  }
  // Let the producers park (best effort; correctness doesn't depend on it).
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kProducers);
}

// Close() with items still queued: consumers drain the remainder in order,
// then Pop returns false.
TEST(BoundedQueueTest, CloseThenDrainPreservesOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.Push(i));
  q.Close();
  EXPECT_FALSE(q.Push(99));  // Closed: rejected, not queued.
  int v = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.Pop(&v));
}

// Close() wakes consumers parked on an empty queue; the pop hook still
// reports the blocked interval even though no item arrived.
TEST(BoundedQueueTest, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(4);
  std::atomic<int64_t> blocked_ns{-1};
  std::thread consumer([&] {
    int v = -1;
    EXPECT_FALSE(q.Pop(&v, [&](int64_t ticks) { blocked_ns.store(ticks); }));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.Close();
  consumer.join();
  EXPECT_GE(blocked_ns.load(), 0);  // Hook fired for the fruitless wait.
}

// Many producers, many consumers: every pushed item is popped exactly once.
TEST(BoundedQueueTest, MultiProducerMultiConsumer) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(8);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }

  std::atomic<int> popped{0};
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int v = -1;
      while (q.Pop(&v)) {
        seen[static_cast<size_t>(v)].fetch_add(1);
        popped.fetch_add(1);
      }
    });
  }

  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

// ---------------------------------------------------------------------------
// QueryWorkers and BatchQueue.
// ---------------------------------------------------------------------------

// A worker runs under the launching statement's activity id and wait tally,
// and counts as live from launch until it is joined — not merely until its
// body returns.
TEST(QueryWorkersTest, LiveCountsEachWorkerUntilItIsJoined) {
  ASSERT_EQ(QueryWorkers::live(), 0);
  waits::WaitTally tally;
  waits::ScopedQueryTally query_tally(&tally);
  activity::Scope act("launcher#1");
  std::promise<void> finished;
  std::string seen_activity;
  waits::WaitTally* seen_tally = nullptr;
  QueryWorkers workers;
  workers.Launch("test.worker", [&] {
    seen_activity = activity::Current();
    seen_tally = waits::CurrentQueryTally();
    finished.set_value();
  });
  finished.get_future().wait();
  EXPECT_EQ(QueryWorkers::live(), 1);  // Body done, thread not yet joined.
  workers.JoinAll();
  EXPECT_EQ(QueryWorkers::live(), 0);
  EXPECT_EQ(seen_activity, "launcher#1");
  EXPECT_EQ(seen_tally, &tally);
  workers.JoinAll();  // Joined once; a second call has nothing to do.
  EXPECT_EQ(QueryWorkers::live(), 0);
}

RowBatch IntBatch(int first, int n) {
  RowBatch batch;
  for (int i = first; i < first + n; ++i) {
    batch.rows.push_back({Value::Int64(i)});
  }
  return batch;
}

BatchQueue TestQueue(OperatorProfile* owner, MemTracker* query_mem) {
  ExecOptions options;
  options.prefetch_queue_depth = 4;
  return BatchQueue(options, owner, query_mem,
                    waits::WaitType::kExchangeQueuePush,
                    waits::WaitType::kExchangeQueuePop);
}

// Parked batches are charged to the owner and the query; popping releases
// one batch's charge, a rejected push returns its own, and whatever a
// closed queue still holds is settled when the queue goes away.
TEST(BatchQueueTest, ClosedQueueSettlesParkedBatches) {
  OperatorProfile owner;
  MemTracker query_mem;
  {
    BatchQueue queue = TestQueue(&owner, &query_mem);
    ASSERT_TRUE(queue.Push(IntBatch(0, 10)));
    const int64_t one_batch = owner.mem.current();
    EXPECT_GT(one_batch, 0);
    ASSERT_TRUE(queue.Push(IntBatch(10, 10)));
    ASSERT_TRUE(queue.Push(IntBatch(20, 10)));
    EXPECT_EQ(owner.mem.current(), 3 * one_batch);
    EXPECT_EQ(query_mem.current(), 3 * one_batch);
    RowBatch out;
    auto has = queue.NextBatch(&out, 100);
    ASSERT_TRUE(has.ok() && *has);
    EXPECT_EQ(out.size(), 10u);
    EXPECT_EQ(owner.mem.current(), 2 * one_batch);
    queue.Close();
    EXPECT_FALSE(queue.Push(IntBatch(30, 10)));
    EXPECT_EQ(owner.mem.current(), 2 * one_batch);
    EXPECT_EQ(query_mem.current(), 2 * one_batch);
  }
  EXPECT_EQ(owner.mem.current(), 0);
  EXPECT_EQ(query_mem.current(), 0);
  EXPECT_EQ(owner.mem.peak(), query_mem.peak());
  EXPECT_GT(owner.mem.peak(), 0);
}

// The first reported error waits behind every parked row, sliced or whole,
// and then sticks; later errors are dropped.
TEST(BatchQueueTest, FirstErrorSurfacesAfterBufferedBatches) {
  BatchQueue queue = TestQueue(nullptr, nullptr);
  ASSERT_TRUE(queue.Push(IntBatch(0, 3)));
  ASSERT_TRUE(queue.Push(IntBatch(3, 3)));
  queue.Fail(Status::NetworkError("first"));
  queue.Fail(Status::Internal("second"));
  EXPECT_FALSE(queue.Push(IntBatch(6, 3)));
  RowBatch out;
  std::vector<int64_t> seen;
  Status error = Status::OK();
  while (true) {
    auto has = queue.NextBatch(&out, 2);
    if (!has.ok()) {
      error = has.status();
      break;
    }
    ASSERT_TRUE(*has) << "end of data instead of the kept error";
    ASSERT_LE(out.size(), 2u);
    for (const Row& row : out.rows) seen.push_back(row[0].int64_value());
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(error.code(), StatusCode::kNetworkError);
  EXPECT_EQ(error.message(), "first");
  auto again = queue.NextBatch(&out, 2);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().message(), "first");
}

}  // namespace
}  // namespace dhqp
