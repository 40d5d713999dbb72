#include "src/executor/worker.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/common/activity.h"
#include "src/common/trace.h"

namespace dhqp {

namespace {

// Incremented at launch and decremented only after the join, so a leaked
// thread stays visible to QueryWorkers::live().
std::atomic<int64_t> g_live_workers{0};

int64_t BatchMemBytes(const RowBatch& batch) {
  int64_t bytes = 0;
  for (const Row& row : batch.rows) bytes += RowMemBytes(row);
  return bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryWorkers.
// ---------------------------------------------------------------------------

void QueryWorkers::Launch(std::string track, std::function<void()> body) {
  g_live_workers.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(mu_);
  // The statement's thread-locals are read here, on the launching thread
  // (the consumer, or an enclosing worker for nested exchanges), and
  // re-installed on the worker.
  threads_.emplace_back([track = std::move(track), body = std::move(body),
                         query_waits = waits::CurrentQueryTally(),
                         aid = activity::Current(),
                         etag = trace::CurrentEngineTag()] {
    trace::Tracer::SetCurrentThreadName(track);
    waits::ScopedQueryTally tally(query_waits);
    activity::Scope act(aid);
    trace::EngineTagScope engine_tag(etag);
    body();
  });
}

void QueryWorkers::JoinAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::thread& t : threads_) {
    t.join();
    g_live_workers.fetch_sub(1, std::memory_order_acq_rel);
  }
  threads_.clear();
}

int64_t QueryWorkers::live() {
  return g_live_workers.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// BatchQueue.
// ---------------------------------------------------------------------------

BatchQueue::BatchQueue(const ExecOptions& options, OperatorProfile* owner,
                       MemTracker* query_mem, waits::WaitType push_wait,
                       waits::WaitType pop_wait)
    : owner_(owner),
      query_mem_(query_mem),
      push_wait_(push_wait),
      pop_wait_(pop_wait),
      queue_(static_cast<size_t>(options.queue_depth())),
      recycle_cap_(static_cast<size_t>(options.queue_depth()) + 2) {}

BatchQueue::~BatchQueue() {
  // No producer or consumer is left: batches still parked (an abandoned
  // stream, a restart) die here, and so does their charge.
  queue_.Close();
  Parked parked;
  while (queue_.Pop(&parked)) Release(parked.bytes);
}

waits::WaitTally* BatchQueue::owner_waits() const {
  return owner_ != nullptr ? &owner_->wait_tally : nullptr;
}

void BatchQueue::Charge(int64_t bytes) {
  if (owner_ != nullptr) owner_->mem.Add(bytes);
  if (query_mem_ != nullptr) query_mem_->Add(bytes);
}

void BatchQueue::Release(int64_t bytes) {
  if (owner_ != nullptr) owner_->mem.Release(bytes);
  if (query_mem_ != nullptr) query_mem_->Release(bytes);
}

RowBatch BatchQueue::TakeBuffer() {
  std::lock_guard<std::mutex> lock(recycle_mu_);
  if (recycle_.empty()) return RowBatch{};
  RowBatch batch = std::move(recycle_.back());
  recycle_.pop_back();
  return batch;
}

bool BatchQueue::Push(RowBatch&& batch) {
  const int64_t bytes = BatchMemBytes(batch);
  // Charged before the push: the consumer's release may run the instant
  // the batch lands.
  Charge(bytes);
  if (queue_.Push(Parked{std::move(batch), bytes}, [this](int64_t ticks) {
        waits::RecordWait(push_wait_, ticks, owner_waits());
      })) {
    return true;
  }
  Release(bytes);
  return false;
}

void BatchQueue::Fail(Status status) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (error_.ok()) error_ = std::move(status);
  }
  queue_.Close();
}

void BatchQueue::Close() { queue_.Close(); }

Result<bool> BatchQueue::NextBatch(RowBatch* out, int max_rows) {
  out->clear();
  if (max_rows <= 0) return false;
  while (pos_ >= current_.rows.size()) {
    Parked next;
    bool blocked = false;
    const bool got = queue_.Pop(&next, [this, &blocked](int64_t ticks) {
      blocked = true;
      waits::RecordWait(pop_wait_, ticks, owner_waits());
    });
    if (!got) {
      // Closed and drained: the kept error, exactly where a serial
      // consumer would have met it.
      std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_.ok()) return error_;
      return false;
    }
    // The consumer outran its producers.
    if (blocked && owner_ != nullptr) {
      owner_->queue_stalls.fetch_add(1, std::memory_order_relaxed);
    }
    Release(next.bytes);
    // The drained buffer goes back to the producers.
    current_.clear();
    {
      std::lock_guard<std::mutex> lock(recycle_mu_);
      if (recycle_.size() < recycle_cap_) {
        recycle_.push_back(std::move(current_));
      }
    }
    current_ = std::move(next.batch);
    pos_ = 0;
  }
  const size_t avail = current_.rows.size() - pos_;
  if (pos_ == 0 && avail <= static_cast<size_t>(max_rows)) {
    // Whole-batch handoff, swapped rather than moved: the caller's cleared
    // buffer takes the batch's place and is recycled on the next pop.
    std::swap(*out, current_);
    return true;
  }
  const size_t take = std::min(avail, static_cast<size_t>(max_rows));
  out->rows.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out->rows.push_back(std::move(current_.rows[pos_ + i]));
  }
  pos_ += take;
  return true;
}

}  // namespace dhqp
