#include "src/executor/prefetch.h"

#include <atomic>

#include "src/common/activity.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/common/waits.h"

namespace dhqp {

namespace {
// Incremented for the lifetime of each ProducerLoop; see live_producers().
std::atomic<int64_t> g_live_producers{0};

int64_t BatchMemBytes(const RowBatch& batch) {
  int64_t bytes = 0;
  for (const Row& row : batch.rows) bytes += RowMemBytes(row);
  return bytes;
}
}  // namespace

int64_t PrefetchingRowset::live_producers() {
  return g_live_producers.load(std::memory_order_acquire);
}

PrefetchingRowset::PrefetchingRowset(std::unique_ptr<Rowset> inner,
                                     const ExecOptions& options,
                                     ExecStats* stats,
                                     OperatorProfile* profile,
                                     MemTracker* query_mem)
    : inner_(std::move(inner)),
      schema_(inner_->schema()),
      batch_rows_(options.remote_batch_rows > 0 ? options.remote_batch_rows
                                                : 256),
      stats_(stats),
      profile_(profile),
      query_mem_(query_mem),
      queue_(static_cast<size_t>(
          options.prefetch_queue_depth > 0 ? options.prefetch_queue_depth
                                           : 2)) {
  Start();
}

PrefetchingRowset::~PrefetchingRowset() { Stop(); }

void PrefetchingRowset::Start() {
  // Counts launched-but-not-yet-joined producers; the decrement is tied to
  // the join itself so a leaked thread stays visible to live_producers().
  g_live_producers.fetch_add(1, std::memory_order_acq_rel);
  // The producer works on the launching query's behalf: capture its wait
  // tally and activity id here (the consumer thread has them installed)
  // and re-install both inside the loop.
  producer_ = std::thread([this, query_waits = waits::CurrentQueryTally(),
                           aid = activity::Current(),
                           etag = trace::CurrentEngineTag()] {
    waits::ScopedQueryTally tally(query_waits);
    activity::Scope act(aid);
    trace::EngineTagScope engine_tag(etag);
    ProducerLoop();
  });
}

void PrefetchingRowset::ChargeQueueMem(int64_t bytes) {
  if (bytes <= 0) return;
  queued_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  if (profile_ != nullptr) profile_->mem.Add(bytes);
  if (query_mem_ != nullptr) query_mem_->Add(bytes);
}

void PrefetchingRowset::ReleaseQueueMem(int64_t bytes) {
  if (bytes <= 0) return;
  queued_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  if (profile_ != nullptr) profile_->mem.Release(bytes);
  if (query_mem_ != nullptr) query_mem_->Release(bytes);
}

void PrefetchingRowset::Stop() {
  // Closing the queue wakes a producer blocked in Push(); a producer blocked
  // inside inner_->NextBatch() finishes that (bounded) call, sees the closed
  // queue and exits. Either way the join below terminates: this is the path
  // that makes abandoning a rowset early (consumer error before drain) safe.
  queue_.Close();
  if (producer_.joinable()) {
    producer_.join();
    g_live_producers.fetch_sub(1, std::memory_order_acq_rel);
  }
  // Batches still parked in the closed queue will never be popped (early
  // abandon or restart discards them) — settle their charge.
  ReleaseQueueMem(queued_bytes_.load(std::memory_order_relaxed));
}

void PrefetchingRowset::ProducerLoop() {
  trace::Tracer::SetCurrentThreadName("prefetch");
  // Link traffic on this thread belongs to the operator that owns the
  // prefetching rowset; the consumer thread's sink cannot see it. Same for
  // link waits (wire time, retry backoff) paid inside inner_->NextBatch.
  net::ScopedChargeSink charge(
      profile_ != nullptr ? &profile_->link_charges : nullptr);
  waits::ScopedOperatorTally op_tally(
      profile_ != nullptr ? &profile_->wait_tally : nullptr);
  metrics::Histogram* depth =
      metrics::Registry::Global().GetHistogram("exec.prefetch.queue_depth");
  while (true) {
    RowBatch batch = TakeRecycled();
    Result<bool> has = inner_->NextBatch(&batch, batch_rows_);
    if (!has.ok()) {
      {
        std::lock_guard<std::mutex> lock(status_mu_);
        producer_status_ = has.status();
      }
      break;
    }
    if (!*has) break;
    if (stats_ != nullptr) stats_->remote_batches++;
    if (profile_ != nullptr) profile_->batches++;
    depth->Observe(static_cast<int64_t>(queue_.size()));
    // Charged before the push so the consumer's release never observes an
    // uncharged batch.
    const int64_t bytes = BatchMemBytes(batch);
    ChargeQueueMem(bytes);
    const bool pushed = queue_.Push(std::move(batch), [this](int64_t ticks) {
      // Producer outran the consumer: the remote stream is ahead and the
      // bounded buffer is what applied backpressure.
      waits::RecordWait(waits::WaitType::kPrefetchQueue, ticks,
                        profile_ != nullptr ? &profile_->wait_tally : nullptr);
    });
    if (!pushed) {
      ReleaseQueueMem(bytes);
      break;  // Consumer went away.
    }
  }
  queue_.Close();
}

Result<bool> PrefetchingRowset::Advance() {
  if (done_) {
    // Sticky: repeated Next() after an error keeps reporting it.
    std::lock_guard<std::mutex> lock(status_mu_);
    if (!producer_status_.ok()) return producer_status_;
    return false;
  }
  RowBatch batch;
  bool got = queue_.TryPop(&batch);
  if (!got) {
    got = queue_.Pop(&batch, [this](int64_t ticks) {
      waits::RecordWait(waits::WaitType::kPrefetchQueue, ticks,
                        profile_ != nullptr ? &profile_->wait_tally : nullptr);
    });
    // A blocking wait that produced a batch means the consumer outran the
    // producer — the pipeline stalled on the network.
    if (got && stats_ != nullptr) stats_->prefetch_stalls++;
  }
  if (!got) {
    done_ = true;
    std::lock_guard<std::mutex> lock(status_mu_);
    if (!producer_status_.ok()) return producer_status_;
    return false;
  }
  ReleaseQueueMem(BatchMemBytes(batch));
  Recycle(std::move(current_));  // Drained buffer re-enters the cycle.
  current_ = std::move(batch);
  pos_ = 0;
  return true;
}

void PrefetchingRowset::Recycle(RowBatch&& batch) {
  batch.clear();  // Keeps the row vector's capacity for the refill.
  std::lock_guard<std::mutex> lock(recycle_mu_);
  // Bounded: queue depth + in-flight covers the steady state; anything
  // beyond that would just pin memory.
  if (recycle_.size() < 8) recycle_.push_back(std::move(batch));
}

RowBatch PrefetchingRowset::TakeRecycled() {
  std::lock_guard<std::mutex> lock(recycle_mu_);
  if (recycle_.empty()) return RowBatch{};
  RowBatch batch = std::move(recycle_.back());
  recycle_.pop_back();
  return batch;
}

Result<bool> PrefetchingRowset::Next(Row* out) {
  if (pos_ >= current_.rows.size()) {
    DHQP_ASSIGN_OR_RETURN(bool has, Advance());
    if (!has) return false;
  }
  *out = std::move(current_.rows[pos_++]);
  return true;
}

Result<bool> PrefetchingRowset::NextBatch(RowBatch* out, int max_rows) {
  out->clear();
  if (max_rows <= 0) return false;
  if (pos_ >= current_.rows.size()) {
    DHQP_ASSIGN_OR_RETURN(bool has, Advance());
    if (!has) return false;
  }
  const size_t avail = current_.rows.size() - pos_;
  if (pos_ == 0 && avail <= static_cast<size_t>(max_rows)) {
    // Wholesale handoff — swapped, not moved, so the caller's (cleared)
    // buffer enters the recycle cycle on the next Advance().
    std::swap(*out, current_);
    current_.clear();
    return true;
  }
  // The consumer asked for less than is buffered (or resumes mid-batch
  // after a one-row Next pull): hand out exactly max_rows and keep the
  // tail.
  const size_t take = std::min(avail, static_cast<size_t>(max_rows));
  out->rows.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out->rows.push_back(std::move(current_.rows[pos_ + i]));
  }
  pos_ += take;
  return true;
}

Status PrefetchingRowset::Restart() {
  Stop();
  Status st = inner_->Restart();
  if (!st.ok()) return st;  // Caller reopens the source instead.
  {
    std::lock_guard<std::mutex> lock(status_mu_);
    producer_status_ = Status::OK();
  }
  queue_.Reset();
  current_.clear();
  pos_ = 0;
  done_ = false;
  Start();
  return Status::OK();
}

}  // namespace dhqp
