#include "src/executor/prefetch.h"

#include "src/common/metrics.h"

namespace dhqp {

PrefetchingRowset::PrefetchingRowset(std::unique_ptr<Rowset> inner,
                                     const ExecOptions& options,
                                     OperatorProfile* profile,
                                     MemTracker* query_mem)
    : inner_(std::move(inner)),
      schema_(inner_->schema()),
      options_(options),
      profile_(profile),
      query_mem_(query_mem) {
  Start();
}

PrefetchingRowset::~PrefetchingRowset() { Stop(); }

void PrefetchingRowset::Start() {
  queue_.emplace(options_, profile_, query_mem_,
                 waits::WaitType::kPrefetchQueue,
                 waits::WaitType::kPrefetchQueue);
  producer_.Launch("prefetch", [this] { ProducerLoop(); });
}

void PrefetchingRowset::Stop() {
  // Closing the queue wakes a producer blocked in Push(); a producer blocked
  // inside inner_->NextBatch() finishes that (bounded) call, sees the closed
  // queue and exits. Either way the join terminates: this is the path that
  // makes abandoning a rowset early (consumer error before drain) safe.
  queue_->Close();
  producer_.JoinAll();
}

void PrefetchingRowset::ProducerLoop() {
  // Link traffic on this thread belongs to the operator that owns the
  // prefetching rowset; the consumer thread's sink cannot see it. Same for
  // link waits (wire time, retry backoff) paid inside inner_->NextBatch.
  net::ScopedChargeSink charge(
      profile_ != nullptr ? &profile_->link_charges : nullptr);
  waits::ScopedOperatorTally op_tally(
      profile_ != nullptr ? &profile_->wait_tally : nullptr);
  metrics::Histogram* depth =
      metrics::Registry::Global().GetHistogram("exec.prefetch.queue_depth");
  const int batch_rows =
      options_.remote_batch_rows > 0 ? options_.remote_batch_rows : 256;
  while (true) {
    RowBatch batch = queue_->TakeBuffer();
    Result<bool> has = inner_->NextBatch(&batch, batch_rows);
    if (!has.ok()) {
      queue_->Fail(has.status());
      return;
    }
    if (!*has) break;
    if (profile_ != nullptr) profile_->batches++;
    depth->Observe(static_cast<int64_t>(queue_->size()));
    if (!queue_->Push(std::move(batch))) return;  // Consumer went away.
  }
  queue_->Close();
}

Result<bool> PrefetchingRowset::Next(Row* out) {
  DHQP_ASSIGN_OR_RETURN(bool has, queue_->NextBatch(&row_, 1));
  if (!has) return false;
  *out = std::move(row_.rows[0]);
  return true;
}

Result<bool> PrefetchingRowset::NextBatch(RowBatch* out, int max_rows) {
  return queue_->NextBatch(out, max_rows);
}

Status PrefetchingRowset::Restart() {
  Stop();
  Status st = inner_->Restart();
  if (!st.ok()) return st;  // Caller reopens the source instead.
  Start();
  return Status::OK();
}

}  // namespace dhqp
