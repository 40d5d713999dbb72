#include "src/executor/exchange.h"

#include <algorithm>
#include <utility>

#include "src/common/activity.h"
#include "src/common/row.h"
#include "src/common/trace.h"
#include "src/common/waits.h"

namespace dhqp {

namespace {

int64_t BatchMemBytes(const RowBatch& batch) {
  int64_t bytes = 0;
  for (const Row& row : batch.rows) bytes += RowMemBytes(row);
  return bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// ExchangeSegmentRegistry.
// ---------------------------------------------------------------------------

std::shared_ptr<ExchangeSegment> ExchangeSegmentRegistry::GetOrCreate(
    int ordinal,
    const std::function<std::shared_ptr<ExchangeSegment>()>& factory) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(ordinal);
  if (it != segments_.end()) return it->second;
  auto segment = factory();
  segments_[ordinal] = segment;
  return segment;
}

void ExchangeSegmentRegistry::Clear() {
  std::map<int, std::shared_ptr<ExchangeSegment>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dropped.swap(segments_);
  }
  // Destructors (→ Stop) run outside the registry lock.
}

// ---------------------------------------------------------------------------
// ExchangeSegment.
// ---------------------------------------------------------------------------

ExchangeSegment::ExchangeSegment(PhysicalOpPtr op, ExecContext* ctx,
                                 OperatorProfile* child_profile,
                                 OperatorProfile* exchange_profile)
    : op_(std::move(op)),
      ctx_(ctx),
      child_profile_(child_profile),
      exchange_profile_(exchange_profile) {
  const PhysicalOp& child = *op_->children[0];
  producers_ = std::max(child.dop, 1);
  consumers_ = std::max(op_->dop, 1);
  for (int key : op_->exchange_keys) {
    auto it = std::find(child.output_cols.begin(), child.output_cols.end(),
                        key);
    key_pos_.push_back(it == child.output_cols.end()
                           ? 0
                           : static_cast<int>(it - child.output_cols.begin()));
  }
  size_t depth = static_cast<size_t>(
      std::max(ctx_->options.prefetch_queue_depth, 1));
  queues_.reserve(static_cast<size_t>(consumers_));
  for (int c = 0; c < consumers_; ++c) {
    queues_.push_back(std::make_unique<BoundedQueue<RowBatch>>(depth));
  }
  recycle_cap_ = static_cast<size_t>(producers_ + consumers_) +
                 depth * static_cast<size_t>(consumers_);
}

ExchangeSegment::~ExchangeSegment() {
  Stop();
  // Batches still parked in closed queues (early-abandoned segment, e.g.
  // under Top) die with the queues — settle their charge.
  const int64_t leftover = queued_bytes_.exchange(0, std::memory_order_relaxed);
  if (leftover > 0) {
    exchange_profile_->mem.Release(leftover);
    if (ctx_->memory != nullptr) ctx_->memory->Release(leftover);
  }
}

void ExchangeSegment::ChargeQueueMem(int64_t bytes) {
  if (bytes <= 0) return;
  queued_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  exchange_profile_->mem.Add(bytes);
  if (ctx_->memory != nullptr) ctx_->memory->Add(bytes);
}

void ExchangeSegment::ReleaseQueueMem(int64_t bytes) {
  if (bytes <= 0) return;
  queued_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  exchange_profile_->mem.Release(bytes);
  if (ctx_->memory != nullptr) ctx_->memory->Release(bytes);
}

void ExchangeSegment::Start() {
  std::lock_guard<std::mutex> lock(start_mu_);
  if (started_) return;
  started_ = true;
  active_.store(producers_);
  threads_.reserve(static_cast<size_t>(producers_));
  // Producers run on the launching query's behalf: its wait tally and
  // activity id (installed on the thread calling Start — the consumer, or
  // an enclosing fragment's producer for nested segments) transfer to each
  // worker.
  for (int p = 0; p < producers_; ++p) {
    threads_.emplace_back([this, p, query_waits = waits::CurrentQueryTally(),
                           aid = activity::Current(),
                           etag = trace::CurrentEngineTag()] {
      trace::Tracer::SetCurrentThreadName("exchange.worker" +
                                          std::to_string(p));
      waits::ScopedQueryTally tally(query_waits);
      activity::Scope act(aid);
      trace::EngineTagScope engine_tag(etag);
      ProducerLoop(p);
    });
  }
}

void ExchangeSegment::ProducerLoop(int p) {
  Status status = RunProducer(p);
  if (!status.ok()) {
    RecordError(status);
    CloseAll();  // Fail fast: peers stop at their next Push.
  }
  if (active_.fetch_sub(1) == 1) CloseAll();  // Last producer out.
}

Status ExchangeSegment::RunProducer(int p) {
  FragmentContext frag;
  frag.partition = p;
  frag.dop = producers_;
  frag.exchanges = &nested_;
  DHQP_ASSIGN_OR_RETURN(
      std::unique_ptr<ExecNode> tree,
      BuildFragmentTree(op_->children[0], ctx_, child_profile_, frag));
  // Exchange workers count as parallel branches.
  ctx_->stats.parallel_branches.fetch_add(1, std::memory_order_relaxed);
  DHQP_RETURN_NOT_OK(tree->Open());
  const int batch_rows = ctx_->options.batch_rows();
  if (op_->exchange == ExchangeKind::kRepartitionHash) {
    return PumpRepartition(tree.get(), batch_rows);
  }
  return PumpGatherOrDistribute(tree.get(), p, batch_rows);
}

Status ExchangeSegment::PumpGatherOrDistribute(ExecNode* tree, int p,
                                               int batch_rows) {
  // Gather funnels into queue 0; distribute rotates whole batches, each
  // producer starting at its own offset to spread load.
  int target = op_->exchange == ExchangeKind::kGather ? 0 : p % consumers_;
  for (;;) {
    RowBatch batch = TakeRecycled();
    DHQP_ASSIGN_OR_RETURN(bool has, tree->NextBatch(&batch, batch_rows));
    if (!has) return Status::OK();
    if (!PushBatch(target, std::move(batch))) return Status::OK();
    if (op_->exchange == ExchangeKind::kDistribute) {
      target = (target + 1) % consumers_;
    }
  }
}

Status ExchangeSegment::PumpRepartition(ExecNode* tree, int batch_rows) {
  std::vector<RowBatch> accum(static_cast<size_t>(consumers_));
  RowBatch pulled;
  for (;;) {
    DHQP_ASSIGN_OR_RETURN(bool has, tree->NextBatch(&pulled, batch_rows));
    if (!has) break;
    for (Row& row : pulled.rows) {
      size_t c = HashRowKeys(row, key_pos_) % static_cast<size_t>(consumers_);
      accum[c].rows.push_back(std::move(row));
      if (static_cast<int>(accum[c].rows.size()) >= batch_rows) {
        RowBatch full = std::move(accum[c]);
        accum[c] = TakeRecycled();
        if (!PushBatch(static_cast<int>(c), std::move(full))) {
          return Status::OK();
        }
      }
    }
    pulled.clear();
  }
  for (size_t c = 0; c < accum.size(); ++c) {
    if (accum[c].rows.empty()) continue;
    if (!PushBatch(static_cast<int>(c), std::move(accum[c]))) {
      return Status::OK();
    }
  }
  return Status::OK();
}

Result<bool> ExchangeSegment::Pop(int partition, RowBatch* out) {
  BoundedQueue<RowBatch>& queue = *queues_[static_cast<size_t>(partition)];
  bool got = queue.TryPop(out);
  if (!got) {
    ctx_->stats.prefetch_stalls.fetch_add(1, std::memory_order_relaxed);
    got = queue.Pop(out, [this](int64_t ticks) {
      waits::RecordWait(waits::WaitType::kExchangeQueuePop, ticks,
                        &exchange_profile_->wait_tally);
    });
  }
  if (got) {
    ReleaseQueueMem(BatchMemBytes(*out));
    return true;
  }
  // Closed and drained: settle the producers, then surface any error —
  // after the buffered rows, exactly where a serial consumer sees it.
  JoinAll();
  std::lock_guard<std::mutex> lock(error_mu_);
  if (!first_error_.ok()) return first_error_;
  return false;
}

void ExchangeSegment::Recycle(RowBatch&& batch) {
  batch.clear();
  std::lock_guard<std::mutex> lock(recycle_mu_);
  if (recycle_.size() < recycle_cap_) recycle_.push_back(std::move(batch));
}

RowBatch ExchangeSegment::TakeRecycled() {
  std::lock_guard<std::mutex> lock(recycle_mu_);
  if (recycle_.empty()) return RowBatch{};
  RowBatch batch = std::move(recycle_.back());
  recycle_.pop_back();
  return batch;
}

bool ExchangeSegment::PushBatch(int queue, RowBatch&& batch) {
  // Charge before the push so the consumer's release (which may run the
  // instant the push lands) never observes an uncharged batch.
  const int64_t bytes = BatchMemBytes(batch);
  ChargeQueueMem(bytes);
  const bool pushed = queues_[static_cast<size_t>(queue)]->Push(
      std::move(batch), [this](int64_t ticks) {
        waits::RecordWait(waits::WaitType::kExchangeQueuePush, ticks,
                          &exchange_profile_->wait_tally);
      });
  if (!pushed) {
    ReleaseQueueMem(bytes);
    return false;
  }
  ctx_->stats.exchange_batches.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ExchangeSegment::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.ok()) first_error_ = status;
}

void ExchangeSegment::CloseAll() {
  for (auto& queue : queues_) queue->Close();
}

void ExchangeSegment::JoinAll() {
  std::lock_guard<std::mutex> lock(join_mu_);
  if (joined_) return;
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  joined_ = true;
}

void ExchangeSegment::Stop() {
  CloseAll();
  JoinAll();
  // Producers have exited, so their trees released the nested segments;
  // any the registry still holds stop in their destructors here.
  nested_.Clear();
}

// ---------------------------------------------------------------------------
// ExchangeNode.
// ---------------------------------------------------------------------------

ExchangeNode::ExchangeNode(PhysicalOpPtr op, ExecContext* ctx,
                           OperatorProfile* child_profile,
                           ExchangeSegmentRegistry* registry, int ordinal,
                           int partition)
    : ExecNode(std::move(op)),
      ctx_(ctx),
      child_profile_(child_profile),
      registry_(registry),
      ordinal_(ordinal),
      partition_(partition) {}

Status ExchangeNode::Open() {
  if (segment_ == nullptr) {
    auto factory = [this] {
      return std::make_shared<ExchangeSegment>(op_, ctx_, child_profile_,
                                               profile());
    };
    segment_ =
        registry_ != nullptr ? registry_->GetOrCreate(ordinal_, factory)
                             : factory();
  }
  if (partition_ < 0 || partition_ >= segment_->consumers()) {
    return Status::Internal("exchange consumer partition " +
                            std::to_string(partition_) + " out of range");
  }
  segment_->Start();
  current_.clear();
  pos_ = 0;
  done_ = false;
  return Status::OK();
}

Result<bool> ExchangeNode::FillCurrent() {
  while (pos_ >= current_.rows.size()) {
    if (!current_.rows.empty()) {
      segment_->Recycle(std::move(current_));
      current_ = RowBatch{};
    }
    pos_ = 0;
    DHQP_ASSIGN_OR_RETURN(bool has, segment_->Pop(partition_, &current_));
    if (!has) {
      done_ = true;
      return false;
    }
  }
  return true;
}

Result<bool> ExchangeNode::NextBatch(RowBatch* out, int max_rows) {
  out->clear();
  if (done_ || max_rows <= 0) return false;
  DHQP_ASSIGN_OR_RETURN(bool has, FillCurrent());
  if (!has) return false;
  if (pos_ == 0 && static_cast<int>(current_.rows.size()) <= max_rows) {
    // Wholesale handoff: the batch crosses without a row copy (the buffer
    // leaves the recycle cycle with it).
    *out = std::move(current_);
    current_ = RowBatch{};
    return true;
  }
  size_t n = current_.rows.size() - pos_;
  if (n > static_cast<size_t>(max_rows)) n = static_cast<size_t>(max_rows);
  out->rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out->rows.push_back(std::move(current_.rows[pos_ + i]));
  }
  pos_ += n;
  if (pos_ >= current_.rows.size()) {
    segment_->Recycle(std::move(current_));
    current_ = RowBatch{};
    pos_ = 0;
  }
  return true;
}

}  // namespace dhqp
