#include "src/executor/exchange.h"

#include <algorithm>
#include <utility>

#include "src/common/row.h"
#include "src/common/waits.h"

namespace dhqp {

// ---------------------------------------------------------------------------
// ExchangeSegmentRegistry.
// ---------------------------------------------------------------------------

std::shared_ptr<ExchangeSegment> ExchangeSegmentRegistry::GetOrCreate(
    const OperatorProfile* slot,
    const std::function<std::shared_ptr<ExchangeSegment>()>& factory) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(slot);
  if (it != segments_.end()) return it->second;
  auto segment = factory();
  segments_[slot] = segment;
  return segment;
}

void ExchangeSegmentRegistry::Clear() {
  std::map<const OperatorProfile*, std::shared_ptr<ExchangeSegment>> dropped;
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
  queues_.reserve(static_cast<size_t>(consumers_));
  for (int c = 0; c < consumers_; ++c) {
    queues_.push_back(std::make_unique<BatchQueue>(
        ctx_->options, exchange_profile, ctx_->memory,
        waits::WaitType::kExchangeQueuePush,
        waits::WaitType::kExchangeQueuePop));
  }
}

ExchangeSegment::~ExchangeSegment() { Stop(); }

void ExchangeSegment::Start() {
  std::lock_guard<std::mutex> lock(start_mu_);
  if (started_) return;
  started_ = true;
  active_.store(producers_);
  for (int p = 0; p < producers_; ++p) {
    workers_.Launch("exchange.worker" + std::to_string(p),
                    [this, p] { ProducerLoop(p); });
  }
}

void ExchangeSegment::ProducerLoop(int p) {
  Status status = RunProducer(p);
  if (!status.ok()) {
    // Fail fast: peers stop at their next Push.
    for (auto& queue : queues_) queue->Fail(status);
  }
  if (active_.fetch_sub(1) == 1) {  // Last producer out.
    for (auto& queue : queues_) queue->Close();
  }
}

Status ExchangeSegment::RunProducer(int p) {
  FragmentContext frag;
  frag.partition = p;
  frag.dop = producers_;
  frag.exchanges = &nested_;
  DHQP_ASSIGN_OR_RETURN(
      std::unique_ptr<ExecNode> tree,
      BuildFragmentTree(op_->children[0], ctx_, child_profile_, frag));
  // Each worker opens its fragment once: the child slot's opens count the
  // workers (ExecStats::parallel_branches).
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
    RowBatch batch = queues_[static_cast<size_t>(target)]->TakeBuffer();
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
        accum[c] = queues_[c]->TakeBuffer();
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

bool ExchangeSegment::PushBatch(int queue, RowBatch&& batch) {
  if (!queues_[static_cast<size_t>(queue)]->Push(std::move(batch))) {
    return false;
  }
  exchange_profile_->exchange_batches.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ExchangeSegment::Stop() {
  for (auto& queue : queues_) queue->Close();
  workers_.JoinAll();
  // Producers have exited, so their trees released the nested segments;
  // any the registry still holds stop in their destructors here.
  nested_.Clear();
}

// ---------------------------------------------------------------------------
// ExchangeNode.
// ---------------------------------------------------------------------------

ExchangeNode::ExchangeNode(PhysicalOpPtr op, ExecContext* ctx,
                           ExchangeSegmentRegistry* registry, int partition)
    : ExecNode(std::move(op)),
      ctx_(ctx),
      registry_(registry),
      partition_(partition) {}

Status ExchangeNode::Open() {
  if (segment_ == nullptr) {
    auto factory = [this] {
      return std::make_shared<ExchangeSegment>(
          op_, ctx_, profile()->children[0].get(), profile());
    };
    segment_ = registry_ != nullptr ? registry_->GetOrCreate(profile(), factory)
                                    : factory();
  }
  if (partition_ < 0 || partition_ >= segment_->consumers()) {
    return Status::Internal("exchange consumer partition " +
                            std::to_string(partition_) + " out of range");
  }
  segment_->Start();
  return Status::OK();
}

}  // namespace dhqp
