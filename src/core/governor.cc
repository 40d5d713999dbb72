#include "src/core/governor.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/common/fastclock.h"
#include "src/common/metrics.h"
#include "src/common/waits.h"
#include "src/executor/profile.h"

namespace dhqp {
namespace governor {

namespace {

/// governor.* instruments, resolved once (registry pointers are stable).
struct Instruments {
  metrics::Counter* grants;
  metrics::Counter* queued;
  metrics::Counter* timeouts;
  metrics::Gauge* granted_bytes;
  metrics::Gauge* active;
  metrics::Gauge* queue_length;
};

Instruments& Instr() {
  static Instruments instr = [] {
    auto& reg = metrics::Registry::Global();
    Instruments i;
    i.grants = reg.GetCounter("governor.grants");
    i.queued = reg.GetCounter("governor.queued");
    i.timeouts = reg.GetCounter("governor.grant_timeouts");
    i.granted_bytes = reg.GetGauge("governor.granted_bytes");
    i.active = reg.GetGauge("governor.active_grants");
    i.queue_length = reg.GetGauge("governor.queue_length");
    return i;
  }();
  return instr;
}

void AddOpGrant(const PhysicalOp& op, const ExecOptions& exec,
                int64_t* total) {
  switch (op.kind) {
    case PhysicalOpKind::kHashJoin: {
      // Build side (the right child) is fully resident: each row with the
      // key copy the table stores beside it. Parallel instances partition
      // the same build rows, so dop does not scale the total.
      const PhysicalOp& build = *op.children[1];
      std::vector<DataType> key_types;
      for (const auto& pair : op.key_pairs) {
        key_types.push_back(pair.second->type);
      }
      const double rows = std::max(1.0, build.estimated_rows);
      *total += static_cast<int64_t>(
          rows * static_cast<double>(HashJoinEntryBytes(
                     EstRowBytes(build.output_types), EstRowBytes(key_types))));
      break;
    }
    case PhysicalOpKind::kHashAggregate: {
      // One entry per output group (its key is the output row's prefix);
      // instances under a repartition exchange hold disjoint groups, so
      // again no dop scaling.
      const double groups = std::max(1.0, op.estimated_rows);
      const std::vector<DataType> key_types(
          op.output_types.begin(),
          op.output_types.begin() +
              static_cast<ptrdiff_t>(op.group_by.size()));
      *total += static_cast<int64_t>(
          groups * static_cast<double>(HashGroupBytes(
                       EstRowBytes(key_types), op.aggregates.size())));
      break;
    }
    case PhysicalOpKind::kSort:
    case PhysicalOpKind::kSpool: {
      // Full input materialization.
      const PhysicalOp& child = *op.children[0];
      const double rows = std::max(1.0, child.estimated_rows);
      *total += static_cast<int64_t>(
          rows * static_cast<double>(EstRowBytes(child.output_types)));
      break;
    }
    case PhysicalOpKind::kExchange: {
      // Queue stash: depth batches of exec_batch_rows rows per partition
      // stream — the one footprint that scales with dop.
      const int64_t streams = std::max(1, op.dop);
      const int64_t batch_rows = exec.batch_rows();
      *total += streams * exec.queue_depth() * batch_rows *
                EstRowBytes(op.output_types);
      break;
    }
    default:
      break;
  }
  for (const auto& child : op.children) AddOpGrant(*child, exec, total);
}

}  // namespace

int64_t EstimateGrantBytes(const PhysicalOpPtr& plan,
                           const ExecOptions& exec) {
  if (plan == nullptr) return 0;
  int64_t total = 0;
  AddOpGrant(*plan, exec, &total);
  return total;
}

MemoryGrant& MemoryGrant::operator=(MemoryGrant&& other) noexcept {
  if (this != &other) {
    Release();
    governor_ = other.governor_;
    id_ = other.id_;
    requested_bytes_ = other.requested_bytes_;
    granted_bytes_ = other.granted_bytes_;
    degraded_ = other.degraded_;
    other.governor_ = nullptr;
    other.granted_bytes_ = 0;
  }
  return *this;
}

void MemoryGrant::Release() {
  if (governor_ == nullptr) return;
  governor_->Release(id_);
  governor_ = nullptr;
}

Governor& Governor::Global() {
  static Governor* governor = new Governor();  // Leaked.
  return *governor;
}

uint64_t Governor::FrontTicketLocked() const {
  uint64_t front = 0;
  for (const auto& [id, e] : entries_) {
    if (e.granted_bytes > 0) continue;
    if (front == 0 || e.ticket < front) front = e.ticket;
  }
  return front;
}

void Governor::UpdateGaugesLocked() {
  Instr().granted_bytes->Set(total_granted_);
  Instr().active->Set(active_grants_);
  Instr().queue_length->Set(queued_);
}

MemoryGrant Governor::Acquire(
    const GovernorOptions& opts, int64_t estimate_bytes,
    const std::shared_ptr<sysview::RequestState>& request) {
  if (opts.max_server_memory_bytes <= 0) return MemoryGrant();

  const int64_t budget = opts.max_server_memory_bytes;
  int64_t per_query = opts.max_grant_per_query_bytes > 0
                          ? std::min(opts.max_grant_per_query_bytes, budget)
                          : budget;
  int64_t min_grant =
      std::min(opts.min_grant_bytes > 0 ? opts.min_grant_bytes : 1, per_query);
  if (min_grant <= 0) min_grant = 1;
  const int64_t ask =
      std::min(per_query, std::max(min_grant, estimate_bytes));

  std::unique_lock<std::mutex> lock(mu_);
  const int64_t id = next_id_++;
  GrantEntry& e = entries_[id];
  e.id = id;
  e.ticket = next_ticket_++;
  e.request = request;
  e.requested_bytes = ask;
  e.original_bytes = ask;
  e.enqueue_ns = fastclock::NowNs();

  auto fits = [&]() {
    if (opts.max_concurrent_grants > 0 &&
        active_grants_ >= opts.max_concurrent_grants) {
      return false;
    }
    if (total_granted_ + e.requested_bytes > budget) return false;
    return FrontTicketLocked() == e.ticket;  // Strict FIFO: no starvation.
  };

  if (!fits()) {
    Instr().queued->Increment();
    ++queued_;
    UpdateGaugesLocked();
    waits::BlockTimer timer;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(std::max<int64_t>(0, opts.grant_timeout_ms));
    bool timed_out = false;
    while (!fits()) {
      if (!timed_out) {
        if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
          timed_out = true;
          if (min_grant < e.requested_bytes) {
            e.requested_bytes = min_grant;
            e.degraded = true;
            Instr().timeouts->Increment();
          }
        }
      } else {
        cv_.wait(lock);
      }
    }
    --queued_;
    waits::RecordWait(waits::WaitType::kResourceSemaphore, timer.Elapsed());
  }

  e.granted_bytes = e.requested_bytes;
  e.grant_ns = fastclock::NowNs();
  e.request->requested_grant_bytes.store(e.original_bytes,
                                         std::memory_order_relaxed);
  e.request->granted_bytes.store(e.granted_bytes, std::memory_order_relaxed);
  total_granted_ += e.granted_bytes;
  ++active_grants_;
  Instr().grants->Increment();
  UpdateGaugesLocked();
  // Our dequeue may unblock the next FIFO head.
  cv_.notify_all();
  return MemoryGrant(this, id, e.original_bytes, e.granted_bytes, e.degraded);
}

void Governor::Release(int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  if (it->second.granted_bytes > 0) {
    total_granted_ -= it->second.granted_bytes;
    --active_grants_;
  }
  sysview::RequestState& request = *it->second.request;
  request.requested_grant_bytes.store(0, std::memory_order_relaxed);
  request.granted_bytes.store(0, std::memory_order_relaxed);
  entries_.erase(it);
  UpdateGaugesLocked();
  cv_.notify_all();
}

std::vector<GrantRow> Governor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint64_t, GrantRow>> rows;
  rows.reserve(entries_.size());
  const int64_t now_ns = fastclock::NowNs();
  for (const auto& [id, e] : entries_) {
    GrantRow row;
    row.grant_id = e.id;
    row.request = e.request;
    row.is_queued = e.granted_bytes == 0;
    row.requested_bytes = e.original_bytes;
    row.granted_bytes = e.granted_bytes;
    row.wait_ns = (e.grant_ns > 0 ? e.grant_ns : now_ns) - e.enqueue_ns;
    row.degraded = e.degraded;
    // Queued entries sort before granted ones, each group in FIFO order.
    const uint64_t order =
        (row.is_queued ? 0 : (uint64_t{1} << 63)) | e.ticket;
    rows.emplace_back(order, std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<GrantRow> out;
  out.reserve(rows.size());
  for (auto& [order, row] : rows) out.push_back(std::move(row));
  return out;
}

int64_t Governor::total_granted_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_granted_;
}

int64_t Governor::active_grants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_grants_;
}

int64_t Governor::queued_statements() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

}  // namespace governor
}  // namespace dhqp
