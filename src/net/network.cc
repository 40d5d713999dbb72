#include "src/net/network.h"

#include <thread>

#include "src/common/trace.h"
#include "src/common/waits.h"

namespace dhqp {
namespace net {

namespace {
// The calling thread's traffic-attribution target; see LinkChargeSink.
thread_local LinkChargeSink* t_charge_sink = nullptr;
}  // namespace

ScopedChargeSink::ScopedChargeSink(LinkChargeSink* sink) {
  if (sink == nullptr) return;
  prev_ = t_charge_sink;
  t_charge_sink = sink;
  installed_ = true;
}

ScopedChargeSink::~ScopedChargeSink() {
  if (installed_) t_charge_sink = prev_;
}

void Link::Delay(double microseconds) {
  if (!enforce_ || microseconds <= 0) return;
  auto until = std::chrono::steady_clock::now() +
               std::chrono::nanoseconds(static_cast<int64_t>(microseconds * 1e3));
  // Deadline-based spin with yield: sleep_for cannot hit microsecond targets
  // reliably, while a pure spin monopolizes a core — which would make link
  // waits on prefetch/parallel-branch threads block the consumer's progress
  // instead of overlapping with it. Yielding keeps the delay accurate (the
  // deadline is re-checked) and lets other runnable threads use the core.
  while (std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
}

void Link::ChargeMessage(size_t bytes) {
  messages_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  m_messages_->Increment();
  m_bytes_->Add(static_cast<int64_t>(bytes));
  if (LinkChargeSink* sink = t_charge_sink) {
    sink->messages.fetch_add(1, std::memory_order_relaxed);
    sink->bytes.fetch_add(static_cast<int64_t>(bytes),
                          std::memory_order_relaxed);
  }
  Delay(latency_us_ + us_per_kb_ * static_cast<double>(bytes) / 1024.0);
}

Status Link::SendMessage(size_t bytes) {
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  if (injector == nullptr) {
    // Happy path without a fault model: identical cost to ChargeMessage.
    trace::Span span("link.send", name_.c_str());
    waits::WaitScope wait(waits::WaitType::kLinkSend,
                          waits::CurrentOperatorTally());
    ChargeMessage(bytes);
    return Status::OK();
  }
  trace::Span send_span("link.send", name_.c_str());
  const RetryPolicy policy = retry_policy_;
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  const double wire_us =
      latency_us_ + us_per_kb_ * static_cast<double>(bytes) / 1024.0;
  double backoff_us = policy.backoff_us;
  LinkChargeSink* sink = t_charge_sink;
  Status last = Status::OK();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    FaultInjector::Decision d = injector->OnMessage();
    // Every attempt is a round trip on the wire, delivered or not.
    messages_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
    m_messages_->Increment();
    m_bytes_->Add(static_cast<int64_t>(bytes));
    if (sink != nullptr) {
      sink->messages.fetch_add(1, std::memory_order_relaxed);
      sink->bytes.fetch_add(static_cast<int64_t>(bytes),
                            std::memory_order_relaxed);
    }
    {
      // Per-attempt span, renamed to carry the fault attribution when the
      // attempt does not deliver ("link.attempt" -> timeout/fault/down).
      // Every attempt is one LINK_SEND wait (its wire/deadline time);
      // backoff sleeps between attempts are RETRY_BACKOFF — disjoint, so
      // the two never double-count one blocked interval.
      trace::Span attempt_span("link.attempt", name_.c_str());
      waits::WaitScope attempt_wait(waits::WaitType::kLinkSend,
                                    waits::CurrentOperatorTally());
      switch (d.kind) {
        case FaultKind::kNone:
        case FaultKind::kLatency: {
          const double total_us = wire_us + d.extra_latency_us;
          if (d.kind == FaultKind::kLatency && policy.deadline_us > 0 &&
              total_us > policy.deadline_us) {
            // The response would arrive past the deadline: the consumer
            // gives up at deadline_us and treats the message as lost.
            attempt_span.set_name("link.timeout");
            Delay(policy.deadline_us);
            timeouts_.fetch_add(1, std::memory_order_relaxed);
            faults_.fetch_add(1, std::memory_order_relaxed);
            m_timeouts_->Increment();
            m_faults_->Increment();
            if (sink != nullptr) {
              sink->timeouts.fetch_add(1, std::memory_order_relaxed);
              sink->faults.fetch_add(1, std::memory_order_relaxed);
            }
            last = Status::NetworkError("linked server '" + name_ +
                                        "': message timed out");
            break;
          }
          Delay(total_us);
          return Status::OK();
        }
        case FaultKind::kTransient:
          // A dropped message still costs the full round trip before the
          // sender concludes it was lost.
          attempt_span.set_name("link.fault");
          Delay(wire_us);
          faults_.fetch_add(1, std::memory_order_relaxed);
          m_faults_->Increment();
          if (sink != nullptr) {
            sink->faults.fetch_add(1, std::memory_order_relaxed);
          }
          last = Status::NetworkError("linked server '" + name_ +
                                      "': message dropped");
          break;
        case FaultKind::kLinkDown:
          // Permanent failure: retrying cannot help, fail fast so the
          // caller can tear the session down.
          attempt_span.set_name("link.down");
          faults_.fetch_add(1, std::memory_order_relaxed);
          m_faults_->Increment();
          if (sink != nullptr) {
            sink->faults.fetch_add(1, std::memory_order_relaxed);
          }
          return Status::NetworkError("linked server '" + name_ +
                                      "' is unreachable (link down)");
      }
    }
    if (attempt < max_attempts) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      m_retries_->Increment();
      if (sink != nullptr) {
        sink->retries.fetch_add(1, std::memory_order_relaxed);
      }
      trace::Span backoff_span("link.backoff", name_.c_str());
      waits::WaitScope backoff_wait(waits::WaitType::kRetryBackoff,
                                    waits::CurrentOperatorTally());
      Delay(backoff_us);
      backoff_us *= policy.backoff_multiplier;
      if (backoff_us > policy.max_backoff_us) backoff_us = policy.max_backoff_us;
    }
  }
  return Status::NetworkError(last.message() + " (" +
                              std::to_string(max_attempts) +
                              " attempts exhausted)");
}

void Link::ChargeRows(int64_t n, size_t bytes) {
  rows_.fetch_add(n, std::memory_order_relaxed);
  bytes_.fetch_add(static_cast<int64_t>(bytes), std::memory_order_relaxed);
  m_rows_->Add(n);
  m_bytes_->Add(static_cast<int64_t>(bytes));
  if (LinkChargeSink* sink = t_charge_sink) {
    sink->rows.fetch_add(n, std::memory_order_relaxed);
    sink->bytes.fetch_add(static_cast<int64_t>(bytes),
                          std::memory_order_relaxed);
  }
  Delay(us_per_kb_ * static_cast<double>(bytes) / 1024.0);
}

Result<bool> LinkedRowset::Fetch(RowBatch* out, int max_rows) {
  out->clear();
  DHQP_RETURN_NOT_OK(error_);
  Result<bool> has = inner_->NextBatch(out, max_rows);
  if (has.ok() && *has) {
    size_t bytes = 0;
    for (const Row& row : out->rows) bytes += RowWireSize(row);
    Status sent = link_->SendMessage(bytes);
    if (sent.ok()) {
      link_->ChargeRows(static_cast<int64_t>(out->rows.size()), 0);
      return true;
    }
    has = sent;
  }
  out->clear();
  if (!has.ok()) error_ = has.status();
  return has;
}

Result<bool> LinkedRowset::Next(Row* out) {
  if (pos_ == block_.rows.size()) {
    pos_ = 0;
    DHQP_ASSIGN_OR_RETURN(bool has, Fetch(&block_, batch_rows_));
    if (!has) return false;
  }
  *out = std::move(block_.rows[pos_++]);
  return true;
}

Result<bool> LinkedRowset::NextBatch(RowBatch* out, int max_rows) {
  if (pos_ == block_.rows.size()) return Fetch(out, max_rows);
  // The rest of a block Next() started: already fetched and charged.
  out->clear();
  while (pos_ < block_.rows.size() &&
         static_cast<int>(out->rows.size()) < max_rows) {
    out->rows.push_back(std::move(block_.rows[pos_++]));
  }
  return !out->rows.empty();
}

Status LinkedRowset::Restart() {
  DHQP_RETURN_NOT_OK(inner_->Restart());
  block_.clear();
  pos_ = 0;
  error_ = Status::OK();
  return Status::OK();
}

}  // namespace net
}  // namespace dhqp
