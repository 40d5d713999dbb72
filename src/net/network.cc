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

void Link::Charge(const LinkStats& charge) {
  LinkChargeSink* sink = t_charge_sink;
  auto add = [sink, this](int64_t n, std::atomic<int64_t> LinkChargeSink::*f,
                          metrics::Counter* mirror) {
    if (n == 0) return;
    (totals_.*f).fetch_add(n, std::memory_order_relaxed);
    mirror->Add(n);
    if (sink != nullptr) (sink->*f).fetch_add(n, std::memory_order_relaxed);
  };
  add(charge.messages, &LinkChargeSink::messages, m_messages_);
  add(charge.rows, &LinkChargeSink::rows, m_rows_);
  add(charge.bytes, &LinkChargeSink::bytes, m_bytes_);
  add(charge.retries, &LinkChargeSink::retries, m_retries_);
  add(charge.timeouts, &LinkChargeSink::timeouts, m_timeouts_);
  add(charge.faults, &LinkChargeSink::faults, m_faults_);
}

void Link::ChargeMessage(size_t bytes) {
  Charge({.messages = 1, .bytes = static_cast<int64_t>(bytes)});
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
  Status last = Status::OK();
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    FaultInjector::Decision d = injector->OnMessage();
    // Every attempt is a round trip on the wire, delivered or not.
    Charge({.messages = 1, .bytes = static_cast<int64_t>(bytes)});
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
            Charge({.timeouts = 1, .faults = 1});
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
          Charge({.faults = 1});
          last = Status::NetworkError("linked server '" + name_ +
                                      "': message dropped");
          break;
        case FaultKind::kLinkDown:
          // Permanent failure: retrying cannot help, fail fast so the
          // caller can tear the session down.
          attempt_span.set_name("link.down");
          Charge({.faults = 1});
          return Status::NetworkError("linked server '" + name_ +
                                      "' is unreachable (link down)");
      }
    }
    if (attempt < max_attempts) {
      Charge({.retries = 1});
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
  Charge({.rows = n, .bytes = static_cast<int64_t>(bytes)});
  Delay(us_per_kb_ * static_cast<double>(bytes) / 1024.0);
}

Result<bool> LinkedRowset::NextBatch(RowBatch* out, int max_rows) {
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

Status LinkedRowset::Restart() {
  DHQP_RETURN_NOT_OK(inner_->Restart());
  error_ = Status::OK();
  return Status::OK();
}

}  // namespace net
}  // namespace dhqp
