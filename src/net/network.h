#ifndef DHQP_NET_NETWORK_H_
#define DHQP_NET_NETWORK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/metrics.h"
#include "src/net/fault.h"
#include "src/provider/provider.h"

namespace dhqp {
namespace net {

/// Accumulated traffic counters for one link. The benches report these
/// alongside wall time: the paper's remote cost model is about minimizing
/// exactly this (§4.1.3: "finding plans with minimal network traffic").
struct LinkStats {
  int64_t messages = 0;  ///< Round trips, including failed/retried attempts.
  int64_t rows = 0;      ///< Rows shipped to the consumer.
  int64_t bytes = 0;     ///< Approximate payload bytes.
  int64_t retries = 0;   ///< Resends after a failed attempt (SendMessage).
  int64_t timeouts = 0;  ///< Attempts that exceeded RetryPolicy::deadline_us.
  int64_t faults = 0;    ///< Attempts that failed due to an injected fault.

  /// Counter-snapshot arithmetic: per-query (and per-operator) accounting
  /// works on before/after deltas of shared link counters — links outlive
  /// queries — so snapshots compose with += and difference with -.
  LinkStats& operator+=(const LinkStats& o) {
    messages += o.messages;
    rows += o.rows;
    bytes += o.bytes;
    retries += o.retries;
    timeouts += o.timeouts;
    faults += o.faults;
    return *this;
  }
  LinkStats operator-(const LinkStats& o) const {
    LinkStats d;
    d.messages = messages - o.messages;
    d.rows = rows - o.rows;
    d.bytes = bytes - o.bytes;
    d.retries = retries - o.retries;
    d.timeouts = timeouts - o.timeouts;
    d.faults = faults - o.faults;
    return d;
  }
};

/// Attribution target for link traffic: whatever sink is installed on the
/// *calling thread* when a Link charges a message/rows also receives the
/// charge. The executor installs the owning operator's sink around remote
/// operator calls (and the prefetch producer installs it for its loop), so
/// per-operator profiles see exactly the traffic — including retries,
/// timeouts, and injected faults — their subtree caused, even though links
/// are shared across operators and queries. Atomics: several threads
/// (consumer + producer) can charge the same operator's sink concurrently.
struct LinkChargeSink {
  std::atomic<int64_t> messages{0};
  std::atomic<int64_t> rows{0};
  std::atomic<int64_t> bytes{0};
  std::atomic<int64_t> retries{0};
  std::atomic<int64_t> timeouts{0};
  std::atomic<int64_t> faults{0};
};

/// RAII installer for the calling thread's LinkChargeSink. Nesting works:
/// the innermost installed sink wins (exactly the operator doing the remote
/// call), and the previous sink is restored on destruction. A null sink is
/// a no-op.
class ScopedChargeSink {
 public:
  explicit ScopedChargeSink(LinkChargeSink* sink);
  ~ScopedChargeSink();
  ScopedChargeSink(const ScopedChargeSink&) = delete;
  ScopedChargeSink& operator=(const ScopedChargeSink&) = delete;

 private:
  LinkChargeSink* prev_ = nullptr;
  bool installed_ = false;
};

/// A simulated network link between the DHQP host and one linked server.
/// Counts traffic, and optionally enforces real delays (spin-wait with
/// microsecond resolution) so wall-clock benchmarks reflect network shape at
/// laptop scale. Counters are atomic: prefetch threads and parallel
/// partitioned-view branches charge links concurrently with the consumer.
class Link {
 public:
  /// `latency_us` — per-message round-trip cost; `us_per_kb` — serialization
  /// cost per kilobyte; `enforce_delays` — when false the link only counts.
  Link(std::string name, double latency_us = 0, double us_per_kb = 0,
       bool enforce_delays = false)
      : name_(std::move(name)),
        latency_us_(latency_us),
        us_per_kb_(us_per_kb),
        enforce_(enforce_delays) {
    // Mirror the per-link counters into the process-wide metrics registry
    // ("link.<name>.*"); pointers are stable, so charging stays lock-free.
    metrics::Registry& reg = metrics::Registry::Global();
    m_messages_ = reg.GetCounter("link." + name_ + ".messages");
    m_rows_ = reg.GetCounter("link." + name_ + ".rows");
    m_bytes_ = reg.GetCounter("link." + name_ + ".bytes");
    m_retries_ = reg.GetCounter("link." + name_ + ".retries");
    m_timeouts_ = reg.GetCounter("link." + name_ + ".timeouts");
    m_faults_ = reg.GetCounter("link." + name_ + ".faults");
  }

  const std::string& name() const { return name_; }
  /// Per-counter-atomic snapshot. Each field is read atomically, but the
  /// struct is NOT a consistent cross-counter snapshot: a concurrent charger
  /// can land between the loads, so e.g. `messages` may already include a
  /// batch whose `rows` are not yet visible. Totals are exact once the query
  /// has finished (the executor joins its threads before returning).
  LinkStats stats() const {
    LinkStats s;
    s.messages = totals_.messages.load(std::memory_order_relaxed);
    s.rows = totals_.rows.load(std::memory_order_relaxed);
    s.bytes = totals_.bytes.load(std::memory_order_relaxed);
    s.retries = totals_.retries.load(std::memory_order_relaxed);
    s.timeouts = totals_.timeouts.load(std::memory_order_relaxed);
    s.faults = totals_.faults.load(std::memory_order_relaxed);
    return s;
  }
  /// Zeroes the counters one at a time — NOT atomically as a group. Calling
  /// this while prefetch threads or parallel branches are still charging the
  /// link interleaves the stores with their increments and yields torn,
  /// meaningless numbers. Benches and tests must only reset between queries,
  /// after the executor has returned (all worker threads joined).
  void ResetStats() {
    totals_.messages.store(0, std::memory_order_relaxed);
    totals_.rows.store(0, std::memory_order_relaxed);
    totals_.bytes.store(0, std::memory_order_relaxed);
    totals_.retries.store(0, std::memory_order_relaxed);
    totals_.timeouts.store(0, std::memory_order_relaxed);
    totals_.faults.store(0, std::memory_order_relaxed);
  }

  double latency_us() const { return latency_us_; }
  void set_enforce_delays(bool enforce) { enforce_ = enforce; }

  const RetryPolicy& retry_policy() const { return retry_policy_; }
  /// Set between queries only (plain struct, read by SendMessage callers on
  /// prefetch/worker threads; thread-launch ordering makes it visible).
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

  /// Attaches (or detaches, with nullptr) a fault injector. Not owned. Safe
  /// to flip between queries; SendMessage loads it with acquire ordering.
  void set_fault_injector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return injector_.load(std::memory_order_acquire);
  }

  /// Sends one request/response round trip carrying `bytes` of payload,
  /// consulting the fault injector and retrying per the link's RetryPolicy.
  /// Every attempt — including failed ones — charges one message (the bytes
  /// went out on the wire either way), so retries are visible in `messages`.
  /// Exhausted retries and link-down both surface as kNetworkError with the
  /// link (= linked server) name in the message; link-down fails fast
  /// without retrying. With no injector attached this degrades to
  /// ChargeMessage plus an OK status.
  Status SendMessage(size_t bytes);

  /// Records one request/response round trip carrying `bytes` of payload.
  /// Infallible accounting path, bypasses the fault model; remote execution
  /// paths should use SendMessage instead.
  void ChargeMessage(size_t bytes);

  /// Records `n` result rows of `bytes` total shipped (as part of the
  /// current message stream; adds bandwidth delay but no latency).
  void ChargeRows(int64_t n, size_t bytes);

 private:
  void Delay(double microseconds);
  /// Adds each non-zero field of `charge` to the link's totals, their
  /// registry mirror and the calling thread's sink.
  void Charge(const LinkStats& charge);

  std::string name_;
  double latency_us_;
  double us_per_kb_;
  std::atomic<bool> enforce_;
  RetryPolicy retry_policy_;
  std::atomic<FaultInjector*> injector_{nullptr};
  LinkChargeSink totals_;  ///< The link's own totals (stats()).
  metrics::Counter* m_messages_ = nullptr;
  metrics::Counter* m_rows_ = nullptr;
  metrics::Counter* m_bytes_ = nullptr;
  metrics::Counter* m_retries_ = nullptr;
  metrics::Counter* m_timeouts_ = nullptr;
  metrics::Counter* m_faults_ = nullptr;
};

/// Wraps a provider rowset so that its rows cross a link in blocks. One
/// NextBatch call fetches, charges and hands on exactly one block: one
/// SendMessage carrying the block's bytes, then the block's rows, before any
/// of them surfaces — so the caller's `max_rows` is the wire block. A fetch
/// that fails (the message after its retries, or the provider) hands on
/// none of its rows, and the stream keeps failing with that error until
/// Restart: the provider has moved past the lost block, so serving the next
/// one would skip it. Used by remote providers to account (and pace) result
/// shipping.
class LinkedRowset : public Rowset {
 public:
  LinkedRowset(std::unique_ptr<Rowset> inner, Link* link)
      : inner_(std::move(inner)), link_(link) {}

  const Schema& schema() const override { return inner_->schema(); }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override;

  Status Restart() override;

 private:
  std::unique_ptr<Rowset> inner_;
  Link* link_;
  Status error_;  ///< The failed fetch's error, until Restart.
};

}  // namespace net
}  // namespace dhqp

#endif  // DHQP_NET_NETWORK_H_
