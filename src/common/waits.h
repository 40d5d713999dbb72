#ifndef DHQP_COMMON_WAITS_H_
#define DHQP_COMMON_WAITS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/fastclock.h"

namespace dhqp {
namespace waits {

/// The wait taxonomy — every way a thread in this engine can block. The
/// dm_os_wait_stats analog: each type accumulates into a process-wide
/// counter + log2 histogram in metrics::Registry, a per-query tally, and
/// (where a thread is working on behalf of one operator) a per-operator
/// tally on the OperatorProfile tree. Types are disjoint by construction —
/// one blocked interval lands in exactly one type — so per-type totals sum
/// to the query's total wait time with no double counting.
enum class WaitType : int {
  kExchangeQueuePush = 0,  ///< Exchange producer blocked on a full queue.
  kExchangeQueuePop,       ///< Exchange consumer blocked on an empty queue.
  kPrefetchQueue,          ///< Prefetch producer full-stall or consumer
                           ///< empty-stall on the remote block queue.
  kConcatQueue,            ///< Parallel Concat worker/consumer queue stall.
  kLinkSend,               ///< Wire time of link message attempts (send +
                           ///< response, including injected latency), minus
                           ///< retry backoff.
  kRetryBackoff,           ///< Sleeps between link retry attempts.
  kPlanCacheMutex,         ///< Contended acquisition of the plan-cache lock.
  kQueryStoreMutex,        ///< Contended acquisition of the query-store lock.
  kResourceSemaphore,      ///< Statement queued in the workload governor
                           ///< waiting for its memory grant.
  kSpillIo,                ///< Spill file reads/writes (Grace partitions,
                           ///< external sort runs) under a tight grant.
};

constexpr int kNumWaitTypes = 10;

/// Canonical upper-snake name, as dm_os_wait_stats spells it
/// ("EXCHANGE_QUEUE_PUSH", "RETRY_BACKOFF", ...).
const char* Name(WaitType type);

/// Per-query or per-operator wait accounting: one (count, ticks) pair per
/// type. Atomic because exchange producers, prefetch producers, and Concat
/// workers charge the same tally concurrently with the consumer. Quiescent
/// once the execution joined its threads, so readers may load freely.
struct WaitTally {
  std::atomic<int64_t> count[kNumWaitTypes] = {};
  std::atomic<int64_t> ticks[kNumWaitTypes] = {};

  void Add(WaitType type, int64_t elapsed_ticks) {
    const int i = static_cast<int>(type);
    count[i].fetch_add(1, std::memory_order_relaxed);
    ticks[i].fetch_add(elapsed_ticks, std::memory_order_relaxed);
  }
  int64_t CountFor(WaitType type) const {
    return count[static_cast<int>(type)].load(std::memory_order_relaxed);
  }
  int64_t NsFor(WaitType type) const {
    return fastclock::ToNs(
        ticks[static_cast<int>(type)].load(std::memory_order_relaxed));
  }
  int64_t total_count() const {
    int64_t n = 0;
    for (const auto& c : count) n += c.load(std::memory_order_relaxed);
    return n;
  }
  int64_t total_ns() const {
    int64_t t = 0;
    for (const auto& tk : ticks) t += tk.load(std::memory_order_relaxed);
    return fastclock::ToNs(t);
  }
};

/// Plain-value copy of a WaitTally, for surfaces that need value semantics
/// (QueryResult, DMV rows).
struct WaitTotals {
  int64_t count[kNumWaitTypes] = {};
  int64_t ns[kNumWaitTypes] = {};

  int64_t total_count() const {
    int64_t n = 0;
    for (int64_t c : count) n += c;
    return n;
  }
  int64_t total_ns() const {
    int64_t t = 0;
    for (int64_t v : ns) t += v;
    return t;
  }
  /// Name of the type with the most accumulated time; "" when no waits.
  std::string TopType() const;
};

WaitTotals Snapshot(const WaitTally& tally);

/// Charges one completed wait of `type` lasting `elapsed_ticks` fastclock
/// ticks to (a) the global per-type histogram in metrics::Registry, (b) the
/// calling thread's installed per-query tally, and (c) `op` when non-null
/// (the owning operator's tally). Zero-duration waits still count — under
/// unenforced links a retry backoff takes no wall time but the *event* is
/// what diagnosis needs.
void RecordWait(WaitType type, int64_t elapsed_ticks,
                WaitTally* op = nullptr);

/// RAII wait timer for scopes that always block (link sends, backoff
/// sleeps): stamps Ticks() on entry and charges the interval on exit.
class WaitScope {
 public:
  explicit WaitScope(WaitType type, WaitTally* op = nullptr)
      : type_(type), op_(op), start_(fastclock::Ticks()) {}
  ~WaitScope() { RecordWait(type_, fastclock::Ticks() - start_, op_); }

  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

 private:
  WaitType type_;
  WaitTally* op_;
  int64_t start_;
};

/// Installs `tally` as the calling thread's per-query wait sink for the
/// scope's lifetime (innermost wins; previous sink restored on exit).
/// Engine::Execute installs one per statement; worker threads (prefetch,
/// exchange, Concat) re-install the tally they captured at launch so their
/// waits roll up to the owning query.
class ScopedQueryTally {
 public:
  explicit ScopedQueryTally(WaitTally* tally);
  ~ScopedQueryTally();

  ScopedQueryTally(const ScopedQueryTally&) = delete;
  ScopedQueryTally& operator=(const ScopedQueryTally&) = delete;

 private:
  WaitTally* prev_;
};

/// The calling thread's installed per-query tally (null if none) — what a
/// thread spawner captures to hand to its workers.
WaitTally* CurrentQueryTally();

/// Installs an *operator* wait tally as the thread's attribution target for
/// waits whose call site cannot see the owning operator (link sends deep
/// inside a connector). Innermost wins — the ProfiledNode wrapping the
/// remote operator installs its tally around Open/Next/NextBatch, exactly
/// where ScopedChargeSink is installed. Null `tally` installs nothing.
class ScopedOperatorTally {
 public:
  explicit ScopedOperatorTally(WaitTally* tally);
  ~ScopedOperatorTally();

  ScopedOperatorTally(const ScopedOperatorTally&) = delete;
  ScopedOperatorTally& operator=(const ScopedOperatorTally&) = delete;

 private:
  WaitTally* prev_ = nullptr;
  bool installed_ = false;
};

/// The thread's installed operator tally (null if none).
WaitTally* CurrentOperatorTally();

/// One dm_os_wait_stats row.
struct WaitStatRow {
  std::string wait_type;
  int64_t waiting_tasks_count = 0;
  int64_t wait_time_ns = 0;
  int64_t max_wait_time_ns = 0;
};

/// Global per-type snapshot, one row per taxonomy entry (zeros included),
/// in enum order.
std::vector<WaitStatRow> GlobalSnapshot();

/// Zeroes the global per-type histograms (per-query/operator tallies are
/// untouched). The dm_os_wait_stats "clear" knob.
void ResetGlobal();

/// Times a blocked-queue interval for BoundedQueue hooks: constructed only
/// when the caller observed it must wait; Elapsed() reads the interval.
class BlockTimer {
 public:
  BlockTimer() : start_(fastclock::Ticks()) {}
  int64_t Elapsed() const { return fastclock::Ticks() - start_; }

 private:
  int64_t start_;
};

/// Locks `mu`, charging contention as a `type` wait. Uncontended
/// acquisition — the overwhelmingly common case — takes the try_lock fast
/// path and records nothing.
inline std::unique_lock<std::mutex> LockRecordingWait(std::mutex& mu,
                                                      WaitType type) {
  std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    BlockTimer timer;
    lock.lock();
    RecordWait(type, timer.Elapsed());
  }
  return lock;
}

}  // namespace waits
}  // namespace dhqp

#endif  // DHQP_COMMON_WAITS_H_
