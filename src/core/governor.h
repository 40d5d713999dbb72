#ifndef DHQP_CORE_GOVERNOR_H_
#define DHQP_CORE_GOVERNOR_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/executor/exec.h"
#include "src/optimizer/physical.h"
#include "src/sysview/requests.h"

namespace dhqp {
namespace governor {

/// Admission-control knobs, copied from the executing engine's
/// EngineOptions at the grant gate. The semaphore itself is process-wide
/// (one budget pool per process, like the resource semaphore SQL Server
/// shares across sessions); each statement is checked against the budget
/// its own engine configured.
struct GovernorOptions {
  int64_t max_server_memory_bytes = 0;   ///< 0 = governor off (unlimited).
  int64_t max_grant_per_query_bytes = 0; ///< 0 = whole budget.
  int max_concurrent_grants = 0;         ///< 0 = unlimited statement count.
  /// A queued statement that cannot be admitted within this window degrades
  /// its request to `min_grant_bytes` instead of failing, then waits until
  /// that minimum fits.
  int64_t grant_timeout_ms = 1000;
  /// The degraded floor every statement is eventually granted (clamped to
  /// the per-query cap). Execution under the floor spills instead of
  /// growing.
  int64_t min_grant_bytes = 64 * 1024;
};

/// Memory-grant estimate for one compiled plan, from optimizer
/// cardinalities: hash-join build tables, aggregate hash tables, sort and
/// spool buffers, and exchange queue footprints (scaled by the operator's
/// dop). Each entry is priced by the definition its operator charges it
/// with (profile.h), so estimates and MemTracker charges compare.
int64_t EstimateGrantBytes(const PhysicalOpPtr& plan, const ExecOptions& exec);

class Governor;

/// RAII memory grant. Inactive (granted_bytes() == 0 means unlimited) when
/// the engine sets no memory budget; otherwise holds `granted_bytes` of the
/// process budget until released. Released exactly once: explicitly via
/// Release() or by the destructor — whichever comes first — so every exit
/// path out of execution, including fault aborts, returns the memory to the
/// semaphore.
class MemoryGrant {
 public:
  MemoryGrant() = default;
  MemoryGrant(MemoryGrant&& other) noexcept { *this = std::move(other); }
  MemoryGrant& operator=(MemoryGrant&& other) noexcept;
  ~MemoryGrant() { Release(); }

  MemoryGrant(const MemoryGrant&) = delete;
  MemoryGrant& operator=(const MemoryGrant&) = delete;

  /// True when this grant holds budget (the governor admitted it).
  bool active() const { return governor_ != nullptr; }
  /// Bytes granted; 0 = unlimited (no budget).
  int64_t granted_bytes() const { return granted_bytes_; }
  /// Bytes originally requested (before any timeout degradation).
  int64_t requested_bytes() const { return requested_bytes_; }
  /// True when the grant timed out in the queue and was degraded to the
  /// minimum grant.
  bool degraded() const { return degraded_; }

  void Release();

 private:
  friend class Governor;
  MemoryGrant(Governor* governor, int64_t id, int64_t requested,
              int64_t granted, bool degraded)
      : governor_(governor),
        id_(id),
        requested_bytes_(requested),
        granted_bytes_(granted),
        degraded_(degraded) {}

  Governor* governor_ = nullptr;
  int64_t id_ = 0;
  int64_t requested_bytes_ = 0;
  int64_t granted_bytes_ = 0;
  bool degraded_ = false;
};

/// One dm_exec_query_memory_grants row: a statement that currently holds a
/// grant or is queued waiting for one.
struct GrantRow {
  int64_t grant_id = 0;
  /// The statement's request: its identity and live memory. Shared so the
  /// row stays readable after the grant is released.
  std::shared_ptr<const sysview::RequestState> request;
  bool is_queued = false;     ///< Still waiting in the semaphore queue.
  int64_t requested_bytes = 0;
  int64_t granted_bytes = 0;  ///< 0 while queued.
  int64_t wait_ns = 0;        ///< Queue time so far (or until granted).
  bool degraded = false;      ///< Timed out and fell back to the minimum.
};

/// The process-wide resource semaphore: grants are admitted FIFO when they
/// fit the budget, queued otherwise under a RESOURCE_SEMAPHORE wait. FIFO
/// ordering plus timeout degradation bounds queue time for every waiter —
/// a statement at the head that cannot fit shrinks to the minimum grant
/// after `grant_timeout_ms` and proceeds as soon as anything releases, so
/// no statement starves and granted memory never exceeds the budget.
class Governor {
 public:
  static Governor& Global();

  /// Blocks until the statement is admitted; always succeeds (timeout
  /// degrades the request, never fails it). The entry holds `request`
  /// (non-null) for dm_exec_query_memory_grants, writes its grant fields
  /// at admission and clears them at release. Returns an inactive grant
  /// when `opts` carries no budget.
  MemoryGrant Acquire(const GovernorOptions& opts, int64_t estimate_bytes,
                      const std::shared_ptr<sysview::RequestState>& request);

  /// Point-in-time view of every granted + queued statement, queued-first
  /// in arrival order, then granted in grant order.
  std::vector<GrantRow> Snapshot() const;

  /// Total bytes currently granted across the process.
  int64_t total_granted_bytes() const;
  /// Statements currently holding a grant.
  int64_t active_grants() const;
  /// Statements currently queued.
  int64_t queued_statements() const;

 private:
  friend class MemoryGrant;

  struct GrantEntry {
    int64_t id = 0;
    uint64_t ticket = 0;  ///< FIFO order among waiters.
    std::shared_ptr<sysview::RequestState> request;
    int64_t requested_bytes = 0;  ///< Current ask (shrinks on degradation).
    int64_t original_bytes = 0;   ///< The pre-degradation request.
    int64_t granted_bytes = 0;    ///< 0 while queued.
    int64_t enqueue_ns = 0;
    int64_t grant_ns = 0;         ///< 0 while queued.
    bool degraded = false;
  };

  Governor() = default;

  void Release(int64_t id);
  /// Smallest ticket among ungranted entries (the FIFO head); 0 if none.
  uint64_t FrontTicketLocked() const;
  void UpdateGaugesLocked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<int64_t, GrantEntry> entries_;
  int64_t next_id_ = 1;
  uint64_t next_ticket_ = 1;
  int64_t total_granted_ = 0;
  int64_t active_grants_ = 0;
  int64_t queued_ = 0;
};

}  // namespace governor
}  // namespace dhqp

#endif  // DHQP_CORE_GOVERNOR_H_
