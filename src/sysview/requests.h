#ifndef DHQP_SYSVIEW_REQUESTS_H_
#define DHQP_SYSVIEW_REQUESTS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/waits.h"
#include "src/executor/profile.h"

namespace dhqp {
namespace sysview {

/// Statement lifecycle stage, in order. dm_exec_requests reports the
/// current one; kFinished only appears to a holder that kept the state
/// alive past unregistration (the registry drops finished requests).
enum class RequestPhase : int {
  kParse = 0,
  kBind,
  kOptimize,
  kQueued,  ///< Waiting in the workload governor for a memory grant.
  kExecute,
  kFinished,
};

const char* PhaseName(RequestPhase phase);

/// One statement's only record, from registration until the query store
/// evicts it: dm_exec_requests reads it while the statement runs, the
/// workload governor's grant entry points at it, and once
/// Engine::FinishStatement writes the outcome the query store keeps it.
/// Owned by shared_ptr so a DMV snapshot taken mid-completion stays valid
/// after the request unregisters — readers see the final counter values,
/// never a dangling pointer.
///
/// Threading: the identity fields are set once at registration; the live
/// fields are atomics or internally locked. The compile and outcome fields
/// are plain: the executing thread writes them, then QueryStore::Record
/// publishes the request under the store's mutex, and only store readers
/// read them (registry and grant readers stay on identity and live fields).
struct RequestState {
  // Identity.
  int64_t request_id = 0;
  std::string engine;       ///< EngineOptions::name of the executing engine.
  std::string activity_id;  ///< Correlates with the coordinator + trace spans.
  std::string statement;    ///< Leading fragment of the SQL text.
  int dop = 1;
  int64_t start_ns = 0;

  // Live.
  std::atomic<int> phase{static_cast<int>(RequestPhase::kParse)};
  /// Set when the statement touches sys.. (AST gate or the one
  /// post-optimize PlanTouchesSys): a DMV scan does not list itself, skips
  /// admission and the plan cache, and is never recorded.
  std::atomic<bool> exclude{false};

  /// Live wait accounting: Engine::Execute installs this tally as the
  /// thread's per-query sink, so exchange/prefetch/link waits accumulate
  /// here while the query runs and dm_exec_requests reads them mid-flight.
  /// Quiescent once the request is recorded.
  waits::WaitTally waits;

  /// Query-wide memory: every buffering operator and queue stash charges
  /// this tracker (via ExecContext::memory) alongside its per-operator
  /// slot. current() returns to zero once execution tears down.
  MemTracker memory;

  /// Workload-governor grant accounting, written by the governor when the
  /// statement passes admission and cleared when the grant is released.
  /// Zero when the engine sets no memory budget or before the statement
  /// reaches the grant gate; dm_exec_requests reads these mid-flight.
  std::atomic<int64_t> requested_grant_bytes{0};
  std::atomic<int64_t> granted_bytes{0};

  // Compile: written by the executing thread.
  std::string statement_type;   ///< "select", "insert", ... "" = no parse.
  bool plan_cacheable = false;  ///< Went through the plan cache (SELECT).
  bool plan_cache_hit = false;

  // Outcome: written once by Engine::FinishStatement.
  int64_t execution_id = 0;  ///< Monotonic per store; set by Record().
  uint64_t fingerprint = 0;  ///< FingerprintStatement of the full text.
  int64_t duration_ns = 0;
  bool ok = true;
  std::string error;  ///< StatusCodeName when !ok.
  int64_t rows = 0;   ///< Result rows for queries, rows affected for DML.
  int64_t warnings = 0;
  /// The one FoldExecStats of the profile tree; zero when nothing executed.
  ExecStats exec_stats;

  RequestPhase Phase() const {
    return static_cast<RequestPhase>(phase.load(std::memory_order_relaxed));
  }
  void SetPhase(RequestPhase p) {
    phase.store(static_cast<int>(p), std::memory_order_relaxed);
  }

  /// The root of the executing profile tree, published by ExecutePlan (via
  /// ExecContext::request) just before Open. Null until execution starts
  /// (and for DDL/DML). Shared ownership so a snapshot outlives the query.
  std::shared_ptr<const OperatorProfile> profile() const;
  void set_profile(std::shared_ptr<const OperatorProfile> p);

 private:
  mutable std::mutex profile_mu_;
  std::shared_ptr<const OperatorProfile> profile_;
};

/// Process-wide table of in-flight statements — the dm_exec_requests
/// backing store. One registry serves every in-process engine (requests
/// carry their engine name). Registration is O(log n) under one mutex;
/// snapshots copy shared_ptrs, so scans never block the queries they
/// observe beyond the map lock.
class RequestRegistry {
 public:
  static RequestRegistry& Global();

  std::shared_ptr<RequestState> Register(const std::string& engine,
                                         const std::string& activity_id,
                                         const std::string& statement,
                                         int dop);
  void Unregister(int64_t request_id);
  std::vector<std::shared_ptr<RequestState>> Snapshot() const;

 private:
  RequestRegistry() = default;

  mutable std::mutex mu_;
  std::map<int64_t, std::shared_ptr<RequestState>> live_;
  std::atomic<int64_t> next_id_{1};
};

/// RAII registration installed by Engine::Execute for the statement's full
/// lifetime.
class RequestScope {
 public:
  RequestScope(const std::string& engine, const std::string& activity_id,
               const std::string& statement, int dop);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  const std::shared_ptr<RequestState>& state() const { return state_; }

 private:
  std::shared_ptr<RequestState> state_;
};

/// Live rows produced so far, summed over every operator in the tree.
/// Monotonically non-decreasing while the query runs: profile counters
/// only accumulate and the tree shape is fixed before Open.
int64_t RowsProcessed(const OperatorProfile& root);

/// Live batches (remote wire blocks + local exec batches) over the tree.
int64_t BatchesProcessed(const OperatorProfile& root);

/// Percent-complete estimate: actual vs estimated rows at the profile
/// tree's leaves (the scan frontier — upper operators' estimates inherit
/// optimizer error, leaves track cardinality the closest). Clamped to
/// [0, 100]; 0 when the tree has no leaf estimates.
int PercentComplete(const OperatorProfile& root);

}  // namespace sysview
}  // namespace dhqp

#endif  // DHQP_SYSVIEW_REQUESTS_H_
