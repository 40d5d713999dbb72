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

/// Everything dm_exec_requests knows about one in-flight statement. Owned
/// by shared_ptr so a DMV snapshot taken mid-completion stays valid after
/// the request unregisters — readers see the final counter values, never a
/// dangling pointer. All mutable fields are atomics or internally locked;
/// the identity fields (engine, activity_id, statement, dop, start_ns) are
/// set once at registration and read-only afterwards.
struct RequestState {
  int64_t request_id = 0;
  std::string engine;       ///< EngineOptions::name of the executing engine.
  std::string activity_id;  ///< Correlates with query store + trace spans.
  std::string statement;    ///< Leading fragment of the SQL text.
  int dop = 1;
  int64_t start_ns = 0;

  std::atomic<int> phase{static_cast<int>(RequestPhase::kParse)};
  /// Set when the statement touches sys.. (AST gate or post-bind
  /// PlanTouchesSys): a DMV scan must not list itself.
  std::atomic<bool> exclude{false};

  /// Live wait accounting: Engine::Execute installs this tally as the
  /// thread's per-query sink, so exchange/prefetch/link waits accumulate
  /// here while the query runs and dm_exec_requests reads them mid-flight.
  waits::WaitTally waits;

  /// Query-wide memory: every buffering operator and queue stash charges
  /// this tracker (via ExecContext::memory) alongside its per-operator
  /// slot. current() returns to zero once execution tears down.
  MemTracker memory;

  /// Workload-governor grant accounting, written when the statement passes
  /// admission and cleared on release. Zero when the engine sets no memory
  /// budget or before the statement reaches the grant gate;
  /// dm_exec_requests and dm_exec_query_memory_grants read these mid-flight.
  std::atomic<int64_t> requested_grant_bytes{0};
  std::atomic<int64_t> granted_bytes{0};

  RequestPhase Phase() const {
    return static_cast<RequestPhase>(phase.load(std::memory_order_relaxed));
  }

  /// The root of the executing profile tree, published by ExecutePlan just
  /// before Open. Null until execution starts. Shared ownership so a
  /// snapshot outlives the query.
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
/// lifetime. Also publishes the state as the calling thread's *current
/// request* (innermost wins, like activity::Scope) so deeper layers —
/// phase transitions in the compiler, profile publication in the executor,
/// exclusion marking at the sys gates — reach it without plumbing.
class RequestScope {
 public:
  RequestScope(const std::string& engine, const std::string& activity_id,
               const std::string& statement, int dop);
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  RequestState* state() const { return state_.get(); }

 private:
  std::shared_ptr<RequestState> state_;
  RequestState* prev_ = nullptr;
};

/// The calling thread's innermost registered request (null when no
/// statement is executing on it).
RequestState* CurrentRequest();

/// Phase transition for the thread's current request; no-op without one.
void SetCurrentPhase(RequestPhase phase);

/// Marks the thread's current request as self-excluded from
/// dm_exec_requests (statement touches sys..).
void MarkCurrentRequestExcluded();

/// Hands the executing profile tree to the thread's current request so
/// dm_exec_requests can read live row counts. Called by ExecutePlan.
void PublishCurrentRequestProfile(
    const std::shared_ptr<const OperatorProfile>& profile);

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
