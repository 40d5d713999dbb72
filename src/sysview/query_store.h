#ifndef DHQP_SYSVIEW_QUERY_STORE_H_
#define DHQP_SYSVIEW_QUERY_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/waits.h"
#include "src/executor/profile.h"

namespace dhqp {
namespace sysview {

/// Normalizes one SQL statement for fingerprinting: lower-cased, whitespace
/// collapsed, numeric and string literals replaced by '?'. Two executions of
/// the same statement shape (differing only in literal values) normalize to
/// the same text — the Query Store's unit of aggregation, mirroring SQL
/// Server's query_hash over the parameterized form.
std::string NormalizeStatement(const std::string& sql);

/// FNV-1a hash of NormalizeStatement(sql).
uint64_t FingerprintStatement(const std::string& sql);

/// Fingerprint rendered the way dm_exec_query_stats exposes it ("0x...").
std::string FingerprintToString(uint64_t fingerprint);

/// One completed statement execution as the Query Store records it. Plain
/// values only (counters are snapshotted at record time), so snapshots are
/// stable copies.
struct ExecutionRecord {
  int64_t execution_id = 0;  ///< Monotonic per store; assigned by Record().
  uint64_t fingerprint = 0;
  std::string statement;       ///< Raw text (truncated to kMaxStatementLen).
  std::string statement_type;  ///< "select", "insert", "update", ...
  int64_t duration_ns = 0;
  int64_t rows = 0;  ///< Result rows for queries, rows affected for DML.
  bool ok = true;
  std::string error;  ///< StatusCodeName when !ok.
  bool plan_cache_hit = false;
  bool plan_cacheable = false;  ///< Went through the plan cache (SELECT).
  int64_t retries = 0;
  int64_t timeouts = 0;
  int64_t faults = 0;
  int64_t warnings = 0;
  /// Correlation id of the distributed request this execution belonged to
  /// (see src/common/activity.h); the join key of
  /// sys..dm_exec_distributed_requests. Empty only for executions recorded
  /// before the id existed.
  std::string activity_id;
  /// Per-type wait accounting snapshotted at record time.
  waits::WaitTotals waits;
  /// Operator profile of an executed SELECT, failed ones included (null for
  /// DDL/DML and statements that failed before execution); shared with
  /// QueryResult. Quiescent once recorded (the executor joined its threads),
  /// so readers may load its atomics freely.
  std::shared_ptr<const OperatorProfile> profile;

  static constexpr size_t kMaxStatementLen = 512;
};

/// Per-fingerprint aggregate over every execution ever recorded (aggregates
/// survive ring eviction, like SQL Server's query_store_runtime_stats).
struct FingerprintStats {
  uint64_t fingerprint = 0;
  std::string sample_statement;  ///< First-seen raw text.
  std::string statement_type;
  int64_t executions = 0;
  int64_t failures = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t total_duration_ns = 0;
  int64_t min_duration_ns = 0;
  int64_t max_duration_ns = 0;
  int64_t rows = 0;
  int64_t retries = 0;
  int64_t timeouts = 0;
  int64_t faults = 0;
  int64_t warnings = 0;
  int64_t wait_count = 0;     ///< Blocked intervals across all executions.
  int64_t total_wait_ns = 0;  ///< Blocked time across all executions.
  int64_t last_execution_id = 0;
};

/// The Query Store: a fixed-capacity ring of per-execution records plus
/// per-fingerprint aggregates, populated by Engine::Execute after every
/// statement (DMV queries excluded — see engine.cc — so observing the store
/// does not grow it). Thread-safe: a DMV scan may snapshot concurrently with
/// the engine recording; snapshots are deterministic copies in execution-id
/// order under one mutex hold.
class QueryStore {
 public:
  explicit QueryStore(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Appends one execution record (assigning its execution id) and folds it
  /// into the fingerprint aggregate. Evicts the oldest record beyond
  /// capacity; aggregates are never evicted.
  void Record(ExecutionRecord record);

  /// Ring contents, oldest first.
  std::vector<ExecutionRecord> Snapshot() const;
  /// Aggregates sorted by first-seen order (ascending first execution id).
  std::vector<FingerprintStats> AggregateSnapshot() const;

  size_t capacity() const { return capacity_; }
  size_t size() const;
  /// Executions ever recorded (>= size() once the ring wrapped).
  int64_t total_recorded() const;

  /// Forgets all records and aggregates (tests); the execution-id counter
  /// keeps advancing so ids stay unique across a Clear.
  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  int64_t next_execution_id_ = 1;
  std::deque<ExecutionRecord> ring_;
  std::map<uint64_t, FingerprintStats> aggregates_;
  std::vector<uint64_t> aggregate_order_;  ///< Fingerprints, first-seen order.
};

}  // namespace sysview
}  // namespace dhqp

#endif  // DHQP_SYSVIEW_QUERY_STORE_H_
