#ifndef DHQP_SYSVIEW_QUERY_STORE_H_
#define DHQP_SYSVIEW_QUERY_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/sysview/requests.h"

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

/// The Query Store: a fixed-capacity ring of recorded statements plus
/// per-fingerprint aggregates, populated by Engine::Execute after every
/// statement (DMV queries excluded — see engine.cc — so observing the store
/// does not grow it). A record is the statement's RequestState itself, its
/// outcome written and its counters quiescent, held until the ring evicts
/// it. Thread-safe: a DMV scan may snapshot concurrently with the engine
/// recording; snapshots are taken in execution-id order under one mutex
/// hold.
class QueryStore {
 public:
  explicit QueryStore(size_t capacity) : capacity_(capacity ? capacity : 1) {}

  /// Appends one finished request (assigning its execution id) and folds
  /// it into the fingerprint aggregate. Evicts the oldest record beyond
  /// capacity; aggregates are never evicted.
  void Record(std::shared_ptr<RequestState> request);

  /// Ring contents, oldest first.
  std::vector<std::shared_ptr<const RequestState>> Snapshot() const;
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
  std::deque<std::shared_ptr<const RequestState>> ring_;
  std::map<uint64_t, FingerprintStats> aggregates_;
  std::vector<uint64_t> aggregate_order_;  ///< Fingerprints, first-seen order.
};

}  // namespace sysview
}  // namespace dhqp

#endif  // DHQP_SYSVIEW_QUERY_STORE_H_
