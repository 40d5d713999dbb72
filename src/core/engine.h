#ifndef DHQP_CORE_ENGINE_H_
#define DHQP_CORE_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/common/date.h"
#include "src/common/waits.h"
#include "src/executor/exec.h"
#include "src/fulltext/service.h"
#include "src/optimizer/context.h"
#include "src/optimizer/physical.h"
#include "src/sql/ast.h"
#include "src/storage/storage_engine.h"
#include "src/sysview/query_store.h"

namespace dhqp {

/// Per-instance configuration.
struct EngineOptions {
  std::string name = "local";
  /// Deterministic TODAY(): the paper's era by default.
  int64_t current_date = 0;  ///< 0 = use kDefaultCurrentDate.
  OptimizerOptions optimizer;
  /// Delayed schema validation (§4.1.5): remote schemas are checked at
  /// execution, not at bind time; on mismatch the statement is recompiled
  /// once against fresh metadata.
  bool delayed_schema_validation = true;
  /// Plan cache: compiled SELECT plans are reused across executions of the
  /// same statement text. Startup filters (§4.1.5) are what make cached
  /// parameterized plans correct for every parameter value.
  bool enable_plan_cache = true;
  /// Query Store: every completed statement is recorded (per-execution ring
  /// of this many entries + per-fingerprint aggregates) and exposed through
  /// the sys DMVs. Queries against the DMVs themselves are never recorded.
  size_t query_store_capacity = 256;
  /// Slow-query log threshold: a statement whose end-to-end time reaches
  /// this gets a warning appended to its QueryResult (with the
  /// estimated-vs-actual operator profile for a SELECT) and counts toward
  /// exec.slow_queries. 0 disables.
  int64_t slow_query_ns = 0;
  /// Workload governor: memory-grant admission control. A statement's grant
  /// is estimated from optimizer cardinalities between optimize and execute;
  /// it runs only once the grant fits under `max_server_memory_bytes`
  /// (0 disables the governor — unlimited memory, no queueing, no spills).
  /// While waiting it sits in the `queued` phase accumulating
  /// RESOURCE_SEMAPHORE waits; once admitted, buffering operators that
  /// breach the grant spill to disk instead of growing.
  int64_t max_server_memory_bytes = 0;
  /// Cap on any single statement's grant (0 = the whole budget). Large
  /// estimates are clamped here, forcing them to spill rather than starve
  /// the rest of the workload.
  int64_t max_grant_per_query_bytes = 0;
  /// Cap on concurrently admitted statements (0 = unlimited).
  int max_concurrent_grants = 0;
  /// How long a statement waits for its full grant before degrading to
  /// `min_grant_bytes` (spilling heavily, but running).
  int64_t grant_timeout_ms = 1000;
  /// The floor every statement is guaranteed after a grant timeout.
  int64_t min_grant_bytes = 64 * 1024;
  /// Where spill files go; empty = the platform temp directory.
  std::string spill_directory;
  /// Remote data-movement knobs (block fetch size, prefetch, Concat DOP).
  ExecOptions execution;
};

/// Result of one query execution.
struct QueryResult {
  std::unique_ptr<VectorRowset> rowset;  ///< Null for DDL/DML.
  int64_t rows_affected = 0;             ///< For INSERT.
  PhysicalOpPtr plan;                    ///< Null for DDL/DML.
  /// The executor's counters: the fold of `profile` (FoldExecStats), zero
  /// when nothing executed.
  ExecStats exec_stats;
  OptimizerRunStats opt_stats;
  /// True when this execution reused a compiled plan from the plan cache.
  bool plan_cache_hit = false;
  /// Non-fatal notices (e.g. partitioned-view members skipped under
  /// ExecOptions::skip_unreachable_members, or the slow-query log entry).
  /// Empty on a clean run.
  std::vector<std::string> warnings;
  /// Per-operator actual execution stats (the STATISTICS PROFILE analog),
  /// populated for every executed SELECT — serial, parallel, spilled or
  /// EXPLAIN ANALYZE. Null for DDL, DML and compile-only EXPLAIN.
  std::shared_ptr<OperatorProfile> profile;
  /// Per-query wait accounting: every blocked interval any thread spent on
  /// this statement's behalf (queue stalls, link wire time, retry backoff,
  /// engine mutexes), by type. Disjoint types — totals never double-count.
  waits::WaitTotals wait_totals;
  /// The distributed-request correlation id this statement ran under. When
  /// this engine was the coordinator it generated the id ("<engine>#<seq>");
  /// when it served another engine's command it carries the coordinator's.
  std::string activity_id;
};

/// One engine instance: "SQL Server" in miniature — local storage engine,
/// catalog with linked servers, the DHQP optimizer + executor, full-text
/// integration, and the SQL surface. Multiple Engine instances wired
/// together through providers form the distributed topologies the paper
/// describes (Fig 1) and the federations of §4.1.5.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  const std::string& name() const { return options_.name; }
  StorageEngine* storage() { return &storage_; }
  Catalog* catalog() { return catalog_.get(); }
  fulltext::FullTextService* fulltext() { return &fulltext_; }
  EngineOptions* options() { return &options_; }
  /// This engine's Query Store.
  sysview::QueryStore* query_store() { return &query_store_; }

  /// Registers a linked server (§2.1): `source` becomes addressable in
  /// four-part names as server.catalog.schema.table.
  Status AddLinkedServer(const std::string& server_name,
                         std::shared_ptr<DataSource> source);

  /// Creates a full-text catalog over a table's text column and indexes its
  /// current rows (§2.3). The optimizer will use it for CONTAINS.
  Status CreateFullTextIndex(const std::string& catalog_name,
                             const std::string& table,
                             const std::string& key_column,
                             const std::string& text_column);

  /// Executes one SQL statement (SELECT / CREATE TABLE / CREATE INDEX /
  /// CREATE VIEW / INSERT). INSERT into a (distributed) partitioned view is
  /// routed to the owning member by the partitioning column's CHECK domain.
  Result<QueryResult> Execute(const std::string& sql,
                              const std::map<std::string, Value>& params = {});

  /// Compiles a SELECT and returns the chosen plan without running it.
  Result<QueryResult> Prepare(const std::string& sql,
                              const std::map<std::string, Value>& params = {});

  /// EXPLAIN-style rendering: physical plan tree + optimizer statistics.
  /// Parameters flow through the same bind path as Prepare, so a
  /// parameterized statement explains exactly as it would execute.
  Result<std::string> Explain(const std::string& sql,
                              const std::map<std::string, Value>& params = {});

  /// Pass-through execution on a linked server (the OPENQUERY path, §3.3).
  Result<std::unique_ptr<Rowset>> ExecutePassThrough(const std::string& server,
                                                     const std::string& query);

  /// Stitched distributed trace for one activity id: reads
  /// sys..dm_trace_spans locally and through every linked server's sys
  /// path (members that expose no sys source simply contribute nothing),
  /// dedupes spans engines may share through one in-process tracer, and
  /// renders a single Chrome trace with one process track per engine.
  /// Tracing must have been enabled while the query ran.
  Result<std::string> MergedChromeTrace(const std::string& activity_id);

  /// One compiled-plan-cache entry as dm_plan_cache exposes it.
  struct PlanCacheEntry {
    std::string statement;  ///< Raw statement text the plan was compiled from.
    uint64_t schema_version = 0;
    int64_t hits = 0;       ///< Executions served from this entry.
    double est_cost = 0;    ///< Optimizer's best cost at compile time.
    bool valid = false;     ///< Compiled under the current schema version.
  };
  /// Point-in-time snapshot of the plan cache, in cache-key order.
  std::vector<PlanCacheEntry> PlanCacheSnapshot() const;

 private:
  /// Execute() minus the bookkeeping hooks: on a network error the wrapper
  /// tears down cached remote sessions (Catalog::DropRemoteSessions) so the
  /// next statement reconnects instead of reusing a session over a dead
  /// link; on every completion it records the statement (query store, slow
  /// log, metrics). The statement's type, sys decision and plan-cache flags
  /// land on `request`.
  Result<QueryResult> ExecuteInternal(
      const std::string& sql, const std::map<std::string, Value>& params,
      const std::shared_ptr<sysview::RequestState>& request);

  /// Post-execution hook, run for every statement, failed ones included.
  /// Writes the outcome onto `request` once: duration, ok or error, rows,
  /// warnings, the fingerprint of `sql`, and the ExecStats fold of its
  /// operator profile tree, which a successful result also carries with
  /// the wait totals. Then: slow-query warning, exec.* metrics (statement
  /// and DML counters, the ExecStats counters, warnings) with one
  /// engine.query_ns sample of the duration, and the query store keeps the
  /// request as its record. DMV-touching statements (request->exclude) and
  /// compile-only EXPLAIN are left out — observing the system must not grow
  /// what it observes.
  void FinishStatement(const std::string& sql,
                       const std::shared_ptr<sysview::RequestState>& request,
                       Result<QueryResult>* result);

  /// Compiles (and optionally executes) a SELECT under `request`, which
  /// takes the plan-cache flags and the post-optimize sys decision.
  /// `cache_key` is the raw statement text for plan-cache lookup; empty
  /// disables caching.
  Result<QueryResult> ExecuteSelect(
      const SelectStatement& stmt, const std::map<std::string, Value>& params,
      bool execute, const std::string& cache_key,
      const std::shared_ptr<sysview::RequestState>& request);
  Result<QueryResult> ExecuteCreateTable(const CreateTableStatement& stmt);
  Result<QueryResult> ExecuteCreateIndex(const CreateIndexStatement& stmt);
  Result<QueryResult> ExecuteCreateView(const CreateViewStatement& stmt);
  Result<QueryResult> ExecuteInsert(const InsertStatement& stmt,
                                    const std::map<std::string, Value>& params);
  Result<QueryResult> ExecuteDelete(const DeleteStatement& stmt,
                                    const std::map<std::string, Value>& params);
  Result<QueryResult> ExecuteUpdate(const UpdateStatement& stmt,
                                    const std::map<std::string, Value>& params);

  /// Rows of a local table matching a DML WHERE clause (with their ids).
  Result<std::vector<std::pair<int64_t, Row>>> MatchDmlRows(
      Table* table, const ExprPtr& where,
      const std::map<std::string, Value>& params,
      std::vector<int>* column_ids);

  /// Routes rows into a partitioned view's member tables (§4.1.5).
  Result<int64_t> InsertIntoPartitionedView(
      const ViewDef& view, const std::vector<std::string>& columns,
      const std::vector<Row>& rows);

  /// Delayed schema validation: verifies cached remote schemas used by the
  /// plan still match; returns true if everything checked out.
  Result<bool> ValidateRemoteSchemas(const PhysicalOpPtr& plan);

  /// The optimizer settings a statement compiles under: the engine's
  /// OptimizerOptions with max_dop taken from ExecOptions::dop.
  OptimizerOptions EffectiveOptimizerOptions() const;

  /// Builds the per-query optimizer context (options, full-text catalogs).
  OptimizerContext MakeOptimizerContext(ColumnRegistry* registry);

  /// Plan-cache key: the statement text plus every optimizer setting that
  /// compiled the plan. The comparison is defaulted, so a setting added to
  /// OptimizerOptions later joins the key without an edit here.
  struct PlanKey {
    std::string statement;
    OptimizerOptions options;
    auto operator<=>(const PlanKey&) const = default;
  };

  /// A compiled SELECT ready for repeated execution.
  struct CachedPlan {
    PhysicalOpPtr plan;
    std::vector<int> output_cols;
    std::vector<std::string> output_names;
    std::shared_ptr<ColumnRegistry> registry;
    OptimizerRunStats opt_stats;
    uint64_t schema_version = 0;
    std::string statement;  ///< Raw text, for dm_plan_cache.
    int64_t hits = 0;       ///< Guarded by plan_cache_mu_.
  };

  /// Runs a compiled plan under `request` (grant, memory, phases) and
  /// shapes the result rowset.
  Result<QueryResult> RunCachedPlan(
      const CachedPlan& cached, const std::map<std::string, Value>& params,
      const std::shared_ptr<sysview::RequestState>& request);

  EngineOptions options_;
  StorageEngine storage_;
  std::unique_ptr<Catalog> catalog_;
  fulltext::FullTextService fulltext_;
  std::vector<FullTextCatalogInfo> fulltext_catalogs_;
  /// Bumped by any DDL / linked-server / full-text change; cached plans
  /// compiled under an older version are discarded. Atomic: DMV snapshots
  /// read it concurrently with DDL on the owning thread.
  std::atomic<uint64_t> schema_version_{0};
  /// Guards plan_cache_ (and entry hit counts): executions mutate it while
  /// a concurrent DMV scan snapshots it.
  mutable std::mutex plan_cache_mu_;
  std::map<PlanKey, CachedPlan> plan_cache_;
  sysview::QueryStore query_store_;
};

/// Default deterministic "today" (2004-11-15, the paper's era).
int64_t DefaultCurrentDate();

}  // namespace dhqp

#endif  // DHQP_CORE_ENGINE_H_
