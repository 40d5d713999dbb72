// Query store + system views (DMVs): the engine's own observability read
// back through the provider model. Covers statement fingerprinting, the
// execution ring and per-fingerprint aggregates, the ten sys.dm_* views
// (locally and through a linked engine), DMV self-exclusion, the slow-query
// log, DML metrics, the request as the store's record, and concurrent DMV
// scans during execution.

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/connectors/dmv_provider.h"
#include "src/executor/profile.h"
#include "src/sysview/query_store.h"
#include "src/sysview/requests.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

using sysview::FingerprintStatement;
using sysview::FingerprintStats;
using sysview::NormalizeStatement;

int64_t CounterValue(const char* name) {
  return metrics::Registry::Global().GetCounter(name)->Value();
}

// Column accessors for DMV scan results, looked up by output name so the
// tests don't hard-code ordinals.
int64_t GetI(const QueryResult& r, size_t row, const char* col) {
  int ord = r.rowset->schema().FindColumn(col);
  EXPECT_GE(ord, 0) << "column " << col;
  return r.rowset->rows()[row][static_cast<size_t>(ord)].int64_value();
}

std::string GetS(const QueryResult& r, size_t row, const char* col) {
  int ord = r.rowset->schema().FindColumn(col);
  EXPECT_GE(ord, 0) << "column " << col;
  return r.rowset->rows()[row][static_cast<size_t>(ord)].string_value();
}

// ---------------------------------------------------------------------------
// Fingerprinting.

TEST(QueryFingerprintTest, NormalizeFoldsLiteralsCaseAndWhitespace) {
  EXPECT_EQ(NormalizeStatement("SELECT a FROM t WHERE a = 10"),
            "select a from t where a = ?");
  EXPECT_EQ(NormalizeStatement("select   a\nFROM t   WHERE a =  99"),
            "select a from t where a = ?");
  // String literals (with doubled-quote escapes) collapse to one marker.
  EXPECT_EQ(NormalizeStatement("SELECT a FROM t WHERE b = 'x''y'"),
            "select a from t where b = ?");
  // Digits inside identifiers are not literals.
  EXPECT_EQ(NormalizeStatement("SELECT c1 FROM t2"), "select c1 from t2");

  EXPECT_EQ(FingerprintStatement("SELECT a FROM t WHERE a = 1"),
            FingerprintStatement("select  a  from t where a = 2"));
  EXPECT_NE(FingerprintStatement("SELECT a FROM t"),
            FingerprintStatement("SELECT b FROM t"));
}

// ---------------------------------------------------------------------------
// Query store: ring wraparound + per-fingerprint aggregation.

TEST(QueryStoreTest, RingWrapsAndAggregatesAcrossLiteralVariants) {
  EngineOptions options;
  options.query_store_capacity = 4;
  Engine engine(options);
  MustExecute(&engine, "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  MustExecute(&engine, "INSERT INTO t VALUES (1,10),(2,20),(3,30)");

  // Ten executions that differ only in the literal: one fingerprint.
  int64_t expected_rows = 0;
  for (int i = 0; i < 10; ++i) {
    QueryResult r = MustExecute(
        &engine, "SELECT a, b FROM t WHERE a >= " + std::to_string(i % 3));
    expected_rows += static_cast<int64_t>(r.rowset->rows().size());
  }

  sysview::QueryStore* store = engine.query_store();
  // CREATE + INSERT + 10 SELECTs recorded; the ring keeps the last 4.
  EXPECT_EQ(store->total_recorded(), 12);
  const auto ring = store->Snapshot();
  ASSERT_EQ(ring.size(), 4u);
  for (const auto& rec : ring) {
    EXPECT_EQ(rec->statement_type, "select");
  }
  // Execution ids are assigned in order and survive eviction.
  EXPECT_EQ(ring.back()->execution_id, 12);

  // Aggregates are keyed by fingerprint, not by raw text, and outlive the
  // ring: create, insert, and the folded select family.
  std::vector<FingerprintStats> aggs = store->AggregateSnapshot();
  ASSERT_EQ(aggs.size(), 3u);
  const FingerprintStats& sel = aggs[2];
  EXPECT_EQ(sel.statement_type, "select");
  EXPECT_EQ(sel.executions, 10);
  EXPECT_EQ(sel.failures, 0);
  EXPECT_EQ(sel.rows, expected_rows);
  // Plan-cache keys are raw text: 3 distinct literals compile once each,
  // the other 7 executions hit — yet all fold into one fingerprint.
  EXPECT_EQ(sel.cache_hits, 7);
  EXPECT_EQ(sel.cache_misses, 3);
  EXPECT_GE(sel.max_duration_ns, sel.min_duration_ns);
  EXPECT_GE(sel.total_duration_ns, sel.max_duration_ns);
  EXPECT_EQ(sel.last_execution_id, 12);
}

// ---------------------------------------------------------------------------
// sys..dm_link_stats: local scan matches the live link counters.

class SysViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    remote_ = AttachRemoteEngine(&host_, "rsrv");
    MustExecute(remote_.engine.get(),
                "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
    MustExecute(remote_.engine.get(),
                "INSERT INTO t VALUES (1,10),(2,20),(3,30),(4,40)");
  }

  Engine host_;
  RemoteServer remote_;
};

TEST_F(SysViewTest, LocalLinkStatsMatchLinkCounters) {
  MustExecute(&host_, "SELECT a, b FROM rsrv.d.s.t WHERE a >= 2");
  net::LinkStats expected = remote_.link->stats();
  EXPECT_GT(expected.messages, 0);

  // The DMV scan itself must not touch the rsrv link (sys is in-process).
  QueryResult r = MustExecute(
      &host_,
      "SELECT server, link, messages, wire_rows, bytes, retries, timeouts, "
      "faults FROM sys..dm_link_stats");
  ASSERT_EQ(r.rowset->rows().size(), 1u);  // sys itself is not a link.
  EXPECT_EQ(GetS(r, 0, "server"), "rsrv");
  EXPECT_EQ(GetS(r, 0, "link"), "rsrv");
  EXPECT_EQ(GetI(r, 0, "messages"), expected.messages);
  EXPECT_EQ(GetI(r, 0, "wire_rows"), expected.rows);
  EXPECT_EQ(GetI(r, 0, "bytes"), expected.bytes);
  EXPECT_EQ(GetI(r, 0, "retries"), expected.retries);
  EXPECT_EQ(GetI(r, 0, "timeouts"), expected.timeouts);
  EXPECT_EQ(GetI(r, 0, "faults"), expected.faults);
  EXPECT_EQ(remote_.link->stats().messages, expected.messages);
}

// Federation-wide introspection: a host reads another engine's DMVs through
// the ordinary linked-server machinery (`mid.sys..dm_link_stats`), so the
// whole topology is diagnosable from one seat.
TEST(SysViewRemoteTest, RemoteDmvScanThroughLinkedEngine) {
  Engine host;
  RemoteServer mid = AttachRemoteEngine(&host, "mid");
  RemoteServer leaf = AttachRemoteEngine(mid.engine.get(), "leaf");
  MustExecute(leaf.engine.get(), "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  MustExecute(leaf.engine.get(), "INSERT INTO t VALUES (1,10),(2,20)");

  // Traffic on mid's link to leaf, invisible to the host's own links.
  MustExecute(mid.engine.get(), "SELECT a, b FROM leaf.d.s.t");
  net::LinkStats expected = leaf.link->stats();
  EXPECT_GT(expected.messages, 0);

  QueryResult r = MustExecute(
      &host,
      "SELECT server, messages, wire_rows, bytes FROM mid.sys..dm_link_stats");
  ASSERT_EQ(r.rowset->rows().size(), 1u);
  EXPECT_EQ(GetS(r, 0, "server"), "leaf");
  EXPECT_EQ(GetI(r, 0, "messages"), expected.messages);
  EXPECT_EQ(GetI(r, 0, "wire_rows"), expected.rows);
  EXPECT_EQ(GetI(r, 0, "bytes"), expected.bytes);

  // The mid engine's query store does not record the scans it answered for
  // the host: they resolve to sys and are excluded on the serving side too.
  for (const auto& rec : mid.engine->query_store()->Snapshot()) {
    EXPECT_EQ(rec->statement.find("dm_link_stats"), std::string::npos)
        << rec->statement;
  }
}

// ---------------------------------------------------------------------------
// dm_exec_query_stats vs the per-execution records under a seeded fault
// schedule: every run counts, failed ones included, and an OK run's record
// carries exactly its result's ExecStats.

TEST_F(SysViewTest, QueryStatsAggregateMatchesExecStatsUnderChaos) {
  remote_.injector->Reset(ChaosSeed(/*suite_tag=*/41, /*index=*/7));
  remote_.injector->SetDropProbability(0.15);

  const std::string sql = "SELECT a, b FROM rsrv.d.s.t WHERE a >= @lo";
  const int kRuns = 20;
  sysview::QueryStore* store = host_.query_store();
  int64_t ok_runs = 0, failed_runs = 0;
  int64_t sum_rows = 0, sum_retries = 0, sum_timeouts = 0, sum_faults = 0;
  int64_t cache_hits = 0;
  for (int i = 0; i < kRuns; ++i) {
    auto result = host_.Execute(sql, {{"@lo", Value::Int64(i % 4)}});
    const sysview::RequestState& rec = *store->Snapshot().back();
    ASSERT_EQ(rec.statement, sql);
    ASSERT_EQ(rec.ok, result.ok());
    sum_rows += rec.rows;
    sum_retries += rec.exec_stats.remote_retries;
    sum_timeouts += rec.exec_stats.remote_timeouts;
    sum_faults += rec.exec_stats.faults_injected;
    if (rec.plan_cache_hit) ++cache_hits;
    if (!result.ok()) {
      ++failed_runs;
      continue;
    }
    ++ok_runs;
    const QueryResult& qr = result.value();
    EXPECT_EQ(rec.rows, static_cast<int64_t>(qr.rowset->rows().size()));
    EXPECT_EQ(rec.exec_stats.remote_retries, qr.exec_stats.remote_retries);
    EXPECT_EQ(rec.exec_stats.remote_timeouts, qr.exec_stats.remote_timeouts);
    EXPECT_EQ(rec.exec_stats.faults_injected, qr.exec_stats.faults_injected);
    EXPECT_EQ(rec.plan_cache_hit, qr.plan_cache_hit);
  }
  ASSERT_GT(ok_runs, 0);
  remote_.injector->Reset();  // Quiesce before reading the views.

  // The parameterized text is one fingerprint; the store's aggregate must
  // agree with the per-execution records.
  QueryResult r = MustExecute(
      &host_,
      "SELECT sample_statement, executions, failures, cache_hits, "
      "cache_misses, rows, retries, timeouts, faults "
      "FROM sys..dm_exec_query_stats WHERE statement_type = 'select'");
  ASSERT_EQ(r.rowset->rows().size(), 1u);
  EXPECT_EQ(GetS(r, 0, "sample_statement"), sql);
  EXPECT_EQ(GetI(r, 0, "executions"), kRuns);
  EXPECT_EQ(GetI(r, 0, "failures"), failed_runs);
  EXPECT_EQ(GetI(r, 0, "rows"), sum_rows);
  EXPECT_EQ(GetI(r, 0, "retries"), sum_retries);
  EXPECT_EQ(GetI(r, 0, "timeouts"), sum_timeouts);
  EXPECT_EQ(GetI(r, 0, "faults"), sum_faults);
  // Every run was cacheable: hits + misses account for all executions.
  EXPECT_EQ(GetI(r, 0, "cache_hits"), cache_hits);
  EXPECT_EQ(GetI(r, 0, "cache_hits") + GetI(r, 0, "cache_misses"), kRuns);
}

// A statement that fails keeps what it counted: the retries and faults it
// paid before giving up reach dm_exec_query_stats, its operators reach
// dm_exec_operator_stats, and its exec.* counters are published.
TEST_F(SysViewTest, FailedStatementKeepsItsCounts) {
  const std::string sql = "SELECT a, b FROM rsrv.d.s.t WHERE a >= 2";
  // Compiled and cached fault-free, so the failing run below touches the
  // link only from inside its operators.
  QueryResult warm = MustExecute(&host_, sql);
  ASSERT_EQ(warm.exec_stats.remote_retries, 0);

  const net::LinkStats before = remote_.link->stats();
  const int64_t exec_retries_before = CounterValue("exec.remote_retries");
  const int64_t exec_faults_before = CounterValue("exec.faults_injected");
  remote_.injector->Reset();
  remote_.injector->FailMessages(/*after=*/0, /*count=*/1000);
  auto failed = host_.Execute(sql);
  remote_.injector->Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNetworkError);
  const net::LinkStats paid = remote_.link->stats() - before;
  ASSERT_GT(paid.retries, 0);
  ASSERT_GT(paid.faults, 0);

  const sysview::RequestState& rec = *host_.query_store()->Snapshot().back();
  ASSERT_EQ(rec.statement, sql);
  EXPECT_FALSE(rec.ok);
  EXPECT_EQ(rec.exec_stats.remote_retries, paid.retries);
  EXPECT_EQ(rec.exec_stats.faults_injected, paid.faults);
  ASSERT_NE(rec.profile(), nullptr);
  EXPECT_EQ(CounterValue("exec.remote_retries") - exec_retries_before,
            paid.retries);
  EXPECT_EQ(CounterValue("exec.faults_injected") - exec_faults_before,
            paid.faults);

  QueryResult stats = MustExecute(
      &host_,
      "SELECT executions, failures, retries, faults "
      "FROM sys..dm_exec_query_stats WHERE statement_type = 'select'");
  ASSERT_EQ(stats.rowset->rows().size(), 1u);
  EXPECT_EQ(GetI(stats, 0, "executions"), 2);
  EXPECT_EQ(GetI(stats, 0, "failures"), 1);
  EXPECT_EQ(GetI(stats, 0, "retries"), paid.retries);
  EXPECT_EQ(GetI(stats, 0, "faults"), paid.faults);

  // The failed execution's operators, with the link faults on the remote
  // operator that paid them.
  QueryResult ops = MustExecute(
      &host_,
      "SELECT query_id, operator, link, opens, retries, faults "
      "FROM sys..dm_exec_operator_stats");
  int64_t op_rows = 0, op_retries = 0, op_faults = 0;
  for (size_t i = 0; i < ops.rowset->rows().size(); ++i) {
    if (GetI(ops, i, "query_id") != rec.execution_id) continue;
    ++op_rows;
    op_retries += GetI(ops, i, "retries");
    op_faults += GetI(ops, i, "faults");
    if (GetS(ops, i, "link") == "rsrv") {
      EXPECT_EQ(GetI(ops, i, "opens"), 1) << GetS(ops, i, "operator");
    }
  }
  EXPECT_GT(op_rows, 0);
  EXPECT_EQ(op_retries, paid.retries);
  EXPECT_EQ(op_faults, paid.faults);
}

// ---------------------------------------------------------------------------
// Self-exclusion: observing the store must not grow it.

TEST_F(SysViewTest, DmvQueriesAreExcludedFromStoreCacheAndCounters) {
  MustExecute(&host_, "SELECT a, b FROM rsrv.d.s.t");
  // A host-local table, so the closing SELECT below is the only statement
  // publishing into the process-wide registry (a linked engine's statement
  // would publish too).
  MustExecute(&host_, "CREATE TABLE loc (a INT PRIMARY KEY, b INT)");
  MustExecute(&host_, "INSERT INTO loc VALUES (1,10),(2,20),(3,30)");
  sysview::QueryStore* store = host_.query_store();
  const int64_t recorded_before = store->total_recorded();
  const size_t cache_before = host_.PlanCacheSnapshot().size();
  const int64_t statements_before = CounterValue("exec.statements");
  const int64_t hits_before = CounterValue("engine.plan_cache.hit");
  const int64_t misses_before = CounterValue("engine.plan_cache.miss");
  const int64_t rows_before = CounterValue("exec.rows_output");
  const int64_t batches_before = CounterValue("exec.batches");
  metrics::Histogram* query_ns =
      metrics::Registry::Global().GetHistogram("engine.query_ns");
  const int64_t samples_before = query_ns->Count();
  const int64_t ns_before = query_ns->Sum();

  // Every shape of DMV read: bare scan, filtered scan, projection, repeat.
  MustExecute(&host_, "SELECT server, messages FROM sys..dm_link_stats");
  QueryResult m = MustExecute(
      &host_,
      "SELECT name, value FROM sys..dm_metrics WHERE name = 'exec.statements'");
  ASSERT_EQ(m.rowset->rows().size(), 1u);
  EXPECT_GT(GetI(m, 0, "value"), 0);
  MustExecute(&host_, "SELECT fingerprint FROM sys..dm_exec_query_stats");
  MustExecute(&host_, "SELECT statement FROM sys..dm_plan_cache");
  // Compile-only EXPLAIN is excluded too (nothing executed).
  MustExecute(&host_, "EXPLAIN SELECT a FROM rsrv.d.s.t");

  EXPECT_EQ(store->total_recorded(), recorded_before);
  EXPECT_EQ(host_.PlanCacheSnapshot().size(), cache_before);
  EXPECT_EQ(CounterValue("exec.statements"), statements_before);
  EXPECT_EQ(CounterValue("engine.plan_cache.hit"), hits_before);
  EXPECT_EQ(CounterValue("engine.plan_cache.miss"), misses_before);
  EXPECT_EQ(CounterValue("exec.rows_output"), rows_before);
  EXPECT_EQ(CounterValue("exec.batches"), batches_before);
  EXPECT_EQ(query_ns->Count(), samples_before);

  // The store and the counters still take ordinary statements afterwards:
  // exactly this SELECT's ExecStats, and one latency sample equal to the
  // duration its store record carries.
  QueryResult r = MustExecute(&host_, "SELECT b FROM loc WHERE a >= 2");
  EXPECT_EQ(store->total_recorded(), recorded_before + 1);
  EXPECT_EQ(CounterValue("exec.statements"), statements_before + 1);
  EXPECT_EQ(CounterValue("exec.rows_output"),
            rows_before + r.exec_stats.rows_output);
  EXPECT_EQ(CounterValue("exec.batches"),
            batches_before + r.exec_stats.exec_batches);
  ASSERT_EQ(query_ns->Count(), samples_before + 1);
  EXPECT_EQ(query_ns->Sum() - ns_before,
            store->Snapshot().back()->duration_ns);
}

// A bare DMV name resolves through the catalog's sys fallback, past the AST
// check; the post-optimize plan walk marks the statement, so a DMV read
// that compiles and then fails is left out like one that succeeds.
TEST_F(SysViewTest, FailedBareDmvReadIsExcluded) {
  const int64_t recorded_before = host_.query_store()->total_recorded();
  const int64_t statements_before = CounterValue("exec.statements");
  const int64_t failures_before = CounterValue("exec.failed_statements");
  auto failed = host_.Execute("SELECT value / 0 FROM dm_metrics");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(host_.query_store()->total_recorded(), recorded_before);
  EXPECT_EQ(CounterValue("exec.statements"), statements_before);
  EXPECT_EQ(CounterValue("exec.failed_statements"), failures_before);
}

// ---------------------------------------------------------------------------
// dm_exec_operator_stats mirrors the recorded operator profiles.

TEST_F(SysViewTest, OperatorStatsMatchFlattenedProfile) {
  QueryResult user = MustExecute(&host_, "SELECT a, b FROM rsrv.d.s.t");
  ASSERT_NE(user.profile, nullptr);
  std::vector<FlatOperator> flat = FlattenOperatorProfile(*user.profile);
  ASSERT_FALSE(flat.empty());

  QueryResult r = MustExecute(
      &host_,
      "SELECT query_id, op_id, parent_op_id, operator, act_rows, opens "
      "FROM sys..dm_exec_operator_stats");
  // SetUp ran no host-side statements, so the store holds exactly the one
  // profiled select (the DMV scan itself is excluded).
  ASSERT_EQ(r.rowset->rows().size(), flat.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    const OperatorProfile& op = *flat[i].op;
    EXPECT_EQ(GetI(r, i, "op_id"), op.id);
    EXPECT_EQ(GetI(r, i, "parent_op_id"), flat[i].parent_id);
    EXPECT_EQ(GetS(r, i, "operator"), op.name);
    EXPECT_EQ(GetI(r, i, "act_rows"), op.rows_out.load());
    EXPECT_EQ(GetI(r, i, "opens"), op.opens.load());
    EXPECT_EQ(GetI(r, i, "query_id"), GetI(r, 0, "query_id"));
  }
  // Pre-order ids are 1..N with the root first, matching EXPLAIN lines.
  EXPECT_EQ(GetI(r, 0, "op_id"), 1);
  EXPECT_EQ(GetI(r, 0, "parent_op_id"), 0);
}

// ---------------------------------------------------------------------------
// dm_plan_cache: hits accumulate; DDL invalidates.

TEST_F(SysViewTest, PlanCacheViewShowsHitsAndSchemaInvalidation) {
  const std::string sql = "SELECT a FROM rsrv.d.s.t WHERE a >= @lo";
  MustExecute(&host_, sql, {{"@lo", Value::Int64(1)}});
  QueryResult second = MustExecute(&host_, sql, {{"@lo", Value::Int64(3)}});
  EXPECT_TRUE(second.plan_cache_hit);

  QueryResult r = MustExecute(
      &host_,
      "SELECT statement, hits, valid FROM sys..dm_plan_cache");
  ASSERT_EQ(r.rowset->rows().size(), 1u);
  EXPECT_EQ(GetS(r, 0, "statement"), sql);
  EXPECT_EQ(GetI(r, 0, "hits"), 1);
  EXPECT_EQ(GetI(r, 0, "valid"), 1);

  // DDL bumps the schema version: the entry survives but reads as stale.
  MustExecute(&host_, "CREATE TABLE scratch (x INT PRIMARY KEY)");
  r = MustExecute(&host_,
                  "SELECT statement, valid FROM sys..dm_plan_cache");
  ASSERT_EQ(r.rowset->rows().size(), 1u);
  EXPECT_EQ(GetI(r, 0, "valid"), 0);
}

// ---------------------------------------------------------------------------
// dm_trace_spans surfaces the global tracer.

TEST_F(SysViewTest, TraceSpansViewExposesRecordedSpans) {
  trace::Tracer::Global().Enable();
  MustExecute(&host_, "SELECT a FROM rsrv.d.s.t");
  QueryResult r = MustExecute(
      &host_, "SELECT name, dur_ns FROM sys..dm_trace_spans");
  trace::Tracer::Global().Disable();

  ASSERT_GT(r.rowset->rows().size(), 0u);
  bool saw_parse = false;
  for (size_t i = 0; i < r.rowset->rows().size(); ++i) {
    if (GetS(r, i, "name") == "engine.parse") saw_parse = true;
    EXPECT_GE(GetI(r, i, "dur_ns"), 0);
  }
  EXPECT_TRUE(saw_parse);
}

// ---------------------------------------------------------------------------
// Slow-query log.

TEST(SlowQueryTest, ThresholdAppendsWarningWithProfileAndCounts) {
  EngineOptions options;
  options.slow_query_ns = 1;  // Everything is slow.
  Engine engine(options);
  MustExecute(&engine, "CREATE TABLE t (a INT PRIMARY KEY)");
  MustExecute(&engine, "INSERT INTO t VALUES (1),(2),(3)");

  const int64_t slow_before = CounterValue("exec.slow_queries");
  const int64_t warn_before = CounterValue("exec.warnings");
  QueryResult r = MustExecute(&engine, "SELECT a FROM t WHERE a >= 2");
  ASSERT_EQ(r.warnings.size(), 1u);
  EXPECT_NE(r.warnings[0].find("slow query:"), std::string::npos);
  // The est-vs-actual profile rides along — the first thing a slow-query
  // investigation wants.
  EXPECT_NE(r.warnings[0].find("#1 "), std::string::npos);
  EXPECT_EQ(CounterValue("exec.slow_queries"), slow_before + 1);
  EXPECT_EQ(CounterValue("exec.warnings"), warn_before + 1);

  // The warning is also visible in the query store record.
  const auto ring = engine.query_store()->Snapshot();
  ASSERT_FALSE(ring.empty());
  EXPECT_EQ(ring.back()->warnings, 1);
}

// ---------------------------------------------------------------------------
// DML metrics (PR 3 only instrumented SELECT).

TEST(DmlMetricsTest, DmlStatementsAndRowsAffectedAreCounted) {
  Engine engine;
  MustExecute(&engine, "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  const int64_t dml_before = CounterValue("exec.dml_statements");
  const int64_t rows_before = CounterValue("exec.dml_rows_affected");

  MustExecute(&engine, "INSERT INTO t VALUES (1,1),(2,2),(3,3)");
  MustExecute(&engine, "UPDATE t SET b = 9 WHERE a >= 2");
  MustExecute(&engine, "DELETE FROM t WHERE a = 1");

  EXPECT_EQ(CounterValue("exec.dml_statements"), dml_before + 3);
  // 3 inserted + 2 updated + 1 deleted.
  EXPECT_EQ(CounterValue("exec.dml_rows_affected"), rows_before + 6);

  // Statement types land in the store for per-shape aggregation.
  std::set<std::string> types;
  for (const FingerprintStats& f : engine.query_store()->AggregateSnapshot()) {
    types.insert(f.statement_type);
  }
  EXPECT_TRUE(types.count("insert"));
  EXPECT_TRUE(types.count("update"));
  EXPECT_TRUE(types.count("delete"));
}

// ---------------------------------------------------------------------------
// The sys name is reserved.

TEST(SysViewReservedTest, UserCannotRebindSysServer) {
  Engine engine;
  auto source = std::make_shared<DmvDataSource>(&engine);
  Status st = engine.AddLinkedServer("sys", source);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  st = engine.AddLinkedServer("SYS", source);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  // The engine's own registration is reachable.
  ASSERT_OK(engine.catalog()->GetLinkedServer("sys").status());
}

// ---------------------------------------------------------------------------
// Explain with parameters binds like Execute would.

TEST_F(SysViewTest, ExplainAcceptsParameters) {
  auto plan = host_.Explain("SELECT a FROM rsrv.d.s.t WHERE a >= @lo",
                            {{"@lo", Value::Int64(2)}});
  ASSERT_OK(plan.status());
  EXPECT_FALSE(plan.value().empty());
  // Unparameterized overload still works.
  ASSERT_OK(host_.Explain("SELECT a, b FROM rsrv.d.s.t").status());
}

// ---------------------------------------------------------------------------
// One statement record: the request dm_exec_requests lists mid-flight is the
// object the query store keeps, and its outcome matches the QueryResult.

TEST_F(SysViewTest, StoreRecordIsTheRequestSeenMidFlight) {
  ScanGate gate;
  ASSERT_OK(host_.AddLinkedServer("gated",
                                  std::make_shared<GatedDataSource>(&gate)));
  const std::string sql = "SELECT a FROM gated.d.s.t";
  MustExecute(&host_, sql);  // Compiled and cached: the run below hits.
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.armed = true;
  }
  QueryResult result;
  std::thread statement([&] { result = MustExecute(&host_, sql); });
  gate.AwaitReached();
  std::shared_ptr<sysview::RequestState> live;
  for (const auto& req : sysview::RequestRegistry::Global().Snapshot()) {
    if (req->engine == host_.name() && req->statement == sql) live = req;
  }
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->Phase(), sysview::RequestPhase::kExecute);
  gate.Open();
  statement.join();

  const auto records = host_.query_store()->Snapshot();
  ASSERT_FALSE(records.empty());
  const sysview::RequestState& rec = *records.back();
  EXPECT_EQ(&rec, live.get());
  EXPECT_EQ(rec.Phase(), sysview::RequestPhase::kFinished);
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.statement_type, "select");
  EXPECT_EQ(rec.fingerprint, FingerprintStatement(sql));
  EXPECT_EQ(rec.activity_id, result.activity_id);
  EXPECT_EQ(rec.rows, static_cast<int64_t>(result.rowset->rows().size()));
  EXPECT_EQ(rec.warnings, static_cast<int64_t>(result.warnings.size()));
  EXPECT_TRUE(rec.plan_cacheable);
  EXPECT_TRUE(rec.plan_cache_hit);
  EXPECT_EQ(rec.plan_cache_hit, result.plan_cache_hit);
  EXPECT_EQ(rec.profile(), result.profile);
  EXPECT_TRUE(rec.exec_stats == result.exec_stats);
  EXPECT_EQ(rec.exec_stats.rows_output, 3);
  const waits::WaitTotals waits = waits::Snapshot(rec.waits);
  EXPECT_EQ(waits.total_count(), result.wait_totals.total_count());
  EXPECT_EQ(waits.total_ns(), result.wait_totals.total_ns());
}

// ---------------------------------------------------------------------------
// Concurrent DMV scans while the engine executes (TSan coverage): a monitor
// thread reads every view through the catalog's system session while the
// owning thread runs remote queries and DDL under a memory budget, so live
// grant rows are read too.

TEST_F(SysViewTest, ConcurrentDmvScansDuringExecution) {
  host_.options()->max_server_memory_bytes = int64_t{64} << 20;
  // Prime cached sessions from the owning thread so the scan loop only
  // reads shared state the engine mutates under its own locks/atomics.
  MustExecute(&host_, "SELECT a FROM rsrv.d.s.t");
  ASSERT_OK(host_.catalog()->SystemSession().status());

  const char* kViews[] = {"dm_exec_query_stats",
                          "dm_exec_operator_stats",
                          "dm_exec_requests",
                          "dm_exec_query_memory_grants",
                          "dm_exec_distributed_requests",
                          "dm_link_stats",
                          "dm_plan_cache",
                          "dm_metrics",
                          "dm_os_wait_stats",
                          "dm_trace_spans"};
  std::atomic<bool> stop{false};
  std::vector<std::string> scan_errors;
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto session = host_.catalog()->SystemSession();
      if (!session.ok()) {
        scan_errors.push_back(session.status().ToString());
        return;
      }
      for (const char* view : kViews) {
        auto rowset = (*session)->OpenRowset(view);
        if (!rowset.ok()) {
          scan_errors.push_back(rowset.status().ToString());
          return;
        }
        auto rows = DrainRowset(rowset->get());
        if (!rows.ok()) {
          scan_errors.push_back(rows.status().ToString());
          return;
        }
      }
    }
  });

  for (int i = 0; i < 30; ++i) {
    MustExecute(&host_, "SELECT a, b FROM rsrv.d.s.t WHERE a >= @lo",
                {{"@lo", Value::Int64(i % 4)}});
    if (i % 10 == 4) {
      // DDL bumps the schema version and invalidates cached plans while the
      // monitor snapshots dm_plan_cache.
      MustExecute(&host_,
                  "CREATE TABLE c" + std::to_string(i) +
                      " (x INT PRIMARY KEY)");
    }
  }
  stop.store(true, std::memory_order_relaxed);
  monitor.join();
  EXPECT_TRUE(scan_errors.empty())
      << "first scan error: " << scan_errors.front();
}

}  // namespace
}  // namespace dhqp
