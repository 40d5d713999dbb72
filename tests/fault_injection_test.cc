// Fault-injection harness tests: the FaultInjector scripting surface,
// Link::SendMessage retry/timeout/backoff semantics and accounting
// invariants, LinkedRowset/PrefetchingRowset behavior under transient and
// permanent faults (including Restart/NextBatch interleavings), and
// end-to-end engine behavior — retry recovery with ExecStats counters,
// provider-attributed errors, session teardown on link-down, and the
// partitioned-view graceful-degradation knob.

#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/governor.h"
#include "src/executor/prefetch.h"
#include "src/executor/worker.h"
#include "src/sysview/requests.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

Schema OneIntSchema() {
  Schema schema;
  schema.AddColumn(ColumnDef{"a", DataType::kInt64, false});
  return schema;
}

std::vector<Row> IntRows(int n) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) rows.push_back({Value::Int64(i)});
  return rows;
}

/// Yields `fail_after` rows, then returns a NetworkError from Next().
class FlakyRowset : public Rowset {
 public:
  FlakyRowset(Schema schema, int fail_after)
      : schema_(std::move(schema)), fail_after_(fail_after) {}

  const Schema& schema() const override { return schema_; }

  Result<bool> Next(Row* out) override {
    if (served_ >= fail_after_) {
      return Status::NetworkError("link dropped mid-stream");
    }
    *out = {Value::Int64(served_++)};
    return true;
  }

 private:
  Schema schema_;
  int fail_after_;
  int served_ = 0;
};

// ---------------------------------------------------------------------------
// FaultInjector scripting.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, WindowScriptDecidesExactOrdinals) {
  net::FaultInjector injector;
  injector.FailMessages(/*after=*/2, /*count=*/2);
  injector.AddLatencySpike(/*after=*/5, /*count=*/1, /*extra_us=*/500);
  std::vector<net::FaultKind> kinds;
  for (int i = 0; i < 7; ++i) kinds.push_back(injector.OnMessage().kind);
  EXPECT_EQ(kinds[0], net::FaultKind::kNone);
  EXPECT_EQ(kinds[1], net::FaultKind::kNone);
  EXPECT_EQ(kinds[2], net::FaultKind::kTransient);
  EXPECT_EQ(kinds[3], net::FaultKind::kTransient);
  EXPECT_EQ(kinds[4], net::FaultKind::kNone);
  EXPECT_EQ(kinds[5], net::FaultKind::kLatency);
  EXPECT_EQ(kinds[6], net::FaultKind::kNone);
  EXPECT_EQ(injector.faults_injected(), 3);
  EXPECT_EQ(injector.messages_seen(), 7);
}

TEST(FaultInjectorTest, LinkDownWinsOverOtherWindows) {
  net::FaultInjector injector;
  injector.AddLatencySpike(/*after=*/0, /*count=*/100, /*extra_us=*/10);
  injector.LinkDownAfter(/*after=*/3);
  EXPECT_EQ(injector.OnMessage().kind, net::FaultKind::kLatency);
  EXPECT_EQ(injector.OnMessage().kind, net::FaultKind::kLatency);
  EXPECT_EQ(injector.OnMessage().kind, net::FaultKind::kLatency);
  EXPECT_EQ(injector.OnMessage().kind, net::FaultKind::kLinkDown);
  EXPECT_EQ(injector.OnMessage().kind, net::FaultKind::kLinkDown);
}

TEST(FaultInjectorTest, SeededDropsReplayExactly) {
  auto decide = [](uint64_t seed) {
    net::FaultInjector injector(seed);
    injector.SetDropProbability(0.3);
    std::string pattern;
    for (int i = 0; i < 200; ++i) {
      pattern +=
          injector.OnMessage().kind == net::FaultKind::kTransient ? '1' : '0';
    }
    return pattern;
  };
  const std::string a = decide(42);
  EXPECT_EQ(a, decide(42));  // Same seed => same drop set.
  EXPECT_NE(a, decide(43));
  EXPECT_NE(a.find('1'), std::string::npos);  // p=0.3 over 200 draws fires.
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST(FaultInjectorTest, ResetRewindsOrdinalsAndClearsSchedule) {
  net::FaultInjector injector(7);
  injector.FailMessages(0, 5);
  EXPECT_EQ(injector.OnMessage().kind, net::FaultKind::kTransient);
  injector.Reset();
  EXPECT_EQ(injector.faults_injected(), 0);
  EXPECT_EQ(injector.messages_seen(), 0);
  EXPECT_EQ(injector.OnMessage().kind, net::FaultKind::kNone);
  // Re-scripting after Reset starts from ordinal 0 again.
  injector.Reset();
  injector.FailMessages(0, 1);
  EXPECT_EQ(injector.OnMessage().kind, net::FaultKind::kTransient);
  EXPECT_EQ(injector.OnMessage().kind, net::FaultKind::kNone);
}

// ---------------------------------------------------------------------------
// Link::SendMessage retry/timeout semantics and accounting.
// ---------------------------------------------------------------------------

TEST(LinkRetryTest, NoInjectorFastPathMatchesChargeMessage) {
  net::Link link("r");
  ASSERT_OK(link.SendMessage(100));
  net::LinkStats stats = link.stats();
  EXPECT_EQ(stats.messages, 1);
  EXPECT_EQ(stats.bytes, 100);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.faults, 0);
}

TEST(LinkRetryTest, TransientFaultAbsorbedByRetry) {
  net::Link link("r");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  injector.FailMessages(0, 1);
  ASSERT_OK(link.SendMessage(100));
  net::LinkStats stats = link.stats();
  // The failed attempt still charged a message: retries are visible traffic.
  EXPECT_EQ(stats.messages, 2);
  EXPECT_EQ(stats.bytes, 200);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.faults, 1);
  EXPECT_EQ(stats.timeouts, 0);
}

TEST(LinkRetryTest, ExhaustedRetriesSurfaceAttributedError) {
  net::Link link("remote_a");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  injector.FailMessages(0, 100);
  Status st = link.SendMessage(50);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNetworkError);
  // Provider-attributed: the message names the linked server and the
  // exhausted retry budget.
  EXPECT_NE(st.message().find("remote_a"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("3 attempts"), std::string::npos)
      << st.ToString();
  net::LinkStats stats = link.stats();
  EXPECT_EQ(stats.messages, 3);  // Default policy: 3 attempts.
  EXPECT_EQ(stats.retries, 2);   // Attempts minus the first.
  EXPECT_EQ(stats.faults, 3);
}

TEST(LinkRetryTest, LinkDownFailsFastWithoutRetry) {
  net::Link link("remote_b");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  injector.LinkDownAfter(0);
  Status st = link.SendMessage(50);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNetworkError);
  EXPECT_NE(st.message().find("remote_b"), std::string::npos);
  EXPECT_NE(st.message().find("link down"), std::string::npos);
  net::LinkStats stats = link.stats();
  EXPECT_EQ(stats.messages, 1);  // No point retrying a dead link.
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.faults, 1);
}

TEST(LinkRetryTest, LatencySpikePastDeadlineTimesOutThenRecovers) {
  net::Link link("r");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  net::RetryPolicy policy;
  policy.deadline_us = 200;
  link.set_retry_policy(policy);
  injector.AddLatencySpike(/*after=*/0, /*count=*/1, /*extra_us=*/500);
  ASSERT_OK(link.SendMessage(10));  // Timeout on attempt 1, clean attempt 2.
  net::LinkStats stats = link.stats();
  EXPECT_EQ(stats.timeouts, 1);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.messages, 2);
  EXPECT_EQ(stats.faults, 1);
}

TEST(LinkRetryTest, SpikeWithinDeadlineIsJustSlow) {
  net::Link link("r");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  net::RetryPolicy policy;
  policy.deadline_us = 10000;
  link.set_retry_policy(policy);
  injector.AddLatencySpike(/*after=*/0, /*count=*/1, /*extra_us=*/500);
  ASSERT_OK(link.SendMessage(10));
  net::LinkStats stats = link.stats();
  EXPECT_EQ(stats.timeouts, 0);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.messages, 1);
}

TEST(LinkRetryTest, SingleAttemptPolicyDisablesRetry) {
  net::Link link("r");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  net::RetryPolicy policy;
  policy.max_attempts = 1;
  link.set_retry_policy(policy);
  injector.FailMessages(0, 1);
  Status st = link.SendMessage(10);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(link.stats().retries, 0);
  EXPECT_EQ(link.stats().messages, 1);
}

// ---------------------------------------------------------------------------
// LinkedRowset accounting under faults (satellite: Restart + NextBatch
// interleavings; retries charge messages, rows never double-counted).
// ---------------------------------------------------------------------------

TEST(LinkedRowsetFaultTest, TransientFaultsChargeMessagesButRowsOnce) {
  net::Link link("r");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  net::LinkedRowset rowset(
      std::make_unique<VectorRowset>(OneIntSchema(), IntRows(200)), &link,
      /*batch_rows=*/64);

  // Fault-free drain: 200 rows in 64-row blocks -> 3 full + 1 partial.
  auto drained = DrainRowset(&rowset);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ASSERT_EQ(drained->size(), 200u);
  const int64_t clean_messages = link.stats().messages;
  EXPECT_EQ(clean_messages, 4);
  EXPECT_EQ(link.stats().rows, 200);

  // Same drain with one transient fault: one extra message (the resend),
  // exactly the same row count.
  link.ResetStats();  // Between queries: no concurrent charger.
  injector.Reset();
  injector.FailMessages(/*after=*/1, /*count=*/1);
  ASSERT_OK(rowset.Restart());
  drained = DrainRowset(&rowset);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ASSERT_EQ(drained->size(), 200u);
  net::LinkStats stats = link.stats();
  EXPECT_EQ(stats.messages, clean_messages + 1);
  EXPECT_EQ(stats.retries, 1);
  EXPECT_EQ(stats.rows, 200);  // Never double-counted across retries.
}

TEST(LinkedRowsetFaultTest, RestartNextBatchInterleavingsUnderFaults) {
  net::Link link("r");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  injector.FailMessages(/*after=*/2, /*count=*/1);
  net::LinkedRowset rowset(
      std::make_unique<VectorRowset>(OneIntSchema(), IntRows(200)), &link,
      /*batch_rows=*/64);

  // Block-fetch drain across the faulted ordinal: every row arrives once.
  RowBatch batch;
  int64_t total = 0;
  while (true) {
    auto has = rowset.NextBatch(&batch, 64);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    if (!*has) break;
    total += static_cast<int64_t>(batch.size());
  }
  EXPECT_EQ(total, 200);
  net::LinkStats stats = link.stats();
  EXPECT_EQ(stats.rows, 200);
  EXPECT_EQ(stats.retries, 1);
  // 4 block messages plus the one faulted attempt.
  EXPECT_EQ(stats.messages, 5);

  // Interleave: restart, pull a few rows through Next(), then Restart again
  // and re-drain in blocks. The first Next() fetched and charged a whole
  // 64-row provider block before handing on a row, so the abandoned read
  // pays for that block and the re-drain for every row once more.
  ASSERT_OK(rowset.Restart());
  Row row;
  for (int i = 0; i < 10; ++i) {
    auto has = rowset.Next(&row);
    ASSERT_TRUE(has.ok());
    ASSERT_TRUE(*has);
  }
  ASSERT_OK(rowset.Restart());
  total = 0;
  while (true) {
    auto has = rowset.NextBatch(&batch, 64);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    if (!*has) break;
    total += static_cast<int64_t>(batch.size());
  }
  EXPECT_EQ(total, 200);
  // Two drains plus the one block read before the restart.
  EXPECT_EQ(link.stats().rows, 200 + 64 + 200);
}

TEST(LinkedRowsetFaultTest, RestartRecoversAfterExhaustedRetries) {
  net::Link link("r");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  net::RetryPolicy policy;
  policy.max_attempts = 1;
  link.set_retry_policy(policy);
  injector.FailMessages(/*after=*/0, /*count=*/1);
  net::LinkedRowset rowset(
      std::make_unique<VectorRowset>(OneIntSchema(), IntRows(200)), &link,
      /*batch_rows=*/64);
  RowBatch batch;
  auto has = rowset.NextBatch(&batch, 64);
  ASSERT_FALSE(has.ok());
  EXPECT_EQ(has.status().code(), StatusCode::kNetworkError);
  const int64_t rows_before = link.stats().rows;

  // Fault cleared: Restart + full drain works and charges exactly one drain.
  injector.Reset();
  ASSERT_OK(rowset.Restart());
  auto drained = DrainRowset(&rowset);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained->size(), 200u);
  EXPECT_EQ(link.stats().rows - rows_before, 200);
}

// ---------------------------------------------------------------------------
// PrefetchingRowset under faults (satellites: producer always joins on
// early abandon; Restart works after a transient fault).
// ---------------------------------------------------------------------------

ExecOptions SmallBatches() {
  ExecOptions options;
  options.remote_batch_rows = 64;
  options.prefetch_queue_depth = 2;
  return options;
}

TEST(PrefetchFaultTest, ProducerAbsorbsTransientFaultViaRetry) {
  net::Link link("r");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  injector.FailMessages(/*after=*/1, /*count=*/1);
  {
    PrefetchingRowset rowset(
        std::make_unique<net::LinkedRowset>(
            std::make_unique<VectorRowset>(OneIntSchema(), IntRows(200)),
            &link, /*batch_rows=*/64),
        SmallBatches());
    auto drained = DrainRowset(&rowset);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    EXPECT_EQ(drained->size(), 200u);
  }
  EXPECT_GE(link.stats().retries, 1);
  EXPECT_EQ(link.stats().rows, 200);
  EXPECT_EQ(QueryWorkers::live(), 0);
}

TEST(PrefetchFaultTest, StickyErrorThenRestartRecoversAfterFaultCleared) {
  net::Link link("r");
  net::FaultInjector injector;
  link.set_fault_injector(&injector);
  injector.LinkDownAfter(/*after=*/1);
  PrefetchingRowset rowset(
      std::make_unique<net::LinkedRowset>(
          std::make_unique<VectorRowset>(OneIntSchema(), IntRows(200)), &link,
          /*batch_rows=*/64),
      SmallBatches());
  Row row;
  Status error = Status::OK();
  while (true) {
    auto has = rowset.Next(&row);
    if (!has.ok()) {
      error = has.status();
      break;
    }
    if (!*has) break;
  }
  EXPECT_EQ(error.code(), StatusCode::kNetworkError);
  // Sticky until restarted.
  auto again = rowset.Next(&row);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kNetworkError);

  // Transient outage over: the producer relaunches and re-drains fully.
  injector.Reset();
  ASSERT_OK(rowset.Restart());
  auto drained = DrainRowset(&rowset);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(drained->size(), 200u);
}

TEST(PrefetchFaultTest, AbandonedConsumerAlwaysJoinsProducer) {
  ASSERT_EQ(QueryWorkers::live(), 0);
  // Abandon with the producer mid-stream (blocked pushing into a full
  // queue): destruction must close the queue and join.
  {
    PrefetchingRowset rowset(
        std::make_unique<VectorRowset>(OneIntSchema(), IntRows(5000)),
        SmallBatches());
    Row row;
    auto has = rowset.Next(&row);
    ASSERT_TRUE(has.ok());
  }
  EXPECT_EQ(QueryWorkers::live(), 0);

  // Abandon without ever reading, with the producer hitting an error before
  // the consumer drains anything.
  {
    PrefetchingRowset rowset(
        std::make_unique<FlakyRowset>(OneIntSchema(), /*fail_after=*/10),
        SmallBatches());
  }
  EXPECT_EQ(QueryWorkers::live(), 0);
}

// ---------------------------------------------------------------------------
// End-to-end: engine-level retry recovery, attributed errors, session
// teardown, and the partitioned-view degradation knob.
// ---------------------------------------------------------------------------

TEST(EndToEndFaultTest, TransientFaultRecoversAndShowsInExecStats) {
  Engine host;
  RemoteServer remote = AttachRemoteEngine(&host, "r");
  MustExecute(remote.engine.get(), "CREATE TABLE t (a INT)");
  for (int i = 0; i < 100; ++i) {
    MustExecute(remote.engine.get(),
                "INSERT INTO t (a) VALUES (" + std::to_string(i) + ")");
  }
  // Warm up sessions, metadata and the plan cache fault-free.
  QueryResult clean = MustExecute(&host, "SELECT COUNT(*) FROM r.d.s.t");
  EXPECT_EQ(RowsToString(clean), "(100)");
  EXPECT_EQ(clean.exec_stats.remote_retries, 0);
  EXPECT_EQ(clean.exec_stats.faults_injected, 0);

  // One transient single-message fault mid-stream: the retry absorbs it and
  // the per-query counters record it.
  remote.injector->Reset();
  remote.injector->FailMessages(/*after=*/1, /*count=*/1);
  QueryResult faulted = MustExecute(&host, "SELECT COUNT(*) FROM r.d.s.t");
  EXPECT_EQ(RowsToString(faulted), "(100)");
  EXPECT_GE(faulted.exec_stats.remote_retries, 1);
  EXPECT_GE(faulted.exec_stats.faults_injected, 1);
  EXPECT_EQ(QueryWorkers::live(), 0);
}

// Per-statement fault counters come from the statement's own operators: a
// retry that statement A pays on its link never lands on statement B, even
// while B is in flight on the same engine.
TEST(EndToEndFaultTest, ConcurrentStatementsKeepTheirOwnRetries) {
  Engine host;
  RemoteServer remote = AttachRemoteEngine(&host, "r");
  MustExecute(remote.engine.get(), "CREATE TABLE t (a INT)");
  for (int i = 0; i < 100; ++i) {
    MustExecute(remote.engine.get(),
                "INSERT INTO t (a) VALUES (" + std::to_string(i) + ")");
  }
  ScanGate gate;
  ASSERT_OK(host.AddLinkedServer("gated",
                                 std::make_shared<GatedDataSource>(&gate)));
  const std::string sql_a = "SELECT COUNT(*) FROM r.d.s.t";
  const std::string sql_b = "SELECT a FROM gated.d.s.t";
  // Warm sessions, metadata and plans fault-free, with the gate disarmed.
  MustExecute(&host, sql_a);
  MustExecute(&host, sql_b);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.armed = true;
  }

  QueryResult b;
  std::thread statement_b([&] { b = MustExecute(&host, sql_b); });
  gate.AwaitReached();  // B is executing its scan.
  remote.injector->Reset();
  remote.injector->FailMessages(/*after=*/1, /*count=*/1);
  QueryResult a = MustExecute(&host, sql_a);
  gate.Open();
  statement_b.join();

  EXPECT_EQ(RowsToString(a), "(100)");
  EXPECT_EQ(a.exec_stats.remote_retries, 1);
  EXPECT_EQ(a.exec_stats.faults_injected, 1);
  EXPECT_EQ(RowsToString(b), "(0)(1)(2)");
  EXPECT_EQ(b.exec_stats.remote_retries, 0);
  EXPECT_EQ(b.exec_stats.faults_injected, 0);
  // The query store keeps the same per-statement counts: A finished (and
  // was recorded) before the gate let B finish.
  const std::vector<std::shared_ptr<const sysview::RequestState>> records =
      host.query_store()->Snapshot();
  ASSERT_GE(records.size(), 2u);
  const sysview::RequestState& store_a = *records[records.size() - 2];
  const sysview::RequestState& store_b = *records[records.size() - 1];
  EXPECT_EQ(store_a.statement, sql_a);
  EXPECT_EQ(store_a.exec_stats.remote_retries, 1);
  EXPECT_EQ(store_b.statement, sql_b);
  EXPECT_EQ(store_b.exec_stats.remote_retries, 0);
  EXPECT_EQ(QueryWorkers::live(), 0);
}

// A member engine serving a coordinator's statement runs under the
// coordinator's activity id, so the two requests share it. The member's
// dm_exec_query_memory_grants row must still read the member request's own
// memory, not the coordinator's. Here the member statement waits in the
// member's semaphore (a gated scan on the member holds the whole budget)
// while the coordinator's sort already holds its local rows.
TEST(MemoryGrantsViewTest, MemberRowReportsTheMemberRequestsMemory) {
  constexpr int64_t kBudget = int64_t{1} << 20;
  Engine host;
  RemoteServer member = AttachRemoteEngine(&host, "m");
  Engine* m = member.engine.get();
  m->options()->max_server_memory_bytes = kBudget;
  m->options()->min_grant_bytes = kBudget;  // Every grant takes it all.
  m->options()->grant_timeout_ms = 60000;
  MustExecute(m, "CREATE TABLE t (a INT)");
  MustExecute(m, "INSERT INTO t VALUES (1000),(1001),(1002)");
  ScanGate gate;
  ASSERT_OK(m->AddLinkedServer("gated",
                               std::make_shared<GatedDataSource>(&gate)));
  // Enough rows that the sort has charged its buffer to the coordinator's
  // tracker (charges flush every 64 KiB) before the member branch opens.
  MustExecute(&host, "CREATE TABLE loc (a INT)");
  for (int i = 0; i < 2000; i += 100) {
    std::string values;
    for (int j = i; j < i + 100; ++j) {
      values += (j == i ? "(" : ",(") + std::to_string(j) + ")";
    }
    MustExecute(&host, "INSERT INTO loc VALUES " + values);
  }
  // A serial Concat: the sort buffers loc's rows before the member branch
  // opens and sends the member its statement.
  MustExecute(&host,
              "CREATE VIEW u AS SELECT a FROM loc UNION ALL "
              "SELECT a FROM m.d.s.t");
  const std::string coordinator_sql = "SELECT a FROM u ORDER BY a";
  const std::string holder_sql = "SELECT a FROM gated.d.s.t";
  MustExecute(&host, coordinator_sql);  // Warm plans and sessions.
  MustExecute(m, holder_sql);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.armed = true;
  }

  std::thread holder([&] { MustExecute(m, holder_sql); });
  gate.AwaitReached();  // The holder owns the member's whole budget.
  QueryResult coordinator;
  std::thread statement(
      [&] { coordinator = MustExecute(&host, coordinator_sql); });
  while (governor::Governor::Global().queued_statements() == 0) {
    std::this_thread::yield();
  }

  QueryResult grants = MustExecute(
      m,
      "SELECT activity_id, is_queued, used_bytes, peak_bytes "
      "FROM sys..dm_exec_query_memory_grants");
  const Schema& schema = grants.rowset->schema();
  auto col = [&](const Row& row, const char* name) -> const Value& {
    return row[static_cast<size_t>(schema.FindColumn(name))];
  };
  const Row* queued = nullptr;
  for (const Row& row : grants.rowset->rows()) {
    if (col(row, "is_queued").int64_value() != 0) queued = &row;
  }
  ASSERT_NE(queued, nullptr) << RowsToString(grants);
  const std::string activity = col(*queued, "activity_id").string_value();
  std::shared_ptr<sysview::RequestState> member_request;
  std::shared_ptr<sysview::RequestState> coordinator_request;
  for (const auto& req : sysview::RequestRegistry::Global().Snapshot()) {
    if (req->activity_id != activity) continue;
    (req->engine == "m" ? member_request : coordinator_request) = req;
  }
  ASSERT_NE(member_request, nullptr);
  ASSERT_NE(coordinator_request, nullptr);
  // The two requests' memory differs, so the row shows whose it read.
  ASSERT_GT(coordinator_request->memory.current(),
            member_request->memory.current());
  EXPECT_EQ(col(*queued, "used_bytes").int64_value(),
            member_request->memory.current());
  EXPECT_EQ(col(*queued, "peak_bytes").int64_value(),
            member_request->memory.peak());

  gate.Open();
  holder.join();
  statement.join();
  ASSERT_NE(coordinator.rowset, nullptr);
  EXPECT_EQ(coordinator.rowset->rows().size(), 2003u);
  EXPECT_EQ(governor::Governor::Global().active_grants(), 0);
  EXPECT_EQ(QueryWorkers::live(), 0);
}

TEST(EndToEndFaultTest, LinkDownSurfacesAttributedErrorAndEngineRecovers) {
  Engine host;
  RemoteServer remote = AttachRemoteEngine(&host, "r");
  MustExecute(remote.engine.get(), "CREATE TABLE t (a INT)");
  MustExecute(remote.engine.get(), "INSERT INTO t (a) VALUES (5)");
  EXPECT_EQ(RowsToString(MustExecute(&host, "SELECT a FROM r.d.s.t")), "(5)");

  remote.injector->Reset();
  remote.injector->LinkDownAfter(0);
  auto result = host.Execute("SELECT a FROM r.d.s.t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNetworkError);
  EXPECT_NE(result.status().message().find("'r'"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(QueryWorkers::live(), 0);

  // Outage over: the engine reconnects (the failed query tore down the
  // cached session) and the same statement works again.
  remote.injector->Reset();
  EXPECT_EQ(RowsToString(MustExecute(&host, "SELECT a FROM r.d.s.t")), "(5)");
}

// The wire rule end to end: a remote operator hands on only rows from a
// block that one message fetched and charged. A TOP that stops inside the
// first block has still paid for that block, so its wire rows cover its
// rows out, and with the link down after the open it fails — inline and
// prefetched alike — instead of returning rows no message carried.
TEST(EndToEndFaultTest, RemoteRowsArriveOnlyInChargedBlocks) {
  Engine host;
  // Keep execution the only fallible phase: with the plan cached, the
  // statement's first message is the remote query's open.
  host.options()->delayed_schema_validation = false;
  RemoteServer remote = AttachRemoteEngine(&host, "rsrv");
  MustExecute(remote.engine.get(), "CREATE TABLE r (a INT, e INT)");
  std::string insert = "INSERT INTO r VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i) insert += ",";
    insert += "(" + std::to_string(i) + "," + std::to_string(i % 7) + ")";
  }
  MustExecute(remote.engine.get(), insert);
  const std::string sql = "SELECT TOP 10 a FROM rsrv.db.dbo.r";
  for (bool prefetch : {false, true}) {
    host.options()->execution.enable_remote_prefetch = prefetch;
    const std::string mode = prefetch ? "prefetch" : "inline";
    // Fault-free (and reconnecting after the previous mode's failure).
    const int64_t rows_before = remote.link->stats().rows;
    QueryResult ok = MustExecute(&host, sql);
    EXPECT_EQ(ok.rowset->rows().size(), 10u) << mode;
    EXPECT_EQ(CountOps(ok.plan, PhysicalOpKind::kRemoteQuery), 1) << mode;
    int64_t wire_rows = 0;
    for (const FlatOperator& f : FlattenOperatorProfile(*ok.profile)) {
      if (!IsRemoteOp(f.op->kind)) continue;
      const int64_t charged = f.op->link_charges.rows.load();
      EXPECT_GE(charged, f.op->rows_out.load()) << mode << " " << f.op->name;
      wire_rows += charged;
    }
    EXPECT_GE(wire_rows, 10) << mode;
    EXPECT_EQ(wire_rows, remote.link->stats().rows - rows_before) << mode;

    remote.injector->Reset();
    remote.injector->LinkDownAfter(1);
    auto failed = host.Execute(sql);
    remote.injector->Reset();
    ASSERT_FALSE(failed.ok()) << mode;
    EXPECT_EQ(failed.status().code(), StatusCode::kNetworkError) << mode;
    EXPECT_EQ(QueryWorkers::live(), 0) << mode;
  }
}

TEST(EndToEndFaultTest, DropRemoteSessionsForcesReconnect) {
  Engine host;
  RemoteServer remote = AttachRemoteEngine(&host, "r");
  MustExecute(remote.engine.get(), "CREATE TABLE t (a INT)");
  auto id_result = host.catalog()->GetLinkedServerId("r");
  ASSERT_TRUE(id_result.ok());
  const int id = *id_result;
  auto first = host.catalog()->GetSession(id);
  auto again = host.catalog()->GetSession(id);
  ASSERT_TRUE(first.ok() && again.ok());
  EXPECT_EQ(*first, *again);  // Cached.

  const int64_t messages_before = remote.link->stats().messages;
  host.catalog()->DropRemoteSessions();
  auto fresh = host.catalog()->GetSession(id);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, nullptr);
  // The reconnect paid a new session handshake on the link.
  EXPECT_GT(remote.link->stats().messages, messages_before);
}

class DegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keep execution the only fallible phase: metadata was validated during
    // the fault-free warmup below.
    host_.options()->delayed_schema_validation = false;
    for (int m = 0; m < 3; ++m) {
      RemoteServer server = AttachRemoteEngine(&host_, "m" + std::to_string(m));
      MustExecute(server.engine.get(), "CREATE TABLE part (id INT, v INT)");
      for (int i = 0; i < 20; ++i) {
        MustExecute(server.engine.get(),
                    "INSERT INTO part (id, v) VALUES (" +
                        std::to_string(m * 1000 + i) + ", " +
                        std::to_string(i) + ")");
      }
      servers_.push_back(std::move(server));
    }
    MustExecute(&host_,
                "CREATE VIEW part_all AS "
                "SELECT * FROM m0.d.s.part UNION ALL "
                "SELECT * FROM m1.d.s.part UNION ALL "
                "SELECT * FROM m2.d.s.part");
    baseline_ = RowMultiset(MustExecute(&host_, kQuery));
    EXPECT_EQ(baseline_.size(), 60u);
  }

  static std::multiset<std::string> RowMultiset(const QueryResult& result) {
    std::multiset<std::string> out;
    for (const Row& row : result.rowset->rows()) out.insert(RowToString(row));
    return out;
  }

  /// The fault-free multiset minus member `m`'s rows (ids m*1000..m*1000+19).
  std::multiset<std::string> WithoutMember(int m) const {
    std::multiset<std::string> out;
    for (const std::string& row : baseline_) {
      const int id = std::atoi(row.c_str() + 1);  // Rows render "(id, v)".
      if (id >= m * 1000 && id < m * 1000 + 1000) continue;
      out.insert(row);
    }
    return out;
  }

  static constexpr const char* kQuery = "SELECT id, v FROM part_all";

  Engine host_;
  std::vector<RemoteServer> servers_;
  std::multiset<std::string> baseline_;
};

TEST_F(DegradationTest, KnobOffUnreachableMemberFailsTheQuery) {
  servers_[1].injector->Reset();  // Rewind past the warmup's ordinals.
  servers_[1].injector->LinkDownAfter(0);
  for (int dop : {1, 4}) {
    host_.options()->execution.concat_dop = dop;
    auto result = host_.Execute(kQuery);
    ASSERT_FALSE(result.ok()) << "dop=" << dop;
    EXPECT_EQ(result.status().code(), StatusCode::kNetworkError);
    EXPECT_EQ(QueryWorkers::live(), 0);
  }
}

TEST_F(DegradationTest, KnobOnSkipsUnreachableMemberAndReports) {
  servers_[1].injector->Reset();  // Rewind past the warmup's ordinals.
  servers_[1].injector->LinkDownAfter(0);
  host_.options()->execution.skip_unreachable_members = true;
  const std::multiset<std::string> expected = WithoutMember(1);
  ASSERT_EQ(expected.size(), 40u);

  for (int dop : {1, 4}) {
    host_.options()->execution.concat_dop = dop;
    auto result = host_.Execute(kQuery);
    ASSERT_TRUE(result.ok()) << "dop=" << dop << ": "
                             << result.status().ToString();
    EXPECT_EQ(RowMultiset(*result), expected) << "dop=" << dop;
    EXPECT_EQ(result->exec_stats.members_skipped, 1) << "dop=" << dop;
    ASSERT_EQ(result->warnings.size(), 1u) << "dop=" << dop;
    EXPECT_NE(result->warnings[0].find("m1"), std::string::npos)
        << result->warnings[0];
    EXPECT_EQ(QueryWorkers::live(), 0);
  }
}

TEST_F(DegradationTest, KnobOnStillFailsWhenMemberDiesMidStream) {
  // The member answers the open + first block, then the link dies: rows
  // already surfaced cannot be retracted, so skipping would be a silent
  // partial — the query must fail even with the knob on, whether members
  // run sequentially or on parallel Concat workers.
  host_.options()->execution.skip_unreachable_members = true;
  host_.options()->execution.enable_remote_prefetch = false;
  // Grow the member past one wire block (64 rows) so the scan spans several
  // blocks: ordinal 0 is the open/execute message, ordinal 1 the first
  // block (64 rows, charged and then delivered to the consumer), ordinal 2
  // the next block — by then rows have already surfaced, so the skip must
  // be refused even with the knob on.
  for (int i = 20; i < 120; ++i) {
    MustExecute(servers_[1].engine.get(),
                "INSERT INTO part (id, v) VALUES (" +
                    std::to_string(1000 + i) + ", " + std::to_string(i) + ")");
  }
  for (int dop : {1, 4}) {
    host_.options()->execution.concat_dop = dop;
    servers_[1].injector->Reset();
    // Reconnect before arming the fault: the previous failure dropped the
    // cached sessions, and a new session's handshake would take ordinal 0,
    // so the link would die on the first block, before any row surfaced.
    MustExecute(&host_, kQuery);
    servers_[1].injector->Reset();
    servers_[1].injector->LinkDownAfter(2);
    auto result = host_.Execute(kQuery);
    ASSERT_FALSE(result.ok()) << "dop=" << dop;
    EXPECT_EQ(result.status().code(), StatusCode::kNetworkError);
  }
}

}  // namespace
}  // namespace dhqp
