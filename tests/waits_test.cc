// Wait-statistics suite: the waits:: taxonomy end to end. Unit coverage of
// RecordWait's three sinks (global histograms, per-query tally, per-operator
// tally) and the enable switch; the acceptance scenario — seeded chaos at
// dop=4 with prefetch makes dm_os_wait_stats report nonzero RETRY_BACKOFF /
// EXCHANGE_QUEUE_* / PREFETCH_QUEUE; EXPLAIN ANALYZE wait attribution to the
// correct operators; the distributed-request view joining coordinator
// executions to member work by activity id; named worker-thread tracks in
// the tracer; and the differential wait-sanity cross over
// dop x exec_batch_rows.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/activity.h"
#include "src/common/trace.h"
#include "src/common/waits.h"
#include "tests/differential_harness.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

// ---------------------------------------------------------------------------
// Unit: RecordWait charges every sink; the switch and reset work.
// ---------------------------------------------------------------------------

int64_t GlobalCount(const std::string& type) {
  for (const waits::WaitStatRow& row : waits::GlobalSnapshot()) {
    if (row.wait_type == type) return row.waiting_tasks_count;
  }
  ADD_FAILURE() << "wait type " << type << " missing from GlobalSnapshot";
  return -1;
}

TEST(WaitsUnitTest, RecordWaitChargesAllThreeSinks) {
  waits::ResetGlobal();
  waits::WaitTally query;
  waits::WaitTally op;
  {
    waits::ScopedQueryTally scope(&query);
    waits::RecordWait(waits::WaitType::kLinkSend, 1000, &op);
    waits::RecordWait(waits::WaitType::kLinkSend, 500);  // No operator.
  }
  EXPECT_EQ(query.CountFor(waits::WaitType::kLinkSend), 2);
  EXPECT_EQ(op.CountFor(waits::WaitType::kLinkSend), 1);
  EXPECT_GE(query.NsFor(waits::WaitType::kLinkSend),
            op.NsFor(waits::WaitType::kLinkSend));
  EXPECT_EQ(GlobalCount("LINK_SEND"), 2);

  // Outside the scope the thread has no query tally; only global advances.
  waits::RecordWait(waits::WaitType::kLinkSend, 100);
  EXPECT_EQ(query.CountFor(waits::WaitType::kLinkSend), 2);
  EXPECT_EQ(GlobalCount("LINK_SEND"), 3);
}

TEST(WaitsUnitTest, ZeroDurationWaitsStillCount) {
  waits::ResetGlobal();
  waits::WaitTally query;
  {
    waits::ScopedQueryTally scope(&query);
    // An unenforced-link backoff takes no wall time but must be visible:
    // the *event count* is what a retry-storm diagnosis keys on.
    waits::RecordWait(waits::WaitType::kRetryBackoff, 0);
  }
  EXPECT_EQ(query.CountFor(waits::WaitType::kRetryBackoff), 1);
  EXPECT_EQ(query.NsFor(waits::WaitType::kRetryBackoff), 0);
  EXPECT_EQ(GlobalCount("RETRY_BACKOFF"), 1);
}

TEST(WaitsUnitTest, SnapshotAndTopType) {
  waits::WaitTally tally;
  tally.Add(waits::WaitType::kPrefetchQueue, 10);
  tally.Add(waits::WaitType::kLinkSend, 100000);
  tally.Add(waits::WaitType::kLinkSend, 100000);
  const waits::WaitTotals totals = waits::Snapshot(tally);
  EXPECT_EQ(totals.total_count(), 3);
  EXPECT_EQ(totals.count[static_cast<int>(waits::WaitType::kLinkSend)], 2);
  EXPECT_EQ(totals.TopType(), "LINK_SEND");
  EXPECT_EQ(waits::WaitTotals{}.TopType(), "");
}

TEST(WaitsUnitTest, GlobalSnapshotCoversWholeTaxonomyInOrder) {
  const std::vector<waits::WaitStatRow> rows = waits::GlobalSnapshot();
  ASSERT_EQ(rows.size(), static_cast<size_t>(waits::kNumWaitTypes));
  for (int i = 0; i < waits::kNumWaitTypes; ++i) {
    EXPECT_EQ(rows[static_cast<size_t>(i)].wait_type,
              waits::Name(static_cast<waits::WaitType>(i)));
    EXPECT_GE(rows[static_cast<size_t>(i)].max_wait_time_ns, 0);
  }
}

TEST(ActivityUnitTest, GenerateAdoptRestore) {
  EXPECT_TRUE(activity::Current().empty());
  const std::string id = activity::Generate("host");
  EXPECT_EQ(id.find("host#"), 0u);
  {
    activity::Scope outer(id);
    EXPECT_EQ(activity::Current(), id);
    {
      activity::Scope inner("other#7");
      EXPECT_EQ(activity::Current(), "other#7");
    }
    EXPECT_EQ(activity::Current(), id);
  }
  EXPECT_TRUE(activity::Current().empty());
  // Ids are unique per Generate call.
  EXPECT_NE(activity::Generate("host"), activity::Generate("host"));
}

// ---------------------------------------------------------------------------
// Integration fixture: local tables past the exchange break-even plus a
// remote member behind a faultable link.
// ---------------------------------------------------------------------------

constexpr int kBig1Rows = 8000;
constexpr int kRemoteRows = 2000;

void Fill(Engine* engine, const std::string& table, int rows, int cols) {
  for (int base = 0; base < rows; base += 1000) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    int end = std::min(base + 1000, rows);
    for (int i = base; i < end; ++i) {
      if (i != base) sql += ",";
      sql += "(" + std::to_string(i);
      if (cols >= 2) sql += "," + std::to_string(i % 97);
      if (cols >= 3) sql += "," + std::to_string((i * 31) % 1009);
      sql += ")";
    }
    MustExecute(engine, sql);
  }
}

class WaitsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    remote_ = AttachRemoteEngine(&host_, "rsrv");
    MustExecute(&host_, "CREATE TABLE big1 (a INT PRIMARY KEY, b INT, c INT)");
    Fill(&host_, "big1", kBig1Rows, 3);
    MustExecute(remote_.engine.get(),
                "CREATE TABLE r (a INT PRIMARY KEY, e INT)");
    Fill(remote_.engine.get(), "r", kRemoteRows, 2);
  }

  std::map<std::string, int64_t> WaitCountsViaDmv() {
    QueryResult result = MustExecute(
        &host_,
        "SELECT wait_type, waiting_tasks_count, wait_time_ns, "
        "max_wait_time_ns FROM sys..dm_os_wait_stats");
    std::map<std::string, int64_t> counts;
    EXPECT_EQ(result.rowset->rows().size(),
              static_cast<size_t>(waits::kNumWaitTypes));
    for (const Row& row : result.rowset->rows()) {
      counts[row[0].string_value()] = row[1].int64_value();
      // Sanity on every row: times are non-negative, the max never exceeds
      // the per-type total, and zero-count types report zero time.
      EXPECT_GE(row[2].int64_value(), 0) << row[0].string_value();
      EXPECT_LE(row[3].int64_value(), row[2].int64_value())
          << row[0].string_value();
      if (row[1].int64_value() == 0) {
        EXPECT_EQ(row[2].int64_value(), 0) << row[0].string_value();
      }
    }
    return counts;
  }

  Engine host_;
  RemoteServer remote_;
};

// ---------------------------------------------------------------------------
// Acceptance: seeded chaos at dop=4 with prefetch lights up the taxonomy.
// ---------------------------------------------------------------------------

TEST_F(WaitsTest, ChaosDop4ReportsWaitsInDmOsWaitStats) {
  waits::ResetGlobal();
  host_.options()->execution.dop = 4;
  host_.options()->execution.enable_remote_prefetch = true;
  // Make the prefetch queue the bottleneck: a depth-1 queue fed in small
  // batches forces a genuine producer/consumer handoff on (nearly) every
  // batch — the default 4x512 queue swallows the whole 2000-row stream
  // without either side ever blocking.
  host_.options()->execution.prefetch_queue_depth = 1;
  host_.options()->execution.remote_batch_rows = 64;

  // Seeded chaos: three isolated single-attempt transient faults. Each
  // faulted attempt retries into an un-faulted ordinal, so statements
  // succeed while the retry path (and its backoff accounting) runs.
  remote_.injector->Reset(ChaosSeed(/*suite_tag=*/16, /*index=*/1));
  remote_.injector->FailMessages(/*after=*/1, /*count=*/1);
  remote_.injector->FailMessages(/*after=*/3, /*count=*/1);
  remote_.injector->FailMessages(/*after=*/5, /*count=*/1);
  // Enforced latency spikes mid-stream stall the prefetch producer long
  // enough for the consumer to drain the queue and park in Pop().
  remote_.link->set_enforce_delays(true);
  remote_.injector->AddLatencySpike(/*after=*/7, /*count=*/3,
                                    /*extra_us=*/1500.0);

  // Remote leg (prefetch + link + retries).
  for (int i = 0; i < 2; ++i) {
    MustExecute(&host_, "SELECT a, e FROM rsrv.db.dbo.r WHERE e >= 0");
  }
  // Parallel local leg (exchange queues). Repeat a few times so both sides
  // of the queue observe pressure.
  Observation obs = Observe(&host_, "SELECT b, COUNT(*), SUM(c) FROM big1 "
                            "GROUP BY b", ExecMode{4, 1024});
  ASSERT_TRUE(obs.ok);
  ASSERT_GT(obs.exchange_ops, 0) << "dop=4 did not choose a parallel plan";
  for (int i = 0; i < 3; ++i) {
    MustExecute(&host_, "SELECT b, COUNT(*), SUM(c) FROM big1 GROUP BY b");
  }

  std::map<std::string, int64_t> counts = WaitCountsViaDmv();
  EXPECT_GT(counts["RETRY_BACKOFF"], 0);
  EXPECT_GT(counts["PREFETCH_QUEUE"], 0);
  EXPECT_GT(counts["LINK_SEND"], 0);
  EXPECT_GT(counts["EXCHANGE_QUEUE_PUSH"] + counts["EXCHANGE_QUEUE_POP"], 0);

  // The faults really happened (this is what drove RETRY_BACKOFF).
  EXPECT_GE(remote_.injector->faults_injected(), 1);

  // ResetGlobal clears the DMV, as the "clear" knob promises.
  waits::ResetGlobal();
  for (const auto& [type, count] : WaitCountsViaDmv()) {
    EXPECT_EQ(count, 0) << type;
  }
}

// Per-statement wait totals surface on the result and in the query store.
TEST_F(WaitsTest, QueryResultAndStoreCarryWaitTotals) {
  host_.options()->execution.enable_remote_prefetch = true;
  QueryResult r =
      MustExecute(&host_, "SELECT COUNT(*) FROM rsrv.db.dbo.r WHERE e >= 0");
  EXPECT_GT(r.wait_totals.total_count(), 0);
  EXPECT_GT(
      r.wait_totals.count[static_cast<int>(waits::WaitType::kLinkSend)], 0);
  EXPECT_FALSE(r.activity_id.empty());

  bool found = false;
  for (const auto& rec : host_.query_store()->Snapshot()) {
    if (rec->activity_id != r.activity_id) continue;
    found = true;
    EXPECT_EQ(rec->waits.total_count(), r.wait_totals.total_count());
  }
  EXPECT_TRUE(found) << "statement not recorded under its activity id";

  // The aggregate DMV rolls the same accounting up per fingerprint.
  QueryResult agg = MustExecute(
      &host_,
      "SELECT wait_count, total_wait_ns FROM sys..dm_exec_query_stats "
      "WHERE statement_type = 'select'");
  int64_t wait_count = 0;
  for (const Row& row : agg.rowset->rows()) {
    wait_count += row[0].int64_value();
    EXPECT_GE(row[1].int64_value(), 0);
  }
  EXPECT_GE(wait_count, r.wait_totals.total_count());
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE attributes waits to the operators that incurred them.
// ---------------------------------------------------------------------------

TEST_F(WaitsTest, ExplainAnalyzeAttributesWaitsToRemoteOperators) {
  host_.options()->execution.enable_remote_prefetch = true;
  QueryResult r = MustExecute(
      &host_, "EXPLAIN ANALYZE SELECT a, e FROM rsrv.db.dbo.r WHERE e >= 0");
  ASSERT_NE(r.rowset, nullptr);
  bool remote_line_has_waits = false;
  for (const Row& row : r.rowset->rows()) {
    const std::string& line = row[0].string_value();
    const bool remote = line.find("Remote") != std::string::npos;
    if (remote && line.find("wait=") != std::string::npos) {
      remote_line_has_waits = true;
      // The remote leg's waits are link wire time and prefetch stalls —
      // never exchange-queue types (there is no exchange here).
      EXPECT_EQ(line.find("EXCHANGE_QUEUE"), std::string::npos) << line;
    }
    // Purely local operators must not be charged link waits.
    if (!remote) {
      EXPECT_EQ(line.find("LINK_SEND"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(remote_line_has_waits)
      << "no Remote* operator rendered a wait= annotation";
}

// Profile-tree wait attribution never exceeds what the query recorded.
TEST_F(WaitsTest, OperatorAttributionIsBoundedByQueryTotals) {
  host_.options()->execution.enable_remote_prefetch = true;
  QueryResult r = MustExecute(
      &host_,
      "SELECT big1.b, COUNT(*) FROM big1 JOIN rsrv.db.dbo.r rr "
      "ON big1.a = rr.a GROUP BY big1.b");
  ASSERT_NE(r.profile, nullptr);
  waits::WaitTotals tree;
  SumProfileWaits(*r.profile, &tree);
  for (int i = 0; i < waits::kNumWaitTypes; ++i) {
    EXPECT_LE(tree.count[i], r.wait_totals.count[i])
        << waits::Name(static_cast<waits::WaitType>(i));
  }
  // dm_exec_operator_stats exposes the same per-operator tallies.
  QueryResult ops = MustExecute(
      &host_,
      "SELECT operator, waits, wait_ns FROM sys..dm_exec_operator_stats");
  int64_t dmv_waits = 0;
  for (const Row& row : ops.rowset->rows()) {
    EXPECT_GE(row[2].int64_value(), 0);
    dmv_waits += row[1].int64_value();
  }
  EXPECT_GE(dmv_waits, tree.total_count());
}

// ---------------------------------------------------------------------------
// Cross-engine correlation: dm_exec_distributed_requests.
// ---------------------------------------------------------------------------

TEST_F(WaitsTest, DistributedRequestsJoinCoordinatorToEveryMemberRecord) {
  host_.query_store()->Clear();
  remote_.engine->query_store()->Clear();

  std::vector<std::string> coordinator_ids;
  for (int i = 0; i < 3; ++i) {
    QueryResult r = MustExecute(
        &host_, "SELECT COUNT(*) FROM rsrv.db.dbo.r WHERE e >= " +
                    std::to_string(i));
    ASSERT_FALSE(r.activity_id.empty());
    coordinator_ids.push_back(r.activity_id);
  }

  // Every record the member engine kept was made on the coordinator's
  // behalf here, so each must carry one of the coordinator's activity ids.
  const std::vector<std::shared_ptr<const sysview::RequestState>>
      member_records = remote_.engine->query_store()->Snapshot();
  ASSERT_FALSE(member_records.empty())
      << "member engine recorded no work for the distributed statements";
  for (const auto& rec : member_records) {
    EXPECT_NE(std::find(coordinator_ids.begin(), coordinator_ids.end(),
                        rec->activity_id),
              coordinator_ids.end())
        << "member record '" << rec->statement
        << "' has unmatched activity id '" << rec->activity_id << "'";
  }

  // The DMV join: every member record appears as a "member" row under its
  // coordinator's activity id, and every coordinator statement has a
  // "coordinator" row.
  QueryResult view = MustExecute(
      &host_,
      "SELECT activity_id, server, role, execution_id FROM "
      "sys..dm_exec_distributed_requests");
  std::set<std::string> coordinator_rows;
  std::set<int64_t> member_rows;
  for (const Row& row : view.rowset->rows()) {
    if (row[2].string_value() == "coordinator") {
      EXPECT_EQ(row[1].string_value(), "(local)");
      coordinator_rows.insert(row[0].string_value());
    } else {
      EXPECT_EQ(row[2].string_value(), "member");
      EXPECT_EQ(row[1].string_value(), "rsrv");
      member_rows.insert(row[3].int64_value());
    }
  }
  for (const std::string& id : coordinator_ids) {
    EXPECT_EQ(coordinator_rows.count(id), 1u) << id;
  }
  for (const auto& rec : member_records) {
    EXPECT_EQ(member_rows.count(rec->execution_id), 1u)
        << "member execution " << rec->execution_id << " ('"
        << rec->statement << "') missing from dm_exec_distributed_requests";
  }
}

// A local-only statement is still correlated (it coordinates itself) but
// produces no member rows.
TEST_F(WaitsTest, LocalStatementsHaveNoMemberRows) {
  host_.query_store()->Clear();
  remote_.engine->query_store()->Clear();
  QueryResult r = MustExecute(&host_, "SELECT COUNT(*) FROM big1");
  ASSERT_FALSE(r.activity_id.empty());
  QueryResult view = MustExecute(
      &host_,
      "SELECT activity_id, role FROM sys..dm_exec_distributed_requests");
  bool saw_coordinator = false;
  for (const Row& row : view.rowset->rows()) {
    EXPECT_EQ(row[1].string_value(), "coordinator");
    if (row[0].string_value() == r.activity_id) saw_coordinator = true;
  }
  EXPECT_TRUE(saw_coordinator);
}

// ---------------------------------------------------------------------------
// Worker threads name their trace tracks.
// ---------------------------------------------------------------------------

TEST_F(WaitsTest, WorkerThreadsNameTheirTraceTracks) {
  trace::Tracer::Global().Enable();
  host_.options()->execution.enable_remote_prefetch = true;
  MustExecute(&host_, "SELECT a, e FROM rsrv.db.dbo.r WHERE e >= 0");
  Observation obs = Observe(&host_, "SELECT b, COUNT(*) FROM big1 GROUP BY b",
                            ExecMode{4, 1024});
  ASSERT_TRUE(obs.ok);
  ASSERT_GT(obs.exchange_ops, 0);
  trace::Tracer::Global().Disable();

  std::set<std::string> names;
  for (const auto& [tid, name] : trace::Tracer::ThreadNames()) {
    EXPECT_GT(tid, 0u);
    names.insert(name);
  }
  EXPECT_EQ(names.count("prefetch"), 1u);
  EXPECT_EQ(names.count("exchange.worker0"), 1u);
  // Chrome trace dumps carry the names as thread_name metadata events.
  const std::string json = trace::Tracer::Global().DumpChromeJson();
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("exchange.worker0"), std::string::npos);
  trace::Tracer::Global().Clear();
}

// ---------------------------------------------------------------------------
// Differential wait sanity: results and warnings are mode-invariant while
// the wait accounting stays internally consistent in every mode.
// ---------------------------------------------------------------------------

TEST_F(WaitsTest, WaitAccountingIsSaneAcrossDopAndBatchModes) {
  const ExecMode modes[] = {{1, 3}, {4, 3}, {4, 1024}};
  const char* corpus[] = {
      "SELECT b, COUNT(*), SUM(c) FROM big1 GROUP BY b",
      "SELECT big1.b, COUNT(*) FROM big1 JOIN rsrv.db.dbo.r rr "
      "ON big1.a = rr.a GROUP BY big1.b",
  };
  for (const char* sql : corpus) {
    Observation base = Observe(&host_, sql, ExecMode{});
    ExpectWaitsSane(base, sql, ExecMode{}.Label());
    for (const ExecMode& mode : modes) {
      Observation obs = Observe(&host_, sql, mode);
      ExpectEquivalent(base, obs, sql, mode.Label(),
                       /*compare_remote_rows=*/false);
      ExpectWaitsSane(obs, sql, mode.Label());
    }
  }
}

}  // namespace
}  // namespace dhqp
