// Pins every ExecStats field. A fixed set of statements that together move
// all 19 counters — a prefetched remote scan, a parameterized remote query,
// a remote range and a bookmark fetch, a partitioned view with startup
// skips and a skipped unreachable member, nested loops over a spool, a
// dop-2 exchange query and a serial hash join that spills — must report
// exactly the totals recorded here, and each exec.* registry counter must
// move by exactly its field. prefetch_stalls depends on thread timing, so
// it gets a bound instead of a value. A second test pins the spill files
// and bytes of a recursing hash aggregate and a multi-run sort.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/metrics.h"
#include "src/executor/worker.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

/// One ExecStats field: the exec.* registry counter it publishes into, its
/// pinned total over the statement set (kTimingDependent for
/// prefetch_stalls), and whether member engines move that registry counter
/// too — they publish the pushed statements they answer into the same
/// process-wide registry.
struct Field {
  const char* name;
  const char* metric;
  int64_t expected;
  bool member_moves;
  int64_t (*read)(const ExecStats&);
};

constexpr int64_t kTimingDependent = -1;

#define PIN_FIELD(field, metric, expected, member_moves)              \
  Field {                                                             \
    #field, metric, expected, member_moves, [](const ExecStats& s) {  \
      return static_cast<int64_t>(s.field);                           \
    }                                                                 \
  }

const Field kFields[] = {
    PIN_FIELD(remote_commands, "exec.remote_commands", 7, false),
    PIN_FIELD(remote_opens, "exec.remote_opens", 3, false),
    PIN_FIELD(remote_fetches, "exec.remote_fetches", 0, false),
    PIN_FIELD(rows_from_remote, "exec.rows_from_remote", 3105, false),
    PIN_FIELD(remote_batches, "exec.remote_batches", 9, false),
    PIN_FIELD(prefetch_stalls, "exec.prefetch_stalls", kTimingDependent,
              false),
    PIN_FIELD(startup_skips, "exec.startup_skips", 1, false),
    PIN_FIELD(partitions_opened, "exec.partitions_opened", 6, false),
    PIN_FIELD(parallel_branches, "exec.parallel_branches", 10, false),
    PIN_FIELD(exchange_batches, "exec.exchange_batches", 11, false),
    PIN_FIELD(spool_rescans, "exec.spool_rescans", 2, false),
    PIN_FIELD(rows_output, "exec.rows_output", 248679, true),
    PIN_FIELD(exec_batches, "exec.batches", 255, true),
    PIN_FIELD(remote_retries, "exec.remote_retries", 3, false),
    PIN_FIELD(remote_timeouts, "exec.remote_timeouts", 1, false),
    PIN_FIELD(faults_injected, "exec.faults_injected", 4, false),
    PIN_FIELD(members_skipped, "exec.members_skipped", 1, false),
    PIN_FIELD(spills, "exec.spills", 106, false),
    PIN_FIELD(spill_bytes, "exec.spill_bytes", 512000, false),
};
constexpr size_t kNumFields = sizeof(kFields) / sizeof(kFields[0]);

int64_t Metric(const char* name) {
  return metrics::Registry::Global().GetCounter(name)->Value();
}

/// Inserts `rows` rows `(i, i % 97, (i * 31) % 1009)` (or their leading
/// `cols` columns) in 1000-row statements.
void Fill(Engine* engine, const std::string& table, int rows, int cols) {
  for (int base = 0; base < rows; base += 1000) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    for (int i = base; i < base + 1000 && i < rows; ++i) {
      if (i != base) sql += ",";
      sql += "(" + std::to_string(i);
      if (cols >= 2) sql += "," + std::to_string(i % 97);
      if (cols >= 3) sql += "," + std::to_string((i * 31) % 1009);
      sql += ")";
    }
    MustExecute(engine, sql);
  }
}

class ExecStatsPinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Remote metadata is checked at compile time only, so the scripted
    // faults below land on execution.
    host_.options()->delayed_schema_validation = false;
    host_.options()->execution.skip_unreachable_members = true;

    // Local tables: the spilling hash join, the exchange query and the
    // outer side of the remote joins.
    MustExecute(&host_, "CREATE TABLE big1 (a INT PRIMARY KEY, b INT, c INT)");
    MustExecute(&host_, "CREATE TABLE big2 (a INT PRIMARY KEY, d INT)");
    Fill(&host_, "big1", 8000, 3);
    Fill(&host_, "big2", 6000, 2);
    MustExecute(&host_,
                "CREATE TABLE probe (k INT PRIMARY KEY, tag VARCHAR(8))");
    MustExecute(&host_,
                "INSERT INTO probe VALUES (5,'a'),(105,'b'),(205,'c')");

    // A query-capable linked engine: parameterized and spooled remote
    // queries.
    sql_ = AttachRemoteEngine(&host_, "rsrv");
    MustExecute(sql_.engine.get(),
                "CREATE TABLE fact (k INT PRIMARY KEY, grp INT, v INT)");
    Fill(sql_.engine.get(), "fact", 1000, 3);

    // A simple provider (no command, no index): remote scans.
    ProviderCapabilities simple = SqlServerCapabilities();
    simple.supports_command = false;
    simple.sql_support = SqlSupportLevel::kNone;
    simple.supports_indexes = false;
    simple.supports_bookmarks = false;
    simple_ = AttachRemoteEngine(&host_, "scan", simple);
    MustExecute(simple_.engine.get(),
                "CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT)");
    Fill(simple_.engine.get(), "t", 2000, 3);

    // An index provider (no command): remote ranges and bookmark fetches.
    ProviderCapabilities index = SqlServerCapabilities();
    index.supports_command = false;
    index.sql_support = SqlSupportLevel::kNone;
    index_ = AttachRemoteEngine(&host_, "idx", index);
    MustExecute(index_.engine.get(),
                "CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT)");
    Fill(index_.engine.get(), "t", 2000, 3);
    MustExecute(index_.engine.get(), "CREATE INDEX idx_t_c ON t (c)");

    // A partitioned view over three CHECK-partitioned members.
    std::string view = "CREATE VIEW part_all AS ";
    for (int m = 0; m < 3; ++m) {
      const std::string name = "p" + std::to_string(m);
      members_.push_back(AttachRemoteEngine(&host_, name));
      const int lo = m * 100 + 1, hi = (m + 1) * 100;
      MustExecute(members_.back().engine.get(),
                  "CREATE TABLE part (id INT NOT NULL CHECK (id BETWEEN " +
                      std::to_string(lo) + " AND " + std::to_string(hi) +
                      "), v INT)");
      std::string rows = "INSERT INTO part VALUES ";
      for (int i = lo; i < lo + 20; ++i) {
        if (i != lo) rows += ",";
        rows += "(" + std::to_string(i) + "," + std::to_string(i % 7) + ")";
      }
      MustExecute(members_.back().engine.get(), rows);
      if (m > 0) view += " UNION ALL ";
      view += "SELECT * FROM " + name + ".d.s.part";
    }
    MustExecute(&host_, view);
  }

  /// Runs `sql` once fault-free to compile and cache its plan, lets `arm`
  /// script the faults of the measured run, then runs it again and adds
  /// its ExecStats and the registry's movement to the totals.
  QueryResult Measure(const std::string& sql,
                      const std::map<std::string, Value>& params = {},
                      const std::function<void()>& arm = nullptr) {
    MustExecute(&host_, sql, params);
    if (arm) arm();
    int64_t before[kNumFields];
    for (size_t i = 0; i < kNumFields; ++i) before[i] = Metric(kFields[i].metric);
    QueryResult r = MustExecute(&host_, sql, params);
    for (size_t i = 0; i < kNumFields; ++i) {
      totals_[i] += kFields[i].read(r.exec_stats);
      registry_[i] += Metric(kFields[i].metric) - before[i];
    }
    EXPECT_EQ(QueryWorkers::live(), 0) << sql;
    return r;
  }

  Engine host_;
  RemoteServer sql_;
  RemoteServer simple_;
  RemoteServer index_;
  std::vector<RemoteServer> members_;
  int64_t totals_[kNumFields] = {};
  int64_t registry_[kNumFields] = {};
};

TEST_F(ExecStatsPinTest, EveryFieldKeepsItsValue) {
  // Prefetched remote scan (simple provider) with a local filter on top.
  QueryResult scan = Measure("SELECT a, c FROM scan.d.s.t WHERE b < 50");
  EXPECT_EQ(CountOps(scan.plan, PhysicalOpKind::kRemoteScan), 1);

  // Parameterized remote query: one command per outer row.
  QueryResult param = Measure(
      "SELECT p.tag, f.v FROM probe p JOIN rsrv.d.s.fact f ON p.k = f.k");
  EXPECT_EQ(CountOps(param.plan, PhysicalOpKind::kNestedLoopsJoin), 1);
  EXPECT_EQ(CountOps(param.plan, PhysicalOpKind::kRemoteQuery), 1);

  // Remote range over the primary key. No statement reaches a bookmark
  // fetch: over the same index the optimizer always prices a remote range
  // (a shipped row) below a remote fetch (a round trip per row), so
  // remote_fetches stays 0 here; RemoteFetchNodeTest covers its counting.
  QueryResult range = Measure("SELECT a, c FROM idx.d.s.t WHERE a < 40");
  EXPECT_EQ(CountOps(range.plan, PhysicalOpKind::kRemoteRange), 1);

  // Partitioned view: the parameter range skips member p2 at startup, p1's
  // link loses every message (skipped after its retries), and p0's first
  // message misses its deadline once.
  QueryResult pv = Measure(
      "SELECT id, v FROM part_all WHERE id >= @lo AND id <= @hi",
      {{"@lo", Value::Int64(1)}, {"@hi", Value::Int64(150)}},
      [this] {
        net::RetryPolicy policy;
        policy.deadline_us = 1000;
        members_[0].link->set_retry_policy(policy);
        members_[0].injector->Reset();
        members_[0].injector->AddLatencySpike(/*after=*/0, /*count=*/1,
                                              /*extra_us=*/5000);
        members_[1].injector->Reset();
        members_[1].injector->FailMessages(/*after=*/0, /*count=*/1000);
      });
  EXPECT_EQ(CountOps(pv.plan, PhysicalOpKind::kStartupFilter), 3);
  EXPECT_EQ(pv.warnings.size(), 1u);
  members_[0].injector->Reset();
  members_[1].injector->Reset();
  // The whole view, drained on parallel Concat workers.
  QueryResult all = Measure("SELECT id, v FROM part_all WHERE v < 5");
  EXPECT_EQ(CountOps(all.plan, PhysicalOpKind::kConcat), 1);

  // Nested loops over a spooled remote inner.
  QueryResult spool = Measure(
      "SELECT COUNT(*) FROM probe p JOIN rsrv.d.s.fact f "
      "ON f.k < p.k AND f.grp > p.k");
  EXPECT_EQ(CountOps(spool.plan, PhysicalOpKind::kSpool), 1);

  // A dop-2 parallel aggregate.
  host_.options()->execution.dop = 2;
  QueryResult exchange =
      Measure("SELECT b, COUNT(*), SUM(c) FROM big1 GROUP BY b");
  EXPECT_GT(CountOps(exchange.plan, PhysicalOpKind::kExchange), 0);
  host_.options()->execution.dop = 1;

  // A serial hash join whose build side outgrows a 64 KiB grant.
  host_.options()->max_server_memory_bytes = 256 << 20;
  host_.options()->max_grant_per_query_bytes = 64 << 10;
  QueryResult spill = Measure(
      "SELECT big1.a, big1.c, big2.d FROM big1 JOIN big2 "
      "ON big1.b = big2.d WHERE big1.a < 4000");
  EXPECT_EQ(CountOps(spill.plan, PhysicalOpKind::kHashJoin), 1);
  EXPECT_EQ(CountOps(spill.plan, PhysicalOpKind::kExchange), 0);
  host_.options()->max_server_memory_bytes = 0;
  host_.options()->max_grant_per_query_bytes = 0;

  int64_t stall_bound = 0;
  for (size_t i = 0; i < kNumFields; ++i) {
    const std::string name = kFields[i].name;
    if (name == "remote_batches" || name == "exchange_batches" ||
        name == "parallel_branches") {
      stall_bound += totals_[i];
    }
  }
  for (size_t i = 0; i < kNumFields; ++i) {
    const Field& f = kFields[i];
    if (f.expected == kTimingDependent) {
      // At most one stall per batch that crossed a worker queue: each
      // prefetched block, each exchange push, and the one batch each
      // Concat branch over a 20-row member pushes.
      EXPECT_GE(totals_[i], 0) << f.name;
      EXPECT_LE(totals_[i], stall_bound) << f.name;
    } else {
      EXPECT_EQ(totals_[i], f.expected) << f.name;
    }
    if (!f.member_moves) {
      EXPECT_EQ(registry_[i], totals_[i]) << f.metric;
    }
  }
}

// Spill files and bytes of two more spilling shapes, each under a 16 KiB
// grant: a serial hash aggregate over 8000 groups, whose partitions recurse
// past depth 1, and a serial sort that writes several runs.
TEST_F(ExecStatsPinTest, SpillingAggregateAndSortKeepTheirFiles) {
  host_.options()->max_server_memory_bytes = 256 << 20;
  host_.options()->max_grant_per_query_bytes = 16 << 10;
  QueryResult aggregate =
      Measure("SELECT b, c, COUNT(*) FROM big1 GROUP BY b, c");
  EXPECT_EQ(CountOps(aggregate.plan, PhysicalOpKind::kHashAggregate), 1);
  EXPECT_EQ(aggregate.exec_stats.spills, 583);
  EXPECT_EQ(aggregate.exec_stats.spill_bytes, 602485);
  QueryResult sort = Measure("SELECT a, b FROM big1 ORDER BY c, a");
  EXPECT_EQ(CountOps(sort.plan, PhysicalOpKind::kSort), 1);
  EXPECT_EQ(sort.exec_stats.spills, 83);
  EXPECT_EQ(sort.exec_stats.spill_bytes, 248000);
  EXPECT_EQ(CountOps(aggregate.plan, PhysicalOpKind::kExchange) +
                CountOps(sort.plan, PhysicalOpKind::kExchange),
            0);
}

}  // namespace
}  // namespace dhqp
