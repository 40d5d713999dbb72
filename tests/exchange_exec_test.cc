// DOP-differential coverage for intra-query parallelism: every query runs
// under dop in {1, 2, 8} x exec_batch_rows in {3, 1024} and must produce
// identical result multisets, warnings, and outcomes — with the serial
// executor at the default batch size as the baseline. Three-row batches
// push many small batches through the exchange queues. The corpus is
// integer-only so results are exact under any evaluation order; tables are
// sized past the optimizer's exchange break-even so dop>1 actually chooses
// parallel plans (asserted, not assumed). Also covers: serial plans at
// dop=1 and, at dop=4, below the exchange break-even (no Exchange
// anywhere), remote subtrees pinned serial, and profile truthfulness when
// per-worker stats merge into shared operator slots. The corpus and the
// profile totals run twice: over dense tables, and with scattered rows
// deleted so partitioned scans read across tombstones.

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "tests/differential_harness.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

// The first mode is the baseline.
const ExecMode kModes[] = {
    {1, 1024}, {1, 3}, {2, 3}, {2, 1024}, {8, 3}, {8, 1024},
};

constexpr int kBig1Rows = 8000;
constexpr int kBig2Rows = 6000;

// Bulk-loads `rows` synthetic rows in 1000-tuple INSERT statements.
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

class ExchangeExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&host_,
                "CREATE TABLE big1 (a INT PRIMARY KEY, b INT, c INT)");
    MustExecute(&host_, "CREATE TABLE big2 (a INT PRIMARY KEY, d INT)");
    Fill(&host_, "big1", kBig1Rows, 3);
    Fill(&host_, "big2", kBig2Rows, 2);
  }

  Engine host_;
};

// Deletes that leave tombstones where partitioned scans cross them: rows
// on both sides of a 1024-slot block boundary, one whole 1024-slot block,
// and a scattered spread of single rows, in each table.
const char* kTombstones[] = {
    "DELETE FROM big1 WHERE c < 40",
    "DELETE FROM big1 WHERE a >= 1020 AND a < 1028",
    "DELETE FROM big1 WHERE a >= 3072 AND a < 4096",
    "DELETE FROM big2 WHERE d = 5 OR d = 61",
    "DELETE FROM big2 WHERE a >= 2040 AND a < 2056",
    "DELETE FROM big2 WHERE a >= 1024 AND a < 2048",
};

// The same tables with kTombstones applied. Workers own blocks of 1024
// live rows; a scan whose SkipRows counted slots while NextBatch counted
// live rows would overlap or drop rows here, where the dense tables hide
// the difference.
class TombstonedExchangeExecTest : public ExchangeExecTest {
 protected:
  void SetUp() override {
    ExchangeExecTest::SetUp();
    for (const char* sql : kTombstones) MustExecute(&host_, sql);
  }

  int64_t LiveRows(const std::string& table) {
    return static_cast<int64_t>(
        host_.storage()->GetTable(table).value()->live_row_count());
  }
};

const char* kCorpus[] = {
    "SELECT b, COUNT(*), SUM(c) FROM big1 GROUP BY b",
    "SELECT COUNT(*), SUM(b), MIN(c), MAX(c) FROM big1 WHERE c > 100",
    "SELECT a, b FROM big1 WHERE b = 13 ORDER BY a",
    "SELECT a, c FROM big1 WHERE c > 900 AND b < 50",
    "SELECT TOP 50 a, c FROM big1 WHERE c > 500 ORDER BY a",
    "SELECT big1.a, big1.c, big2.d FROM big1 JOIN big2 ON big1.a = big2.a "
    "WHERE big1.b < 40",
    "SELECT big1.b, COUNT(*), SUM(big2.d) FROM big1 JOIN big2 "
    "ON big1.a = big2.a GROUP BY big1.b",
    "SELECT big1.a, big2.d FROM big1 LEFT JOIN big2 ON big1.a = big2.a "
    "WHERE big1.b < 10",
    "SELECT big1.b, COUNT(DISTINCT big2.d) FROM big1 JOIN big2 "
    "ON big1.a = big2.a GROUP BY big1.b",
    "SELECT a FROM big1 WHERE b = 5 AND EXISTS "
    "(SELECT * FROM big2 WHERE big2.a = big1.a)",
};

// Runs the corpus under every mode against the serial baseline.
void ExpectCorpusIsDopAndBatchSizeInvariant(Engine* host) {
  bool any_parallel_plan = false;
  for (const char* sql : kCorpus) {
    Observation base = Observe(host, sql, kModes[0]);
    EXPECT_EQ(base.exchange_ops, 0) << sql << " (dop=1 plan must be serial)";
    for (size_t m = 1; m < std::size(kModes); ++m) {
      const ExecMode& mode = kModes[m];
      Observation obs = Observe(host, sql, mode);
      ExpectEquivalent(base, obs, sql, mode.Label());
      if (mode.dop == 1) {
        EXPECT_EQ(obs.exchange_ops, 0) << sql;
      }
      if (obs.exchange_ops > 0) {
        any_parallel_plan = true;
        // The workers really ran: every exchange has at least one producer.
        EXPECT_GT(obs.parallel_branches, 0) << sql << " (" << mode.Label()
                                            << ")";
      }
    }
  }
  // The suite must actually exercise parallel execution, not vacuously
  // compare serial plans six times.
  EXPECT_TRUE(any_parallel_plan)
      << "no corpus query chose a parallel plan at dop>1 — tables below the "
         "exchange break-even or the enforcer regressed";
}

TEST_F(ExchangeExecTest, CorpusIsDopAndBatchSizeInvariant) {
  ExpectCorpusIsDopAndBatchSizeInvariant(&host_);
}

TEST_F(TombstonedExchangeExecTest, CorpusIsDopAndBatchSizeInvariant) {
  ASSERT_LT(LiveRows("big1"), kBig1Rows);
  ASSERT_LT(LiveRows("big2"), kBig2Rows);
  ExpectCorpusIsDopAndBatchSizeInvariant(&host_);
}

TEST_F(ExchangeExecTest, SerialPlansRenderWithoutExchange) {
  host_.options()->execution.dop = 1;
  for (const char* sql : kCorpus) {
    auto text = host_.Explain(sql);
    ASSERT_TRUE(text.ok()) << sql;
    EXPECT_EQ(text.value().find("Exchange"), std::string::npos) << sql;
  }
  // Must stay serial: below the exchange break-even, dop>1 buys nothing,
  // so a six-row table plans without Exchange at dop=4 too.
  MustExecute(&host_, "CREATE TABLE tiny (a INT PRIMARY KEY, b INT)");
  MustExecute(&host_,
              "INSERT INTO tiny VALUES (1,1),(2,1),(3,2),(4,2),(5,3),(6,3)");
  host_.options()->execution.dop = 4;
  const char* kTinyShapes[] = {
      "SELECT b, COUNT(*) FROM tiny GROUP BY b",
      "SELECT a FROM tiny WHERE b > 1",
      "SELECT x.a, y.a FROM tiny x JOIN tiny y ON x.b = y.b",
  };
  for (const char* sql : kTinyShapes) {
    auto text = host_.Explain(sql);
    ASSERT_TRUE(text.ok()) << sql;
    EXPECT_EQ(text.value().find("Exchange"), std::string::npos)
        << sql << "\n" << text.value();
  }
}

// Generated distributed queries: local big tables plus a remote member.
// Remote subtrees stay serial at any dop, so results — and the remote row
// counts for non-semi-join plans — agree across the whole mode cross.
class ExchangeDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExchangeDifferentialTest, GeneratedQueriesAgreeAcrossDopAndBatch) {
  Engine host;
  RemoteServer remote = AttachRemoteEngine(&host, "rsrv");
  MustExecute(&host, "CREATE TABLE big1 (a INT PRIMARY KEY, b INT, c INT)");
  MustExecute(&host, "CREATE TABLE big2 (a INT PRIMARY KEY, d INT)");
  Fill(&host, "big1", kBig1Rows, 3);
  Fill(&host, "big2", kBig2Rows, 2);
  MustExecute(remote.engine.get(), "CREATE TABLE r (a INT PRIMARY KEY, e INT)");
  std::string insert = "INSERT INTO r VALUES ";
  Rng data_rng(GetParam() * 40503 + 9);
  std::set<int64_t> used;
  for (int i = 0; i < 400; ++i) {
    int64_t key;
    do {
      key = data_rng.Uniform(0, 4000);
    } while (!used.insert(key).second);
    if (i) insert += ",";
    insert += "(" + std::to_string(key) + "," +
              std::to_string(data_rng.Uniform(-5, 40)) + ")";
  }
  MustExecute(remote.engine.get(), insert);

  DifferentialQueryGenerator generator(
      GetParam(), {{"big1", "big1"}, {"big2", "big2"}, {"rsrv.db.dbo.r", "r"}},
      /*max_const=*/kBig1Rows);
  for (int q = 0; q < 12; ++q) {
    std::string sql = generator.Next();
    Observation base = Observe(&host, sql, kModes[0]);
    for (size_t m = 1; m < std::size(kModes); ++m) {
      const ExecMode& mode = kModes[m];
      Observation obs = Observe(&host, sql, mode);
      // Remote row counts may differ only through semi-join early
      // termination, which the generator never produces — but plan shape
      // (hash vs nested loops) can change what is pulled, so keep the
      // strict surface to results/warnings/outcome.
      ExpectEquivalent(base, obs, sql, mode.Label(),
                       /*compare_remote_rows=*/false);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExchangeDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

// Per-worker profile merge: every worker's instance of an operator flushes
// additively into the operator's single shared slot, so EXPLAIN ANALYZE
// totals stay truthful at any dop — the partitioned scan instances sum to
// exactly `big1_rows`, the table's live row count, and the plan root to the
// result's.
void ExpectOperatorProfileTotalsAreTruthfulUnderDop(Engine* host,
                                                    int64_t big1_rows) {
  const std::string sql = "SELECT b, COUNT(*), SUM(c) FROM big1 GROUP BY b";
  QueryResult serial = MustExecute(host, sql);

  Observation obs = Observe(host, sql, ExecMode{4, 1024});
  ASSERT_TRUE(obs.ok);
  ASSERT_GT(obs.exchange_ops, 0) << "query did not parallelize at dop=4";
  EXPECT_GT(obs.parallel_branches, 0);

  QueryResult parallel = MustExecute(host, sql);  // Same mode, kept result.
  ASSERT_NE(parallel.profile, nullptr);
  ASSERT_NE(serial.profile, nullptr);
  // Root rows_out == rows returned, serial or parallel.
  EXPECT_EQ(parallel.profile->rows_out.load(), serial.profile->rows_out.load());
  EXPECT_EQ(parallel.profile->rows_out.load(),
            static_cast<int64_t>(parallel.rowset->rows().size()));

  // The table-scan slot is shared by all workers; their disjoint
  // block-cyclic slices must sum to the full table, exactly once.
  std::function<void(const OperatorProfile&, std::vector<const OperatorProfile*>*)>
      flatten = [&](const OperatorProfile& node,
                    std::vector<const OperatorProfile*>* out) {
        out->push_back(&node);
        for (const auto& child : node.children) flatten(*child, out);
      };
  std::vector<const OperatorProfile*> nodes;
  flatten(*parallel.profile, &nodes);
  int64_t scan_rows = -1;
  for (const OperatorProfile* node : nodes) {
    if (node->name.find("TableScan(big1") != std::string::npos) {
      scan_rows = node->rows_out.load();
    }
  }
  EXPECT_EQ(scan_rows, big1_rows);
}

TEST_F(ExchangeExecTest, OperatorProfileTotalsAreTruthfulUnderDop) {
  ExpectOperatorProfileTotalsAreTruthfulUnderDop(&host_, kBig1Rows);
}

TEST_F(TombstonedExchangeExecTest, OperatorProfileTotalsAreTruthfulUnderDop) {
  ASSERT_LT(LiveRows("big1"), kBig1Rows);
  ExpectOperatorProfileTotalsAreTruthfulUnderDop(&host_, LiveRows("big1"));
}

// A WHERE folded into the partitioned scan runs on each worker's own
// blocks only: the workers' rows_read sum to the table's live rows exactly
// once, and their act_rows to the rows that pass. EXPLAIN ANALYZE and
// dm_exec_operator_stats show the same two counts.
void ExpectFoldedScanCountsAreTruthfulUnderDop(Engine* host,
                                               int64_t big1_rows) {
  const std::string sql =
      "SELECT b, COUNT(*), SUM(c) FROM big1 WHERE c > 300 GROUP BY b";
  Observation obs = Observe(host, sql, ExecMode{4, 1024});
  ASSERT_TRUE(obs.ok);
  ASSERT_GT(obs.exchange_ops, 0) << "query did not parallelize at dop=4";

  QueryResult parallel = MustExecute(host, sql);  // Same mode, kept result.
  ASSERT_NE(parallel.profile, nullptr);
  const OperatorProfile* scan = nullptr;
  for (const FlatOperator& f : FlattenOperatorProfile(*parallel.profile)) {
    EXPECT_EQ(f.op->name.find("Filter"), std::string::npos) << f.op->name;
    if (f.op->name.find("TableScan(big1") != std::string::npos) scan = f.op;
  }
  ASSERT_NE(scan, nullptr);
  const int64_t passing =
      MustExecute(host, "SELECT COUNT(*) FROM big1 WHERE c > 300")
          .rowset->rows()[0][0]
          .int64_value();
  ASSERT_GT(passing, 0);
  ASSERT_LT(passing, big1_rows);
  EXPECT_EQ(scan->rows_read.load(), big1_rows);
  EXPECT_EQ(scan->rows_out.load(), passing);

  const std::string rendered = RenderOperatorProfile(*parallel.profile);
  EXPECT_NE(rendered.find("act_rows=" + std::to_string(passing) + " "),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find(" read=" + std::to_string(big1_rows) + " "),
            std::string::npos)
      << rendered;

  QueryResult dmv = MustExecute(
      host,
      "SELECT act_rows FROM sys..dm_exec_operator_stats WHERE rows_read = " +
          std::to_string(big1_rows));
  ASSERT_FALSE(dmv.rowset->rows().empty());
  for (const Row& row : dmv.rowset->rows()) {
    EXPECT_EQ(row[0].int64_value(), passing);
  }
}

TEST_F(ExchangeExecTest, FoldedScanCountsAreTruthfulUnderDop) {
  ExpectFoldedScanCountsAreTruthfulUnderDop(&host_, kBig1Rows);
}

TEST_F(TombstonedExchangeExecTest, FoldedScanCountsAreTruthfulUnderDop) {
  ASSERT_LT(LiveRows("big1"), kBig1Rows);
  ExpectFoldedScanCountsAreTruthfulUnderDop(&host_, LiveRows("big1"));
}

// A predicate that fails part-way through the table fails the statement
// with its first failing row's error at every batch size and dop: storage
// runs the folded WHERE on the rows a Filter would have seen.
TEST_F(ExchangeExecTest, FailingScanPredicateFailsAtEveryDopAndBatchSize) {
  const std::string sql = "SELECT a, c FROM big1 WHERE 10 / (a - 500) > 0";
  for (int dop : {1, 2, 4}) {
    for (int batch_rows : {1, 7, 1024}) {
      const ExecMode mode{dop, batch_rows};
      host_.options()->execution.dop = dop;
      host_.options()->execution.exec_batch_rows = batch_rows;
      auto plan = host_.Prepare(sql);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(CountOps(plan->plan, PhysicalOpKind::kFilter), 0)
          << plan->plan->ToString();
      auto result = host_.Execute(sql);
      EXPECT_EQ(QueryWorkers::live(), 0) << mode.Label();
      ASSERT_FALSE(result.ok()) << mode.Label();
      EXPECT_EQ(result.status().code(), StatusCode::kExecutionError)
          << mode.Label();
      EXPECT_NE(result.status().ToString().find("division by zero"),
                std::string::npos)
          << mode.Label() << ": " << result.status().ToString();
    }
  }
}

// dm_exec_operator_stats (per-query DMV over the same profile tree) shows
// the merged per-worker totals too.
TEST_F(ExchangeExecTest, ExchangeCountersVisibleInMetricsDmv) {
  Observation obs = Observe(&host_, "SELECT b, COUNT(*) FROM big1 GROUP BY b",
                            ExecMode{4, 1024});
  ASSERT_TRUE(obs.ok);
  ASSERT_GT(obs.exchange_ops, 0);
  QueryResult m = MustExecute(&host_,
                              "SELECT name, value FROM sys..dm_metrics "
                              "WHERE name = 'exec.exchange_batches'");
  ASSERT_NE(m.rowset, nullptr);
  ASSERT_EQ(m.rowset->rows().size(), 1u);
  EXPECT_GT(m.rowset->rows()[0][1].int64_value(), 0);
}

}  // namespace
}  // namespace dhqp
