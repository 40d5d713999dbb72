// Optimizer feature tests: the remote spool enforcer (§4.1.4), the
// parameterization rule (§4.1.2), remote access-path selection (§3.3),
// statistics-driven estimation (§3.2.4), multi-phase search (§4.1.1) and
// delayed schema validation (§4.1.5), and the fold of each WHERE over a
// local scan or range into that scan.

#include <functional>
#include <map>
#include <string>

#include "src/common/date.h"
#include "src/workloads/tpch.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

class OptimizerFeatureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    remote_ = AttachRemoteEngine(&host_, "rsrv");
    MustExecute(remote_.engine.get(),
                "CREATE TABLE fact (k INT PRIMARY KEY, grp INT, v INT)");
    std::string sql = "INSERT INTO fact VALUES ";
    for (int i = 1; i <= 1000; ++i) {
      if (i > 1) sql += ",";
      sql += "(" + std::to_string(i) + "," + std::to_string(i % 20) + "," +
             std::to_string(i * 3) + ")";
    }
    MustExecute(remote_.engine.get(), sql);
    MustExecute(remote_.engine.get(),
                "CREATE INDEX idx_fact_grp ON fact (grp)");

    MustExecute(&host_, "CREATE TABLE probe (k INT PRIMARY KEY, tag "
                        "VARCHAR(8))");
    MustExecute(&host_,
                "INSERT INTO probe VALUES (5,'a'),(105,'b'),(205,'c')");
  }

  Engine host_;
  RemoteServer remote_;
};

TEST_F(OptimizerFeatureTest, ParameterizedRemoteJoin) {
  // Small outer, large remote inner with a selective equi key: the
  // parameterization rule drives one remote query per outer row instead of
  // shipping the whole table.
  QueryResult r = MustExecute(
      &host_,
      "SELECT p.tag, f.v FROM probe p JOIN rsrv.d.s.fact f ON p.k = f.k "
      "ORDER BY p.tag");
  EXPECT_EQ(RowsToString(r), "(a, 15)(b, 315)(c, 615)");
  ASSERT_EQ(CountOps(r.plan, PhysicalOpKind::kNestedLoopsJoin), 1)
      << r.plan->ToString();
  EXPECT_EQ(CountOps(r.plan, PhysicalOpKind::kRemoteQuery), 1);
  // One remote command per outer row; 3 rows shipped in total.
  EXPECT_EQ(r.exec_stats.remote_commands, 3);
  EXPECT_EQ(r.exec_stats.rows_from_remote, 3);
}

TEST_F(OptimizerFeatureTest, ParameterizationDisabledAblation) {
  host_.options()->optimizer.enable_parameterization = false;
  QueryResult r = MustExecute(
      &host_,
      "SELECT p.tag, f.v FROM probe p JOIN rsrv.d.s.fact f ON p.k = f.k "
      "ORDER BY p.tag");
  EXPECT_EQ(RowsToString(r), "(a, 15)(b, 315)(c, 615)");
  // Without the rule the whole remote table crosses the link (hash join).
  EXPECT_GE(r.exec_stats.rows_from_remote, 1000);
}

TEST_F(OptimizerFeatureTest, SpoolOverRemoteInner) {
  // A non-equi join forces nested loops; the spool enforcer materializes
  // the remote inner so it ships once, not once per outer row.
  QueryResult r = MustExecute(
      &host_,
      "SELECT COUNT(*) FROM probe p JOIN rsrv.d.s.fact f "
      "ON f.k < p.k AND f.grp > p.k");
  ASSERT_NE(r.rowset, nullptr);
  EXPECT_EQ(CountOps(r.plan, PhysicalOpKind::kSpool), 1) << r.plan->ToString();
  EXPECT_GT(r.exec_stats.spool_rescans, 0);
  // The remote side executed exactly once.
  EXPECT_LE(r.exec_stats.remote_commands + r.exec_stats.remote_opens, 1);
}

TEST_F(OptimizerFeatureTest, SpoolDisabledRefetchesRemote) {
  host_.options()->optimizer.enable_spool_enforcer = false;
  QueryResult r = MustExecute(
      &host_,
      "SELECT COUNT(*) FROM probe p JOIN rsrv.d.s.fact f "
      "ON f.k < p.k AND f.grp > p.k");
  EXPECT_EQ(CountOps(r.plan, PhysicalOpKind::kSpool), 0);
  // The remote subtree re-executes per outer row (3 probes).
  EXPECT_GE(r.exec_stats.remote_commands + r.exec_stats.remote_opens, 3);
}

TEST_F(OptimizerFeatureTest, RemoteAccessPathsBySelectivity) {
  // Point lookup on an indexed remote column: an index-based remote path
  // (range / fetch / parameterized query), never a full remote scan.
  QueryResult point = MustExecute(
      &host_, "SELECT v FROM rsrv.d.s.fact WHERE k = 500");
  EXPECT_EQ(RowsToString(point), "(1500)");
  EXPECT_EQ(CountOps(point.plan, PhysicalOpKind::kRemoteScan), 0);
  EXPECT_LE(point.exec_stats.rows_from_remote, 1);

  // Low-selectivity predicate: shipping qualifying rows via a pushed query
  // or index range; whole-table scans lose.
  QueryResult range = MustExecute(
      &host_, "SELECT COUNT(*) FROM rsrv.d.s.fact WHERE k > 900");
  EXPECT_EQ(RowsToString(range), "(100)");
  EXPECT_LE(range.exec_stats.rows_from_remote, 100);
}

TEST_F(OptimizerFeatureTest, RemoteStatisticsImproveEstimates) {
  // The remote column grp has 20 distinct values; with histogram rowsets
  // (§3.2.4) the estimate for grp = 7 is ~50 rows. Without, the default
  // equality guess applies.
  QueryResult with_stats = MustExecute(
      &host_, "SELECT v FROM rsrv.d.s.fact WHERE grp = 7");
  EXPECT_EQ(with_stats.rowset->rows().size(), 50u);
  double est = with_stats.plan->estimated_rows;
  EXPECT_NEAR(est, 50.0, 15.0);

  Engine host2;
  RemoteServer r2 = AttachRemoteEngine(&host2, "rsrv");
  // Reuse the same remote engine? Simpler: disable remote statistics on a
  // fresh host pointing at a fresh engine with identical data.
  MustExecute(r2.engine.get(),
              "CREATE TABLE fact (k INT PRIMARY KEY, grp INT, v INT)");
  std::string sql = "INSERT INTO fact VALUES ";
  for (int i = 1; i <= 1000; ++i) {
    if (i > 1) sql += ",";
    sql += "(" + std::to_string(i) + "," + std::to_string(i % 20) + "," +
           std::to_string(i * 3) + ")";
  }
  MustExecute(r2.engine.get(), sql);
  host2.options()->optimizer.enable_remote_statistics = false;
  QueryResult without = MustExecute(
      &host2, "SELECT v FROM rsrv.d.s.fact WHERE grp = 7");
  EXPECT_EQ(without.rowset->rows().size(), 50u);  // Same answer...
  double est2 = without.plan->estimated_rows;
  // ...but the estimate is the blind default (1% of 1000 = 10), off 5x.
  EXPECT_LT(est2, 20.0);
}

TEST_F(OptimizerFeatureTest, MultiPhaseStopsEarlyOnCheapQueries) {
  QueryResult cheap = MustExecute(&host_, "SELECT k FROM probe WHERE k = 5");
  EXPECT_EQ(cheap.opt_stats.phases_run, 1);
  EXPECT_EQ(cheap.opt_stats.phase_name, "transaction-processing");

  // A multi-join query must escalate past the TP phase.
  workloads::TpchOptions topt;
  topt.scale_factor = 0.005;
  topt.include_orders = true;
  Engine tpch;
  ASSERT_OK(workloads::PopulateTpch(&tpch, topt));
  QueryResult complex = MustExecute(
      &tpch,
      "SELECT n.n_name, COUNT(*) FROM customer c, orders o, nation n "
      "WHERE c.c_custkey = o.o_custkey AND c.c_nationkey = n.n_nationkey "
      "GROUP BY n.n_name");
  EXPECT_GT(complex.opt_stats.phases_run, 1);
}

TEST_F(OptimizerFeatureTest, SinglePhaseAblation) {
  host_.options()->optimizer.multi_phase = false;
  QueryResult r = MustExecute(&host_, "SELECT k FROM probe WHERE k = 5");
  EXPECT_EQ(r.opt_stats.phases_run, 1);
  EXPECT_EQ(r.opt_stats.phase_name, "full-optimization");
}

TEST_F(OptimizerFeatureTest, DelayedSchemaValidationRecompiles) {
  // Prime the metadata cache.
  MustExecute(&host_, "SELECT COUNT(*) FROM rsrv.d.s.fact");
  // The remote table changes shape behind the host's back.
  ASSERT_OK(remote_.engine->storage()->DropTable("fact"));
  MustExecute(remote_.engine.get(),
              "CREATE TABLE fact (k INT PRIMARY KEY, grp INT, v INT, "
              "extra VARCHAR(4))");
  MustExecute(remote_.engine.get(),
              "INSERT INTO fact VALUES (1, 1, 10, 'x')");
  // Delayed schema validation detects the drift at execution time and
  // recompiles against fresh metadata instead of failing.
  QueryResult r = MustExecute(&host_, "SELECT COUNT(*) FROM rsrv.d.s.fact");
  EXPECT_EQ(RowsToString(r), "(1)");
}

TEST_F(OptimizerFeatureTest, MergeJoinUsableUnderOrderRequirement) {
  // Force hash join off? There is no toggle; instead check that merge join
  // at least produces correct results when chosen by cost on sorted inputs.
  MustExecute(&host_, "CREATE TABLE a (x INT PRIMARY KEY, s VARCHAR(4))");
  MustExecute(&host_, "CREATE TABLE b (y INT PRIMARY KEY, t VARCHAR(4))");
  MustExecute(&host_, "INSERT INTO a VALUES (1,'a1'),(2,'a2'),(3,'a3')");
  MustExecute(&host_, "INSERT INTO b VALUES (2,'b2'),(3,'b3'),(4,'b4')");
  QueryResult r = MustExecute(
      &host_,
      "SELECT a.s, b.t FROM a JOIN b ON a.x = b.y ORDER BY a.x");
  EXPECT_EQ(RowsToString(r), "(a2, b2)(a3, b3)");
}

TEST_F(OptimizerFeatureTest, CommutedJoinColumnOrder) {
  // Regression: a plan built from a commuted memo alternative emits its own
  // children's column order; annotations must match or projections read the
  // wrong positions. The n-way join below exercises commuted/reassociated
  // shapes under the full phase.
  workloads::TpchOptions topt;
  topt.scale_factor = 0.01;
  topt.include_orders = false;
  Engine tpch;
  ASSERT_OK(workloads::PopulateTpch(&tpch, topt));
  QueryResult r = MustExecute(
      &tpch,
      "SELECT COUNT(*) FROM customer c, supplier s, nation n "
      "WHERE c.c_nationkey = n.n_nationkey AND n.n_nationkey = s.s_nationkey");
  // Cross-check by computing the expected count from per-nation tallies.
  int64_t expected = 0;
  QueryResult by_nation = MustExecute(
      &tpch,
      "SELECT c.c_nationkey, COUNT(*) FROM customer c GROUP BY c.c_nationkey");
  QueryResult sup_by_nation = MustExecute(
      &tpch,
      "SELECT s.s_nationkey, COUNT(*) FROM supplier s GROUP BY s.s_nationkey");
  std::map<int64_t, int64_t> suppliers;
  for (const Row& row : sup_by_nation.rowset->rows()) {
    suppliers[row[0].int64_value()] = row[1].int64_value();
  }
  for (const Row& row : by_nation.rowset->rows()) {
    expected += row[1].int64_value() * suppliers[row[0].int64_value()];
  }
  EXPECT_EQ(r.rowset->rows()[0][0].int64_value(), expected);
}

// True when a Filter sits directly on a local TableScan or IndexRange.
bool FilterOverLocalScan(const PhysicalOp& op) {
  for (const PhysicalOpPtr& child : op.children) {
    if (op.kind == PhysicalOpKind::kFilter &&
        (child->kind == PhysicalOpKind::kTableScan ||
         child->kind == PhysicalOpKind::kIndexRange)) {
      return true;
    }
    if (FilterOverLocalScan(*child)) return true;
  }
  return false;
}

// Each WHERE over a local scan runs in the scan once the plan is chosen:
// the TPC-H Q1, Q6 and Q3 shapes keep no Filter directly over a local
// TableScan or IndexRange at dop 1 or 2, and each scan's EXPLAIN line
// carries its predicate.
TEST(ScanFilterFoldTest, TpchShapesFoldTheirWheresIntoTheScans) {
  workloads::TpchOptions topt;
  topt.scale_factor = 0.005;
  Engine tpch;
  ASSERT_OK(workloads::PopulateTpch(&tpch, topt));
  const std::map<std::string, Value> params = {
      {"@d", Value::Date(CivilToDays(1995, 3, 15))},
      {"@d0", Value::Date(CivilToDays(1994, 1, 1))},
      {"@d1", Value::Date(CivilToDays(1995, 1, 1))},
      {"@q", Value::Int64(24)},
      {"@seg", Value::String("BUILDING")}};
  const char* kShapes[] = {
      "SELECT l_linenumber, COUNT(*), SUM(l_quantity), SUM(l_extendedprice), "
      "AVG(l_extendedprice) FROM lineitem WHERE l_shipdate <= @d "
      "GROUP BY l_linenumber ORDER BY l_linenumber",
      "SELECT SUM(l_extendedprice * l_quantity), COUNT(*) FROM lineitem "
      "WHERE l_shipdate >= @d0 AND l_shipdate < @d1 AND l_quantity < @q",
      "SELECT TOP 10 o.o_orderkey, o.o_orderdate, "
      "SUM(l.l_extendedprice) AS revenue "
      "FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey "
      "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
      "WHERE c.c_mktsegment = @seg AND o.o_orderdate < @d "
      "AND l.l_shipdate > @d "
      "GROUP BY o.o_orderkey, o.o_orderdate ORDER BY revenue DESC, "
      "o.o_orderkey",
  };
  for (int dop : {1, 2}) {
    tpch.options()->execution.dop = dop;
    for (const char* sql : kShapes) {
      QueryResult r = MustExecute(&tpch, sql, params);
      EXPECT_FALSE(FilterOverLocalScan(*r.plan)) << r.plan->ToString();
      EXPECT_EQ(CountOps(r.plan, PhysicalOpKind::kFilter), 0)
          << r.plan->ToString();
      EXPECT_FALSE(r.rowset->rows().empty()) << sql;
      auto text = tpch.Explain(sql, params);
      ASSERT_TRUE(text.ok()) << text.status().ToString();
      EXPECT_NE(text->find("TableScan(lineitem)[("), std::string::npos)
          << *text;
    }
  }

  // Q6 against the same sum taken over an unfiltered scan.
  tpch.options()->execution.dop = 1;
  QueryResult all = MustExecute(
      &tpch, "SELECT l_extendedprice, l_quantity, l_shipdate FROM lineitem");
  double sum = 0;
  int64_t count = 0;
  for (const Row& row : all.rowset->rows()) {
    if (row[2].date_value() >= CivilToDays(1994, 1, 1) &&
        row[2].date_value() < CivilToDays(1995, 1, 1) &&
        row[1].AsDouble() < 24) {
      sum += row[0].AsDouble() * row[1].AsDouble();
      ++count;
    }
  }
  QueryResult q6 = MustExecute(&tpch, kShapes[1], params);
  ASSERT_EQ(q6.rowset->rows().size(), 1u);
  EXPECT_NEAR(q6.rowset->rows()[0][0].AsDouble(), sum, 1e-6 * sum);
  EXPECT_EQ(q6.rowset->rows()[0][1].int64_value(), count);
}

// A provider below SQL level cannot run a predicate (§3.3): the Filter over
// its remote scan stays a Filter, evaluated at the host.
TEST(ScanFilterFoldTest, FilterOverScanOnlyProviderStays) {
  Engine host;
  RemoteServer simple = AttachRemoteEngine(&host, "simplesrv", [] {
    ProviderCapabilities caps = SqlServerCapabilities();
    caps.supports_command = false;
    caps.sql_support = SqlSupportLevel::kNone;
    caps.supports_indexes = false;
    caps.supports_bookmarks = false;
    caps.provider_name = "DHQP.Simple";
    return caps;
  }());
  MustExecute(simple.engine.get(), "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  MustExecute(simple.engine.get(), "INSERT INTO t VALUES (1,10),(2,20),(3,30)");
  QueryResult r = MustExecute(&host, "SELECT a FROM simplesrv.d.s.t WHERE b >= 20");
  EXPECT_EQ(RowsToString(r), "(2)(3)");
  ASSERT_EQ(CountOps(r.plan, PhysicalOpKind::kFilter), 1) << r.plan->ToString();
  ASSERT_EQ(CountOps(r.plan, PhysicalOpKind::kRemoteScan), 1);
  std::function<const PhysicalOp*(const PhysicalOp&)> find_filter =
      [&](const PhysicalOp& op) -> const PhysicalOp* {
    if (op.kind == PhysicalOpKind::kFilter) return &op;
    for (const PhysicalOpPtr& child : op.children) {
      if (const PhysicalOp* f = find_filter(*child)) return f;
    }
    return nullptr;
  };
  const PhysicalOp* filter = find_filter(*r.plan);
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->children[0]->kind, PhysicalOpKind::kRemoteScan);
  EXPECT_EQ(filter->children[0]->predicate, nullptr);
}

// A local index range with a residual conjunct runs the residual in
// storage and serves only the rows that pass, in key order, also when key
// order is not slot order (rows inserted in descending key order).
TEST(ScanFilterFoldTest, IndexRangeRunsItsResidualInStorage) {
  Engine host;
  MustExecute(&host, "CREATE TABLE r (a INT PRIMARY KEY, b INT)");
  std::string sql = "INSERT INTO r VALUES ";
  for (int a = 999; a >= 0; --a) {
    if (a != 999) sql += ",";
    sql += "(" + std::to_string(a) + "," + std::to_string(a % 7) + ")";
  }
  MustExecute(&host, sql);
  const std::string query =
      "SELECT a, b FROM r WHERE a >= 100 AND a <= 130 AND b = 3 ORDER BY a";
  QueryResult q = MustExecute(&host, query);
  ASSERT_EQ(CountOps(q.plan, PhysicalOpKind::kIndexRange), 1)
      << q.plan->ToString();
  EXPECT_EQ(CountOps(q.plan, PhysicalOpKind::kFilter), 0) << q.plan->ToString();
  EXPECT_EQ(CountOps(q.plan, PhysicalOpKind::kSort), 0) << q.plan->ToString();
  EXPECT_EQ(RowsToString(q), "(101, 3)(108, 3)(115, 3)(122, 3)(129, 3)");
  // The residual saw the 31 rows of the range; 5 passed.
  const OperatorProfile* range = nullptr;
  for (const FlatOperator& f : FlattenOperatorProfile(*q.profile)) {
    if (f.op->kind == PhysicalOpKind::kIndexRange) range = f.op;
  }
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(range->rows_read.load(), 31);
  EXPECT_EQ(range->rows_out.load(), 5);
}

}  // namespace
}  // namespace dhqp
