// Execution semantics: SQL three-valued logic, NULL handling in joins and
// aggregates, DISTINCT aggregates, empty inputs, LIKE patterns.

#include <algorithm>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace dhqp {
namespace {

class ExecSemanticsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&engine_,
                "CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR(10))");
    MustExecute(&engine_,
                "INSERT INTO t VALUES (1, 10, 'abc'), (2, NULL, 'abd'), "
                "(3, 30, NULL), (4, NULL, NULL)");
  }
  Engine engine_;
};

TEST_F(ExecSemanticsTest, NullComparisonsAreUnknown) {
  // NULL = NULL is unknown, never true.
  QueryResult r = MustExecute(&engine_, "SELECT id FROM t WHERE v = NULL");
  EXPECT_EQ(r.rowset->rows().size(), 0u);
  r = MustExecute(&engine_, "SELECT id FROM t WHERE v <> 10");
  EXPECT_EQ(RowsToString(r), "(3)");  // NULL rows excluded.
}

TEST_F(ExecSemanticsTest, IsNullPredicates) {
  QueryResult r = MustExecute(
      &engine_, "SELECT id FROM t WHERE v IS NULL ORDER BY id");
  EXPECT_EQ(RowsToString(r), "(2)(4)");
  r = MustExecute(
      &engine_, "SELECT id FROM t WHERE v IS NOT NULL AND s IS NULL");
  EXPECT_EQ(RowsToString(r), "(3)");
}

TEST_F(ExecSemanticsTest, ThreeValuedOrAnd) {
  // v > 5 OR s = 'abc': row 2 (v NULL, s='abd') -> unknown OR false -> no.
  // Row 4 (both NULL) -> unknown. Rows 1, 3 qualify.
  QueryResult r = MustExecute(
      &engine_, "SELECT id FROM t WHERE v > 5 OR s = 'abc' ORDER BY id");
  EXPECT_EQ(RowsToString(r), "(1)(3)");
  // NOT over unknown stays unknown (filtered out).
  r = MustExecute(&engine_, "SELECT id FROM t WHERE NOT (v > 5) ORDER BY id");
  EXPECT_EQ(r.rowset->rows().size(), 0u);
}

TEST_F(ExecSemanticsTest, AggregatesIgnoreNulls) {
  QueryResult r = MustExecute(
      &engine_,
      "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t");
  EXPECT_EQ(RowsToString(r), "(4, 2, 40, 20, 10, 30)");
}

TEST_F(ExecSemanticsTest, AggregatesOverEmptyInput) {
  QueryResult r = MustExecute(
      &engine_,
      "SELECT COUNT(*), SUM(v), MIN(v) FROM t WHERE id > 100");
  EXPECT_EQ(RowsToString(r), "(0, NULL, NULL)");
  // Grouped aggregate over empty input yields no rows.
  r = MustExecute(
      &engine_, "SELECT v, COUNT(*) FROM t WHERE id > 100 GROUP BY v");
  EXPECT_EQ(r.rowset->rows().size(), 0u);
}

TEST_F(ExecSemanticsTest, DistinctAggregates) {
  MustExecute(&engine_, "INSERT INTO t VALUES (5, 10, 'abc')");
  QueryResult r = MustExecute(
      &engine_, "SELECT COUNT(v), COUNT(DISTINCT v), SUM(DISTINCT v) FROM t");
  EXPECT_EQ(RowsToString(r), "(3, 2, 40)");
}

TEST_F(ExecSemanticsTest, GroupByNullFormsOneGroup) {
  QueryResult r = MustExecute(
      &engine_, "SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v");
  // NULL group first (NULL sorts low), then 10, 30.
  EXPECT_EQ(RowsToString(r), "(NULL, 2)(10, 1)(30, 1)");
}

TEST_F(ExecSemanticsTest, JoinsNeverMatchNullKeys) {
  MustExecute(&engine_, "CREATE TABLE u (v INT, tag VARCHAR(4))");
  MustExecute(&engine_, "INSERT INTO u VALUES (10, 'x'), (NULL, 'n')");
  QueryResult r = MustExecute(
      &engine_, "SELECT t.id, u.tag FROM t JOIN u ON t.v = u.v");
  EXPECT_EQ(RowsToString(r), "(1, x)");
}

TEST_F(ExecSemanticsTest, LeftJoinNullPadding) {
  MustExecute(&engine_, "CREATE TABLE u (v INT, tag VARCHAR(4))");
  MustExecute(&engine_, "INSERT INTO u VALUES (10, 'x')");
  QueryResult r = MustExecute(
      &engine_,
      "SELECT t.id, u.tag FROM t LEFT JOIN u ON t.v = u.v ORDER BY t.id");
  EXPECT_EQ(RowsToString(r), "(1, x)(2, NULL)(3, NULL)(4, NULL)");
}

TEST_F(ExecSemanticsTest, LikePatterns) {
  QueryResult r = MustExecute(
      &engine_, "SELECT id FROM t WHERE s LIKE 'ab%' ORDER BY id");
  EXPECT_EQ(RowsToString(r), "(1)(2)");
  r = MustExecute(&engine_, "SELECT id FROM t WHERE s LIKE 'ab_' ORDER BY id");
  EXPECT_EQ(RowsToString(r), "(1)(2)");
  r = MustExecute(&engine_, "SELECT id FROM t WHERE s LIKE '%c'");
  EXPECT_EQ(RowsToString(r), "(1)");
  r = MustExecute(&engine_, "SELECT id FROM t WHERE s NOT LIKE 'ab%'");
  EXPECT_EQ(r.rowset->rows().size(), 0u);  // NULL s rows are unknown.
}

TEST_F(ExecSemanticsTest, DivisionByZeroIsError) {
  auto r = engine_.Execute("SELECT 1 / 0");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

// Integer arithmetic that leaves int64 fails with "arithmetic overflow"
// instead of wrapping or trapping: +, -, * and unary minus, INT64_MIN / -1,
// ABS(INT64_MIN), an integer SUM's running total, and a FLOAT cast to INT
// out of range. x % -1 is 0, and AVG sums in double, so neither fails.
TEST_F(ExecSemanticsTest, IntegerOverflowIsError) {
  MustExecute(&engine_, "CREATE TABLE big (a INT, b INT, d FLOAT)");
  MustExecute(&engine_,
              "INSERT INTO big VALUES (9223372036854775807, -1, 1.5e22)");
  const char* kOverflows[] = {
      "SELECT (-a - 1) / b FROM big",
      "SELECT a + 1 FROM big",
      "SELECT a * 2 FROM big",
      "SELECT -a - 2 FROM big",
      "SELECT -(-a - 1) FROM big",
      "SELECT ABS(-a - 1) FROM big",
      "SELECT a FROM big WHERE a + 1 > 0",
      "SELECT CAST(d AS INT) FROM big",
      "SELECT SUM(a) FROM t, big",
  };
  for (const char* sql : kOverflows) {
    auto r = engine_.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kExecutionError) << sql;
    EXPECT_NE(r.status().message().find("arithmetic overflow"),
              std::string::npos)
        << sql << ": " << r.status().ToString();
  }
  QueryResult r = MustExecute(&engine_, "SELECT (-a - 1) % b FROM big");
  EXPECT_EQ(RowsToString(r), "(0)");
  r = MustExecute(&engine_, "SELECT AVG(a) FROM t, big");
  EXPECT_EQ(RowsToString(r), "(9.22337e+18)");
  r = MustExecute(&engine_, "SELECT a - 1, -a FROM big");
  EXPECT_EQ(RowsToString(r), "(9223372036854775806, -9223372036854775807)");
}

// AND, OR and CASE evaluate their later operands only for the rows that
// reach them, so a guarded division never divides by zero; unguarded, it
// fails.
TEST_F(ExecSemanticsTest, ShortCircuitGuardsEvaluation) {
  MustExecute(&engine_, "CREATE TABLE sc (id INT, a INT, b INT)");
  MustExecute(&engine_,
              "INSERT INTO sc VALUES (1, 10, 0), (2, 10, 5), (3, 7, NULL)");
  QueryResult r = MustExecute(
      &engine_,
      "SELECT id, CASE WHEN b = 0 THEN 0 ELSE a / b END FROM sc ORDER BY id");
  EXPECT_EQ(RowsToString(r), "(1, 0)(2, 2)(3, NULL)");
  r = MustExecute(&engine_, "SELECT id FROM sc WHERE b <> 0 AND a / b > 1");
  EXPECT_EQ(RowsToString(r), "(2)");
  r = MustExecute(
      &engine_, "SELECT id FROM sc WHERE b = 0 OR a / b > 1 ORDER BY id");
  EXPECT_EQ(RowsToString(r), "(1)(2)");
  auto failed = engine_.Execute("SELECT a / b FROM sc");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(failed.status().message().find("division by zero"),
            std::string::npos);
}

// A parameter is cast to the type of the expression it is compared with: a
// string to a DATE or an INT, a FLOAT to an INT. A NULL parameter qualifies
// no row, a string that does not parse fails, and an unbound parameter
// fails once a row reaches it.
TEST_F(ExecSemanticsTest, ParametersAreCastToTheirExpressionType) {
  MustExecute(&engine_, "CREATE TABLE dt (id INT, d DATE)");
  MustExecute(&engine_,
              "INSERT INTO dt VALUES (1, '1996-01-15'), (2, '1996-07-01')");
  QueryResult r = MustExecute(&engine_, "SELECT id FROM dt WHERE d < @p",
                              {{"@p", Value::String("1996-06-01")}});
  EXPECT_EQ(RowsToString(r), "(1)");
  r = MustExecute(&engine_, "SELECT id FROM t WHERE v = @p",
                  {{"@p", Value::String("30")}});
  EXPECT_EQ(RowsToString(r), "(3)");
  r = MustExecute(&engine_, "SELECT id FROM t WHERE id = @p",
                  {{"@p", Value::String("3")}});
  EXPECT_EQ(RowsToString(r), "(3)");
  r = MustExecute(&engine_, "SELECT id FROM t WHERE id = @p",
                  {{"@p", Value::Double(4.5)}});
  EXPECT_EQ(RowsToString(r), "(4)");
  r = MustExecute(&engine_, "SELECT id FROM t WHERE v = @p",
                  {{"@p", Value::Null(DataType::kInt64)}});
  EXPECT_EQ(r.rowset->rows().size(), 0u);
  auto bad = engine_.Execute("SELECT id FROM t WHERE v = @p",
                             {{"@p", Value::String("x")}});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto unbound = engine_.Execute("SELECT id FROM t WHERE v = @missing");
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), StatusCode::kExecutionError);
  MustExecute(&engine_, "CREATE TABLE none (v INT)");
  r = MustExecute(&engine_, "SELECT v FROM none WHERE v = @missing");
  EXPECT_EQ(r.rowset->rows().size(), 0u);
}

TEST_F(ExecSemanticsTest, ArithmeticWithNullYieldsNull) {
  QueryResult r = MustExecute(
      &engine_, "SELECT id, v + 1 FROM t WHERE id = 2");
  EXPECT_EQ(RowsToString(r), "(2, NULL)");
}

TEST_F(ExecSemanticsTest, TopZeroAndBeyondCardinality) {
  QueryResult r = MustExecute(&engine_, "SELECT TOP 0 id FROM t");
  EXPECT_EQ(r.rowset->rows().size(), 0u);
  r = MustExecute(&engine_, "SELECT TOP 100 id FROM t");
  EXPECT_EQ(r.rowset->rows().size(), 4u);
}

TEST_F(ExecSemanticsTest, InListWithNullSemantics) {
  // 10 IN (10, NULL) -> true; 20 IN (10, NULL) -> unknown (not emitted);
  // NOT IN with NULL in the list never matches.
  QueryResult r = MustExecute(
      &engine_, "SELECT id FROM t WHERE v IN (10, NULL)");
  EXPECT_EQ(RowsToString(r), "(1)");
  r = MustExecute(&engine_, "SELECT id FROM t WHERE v NOT IN (10, NULL)");
  EXPECT_EQ(r.rowset->rows().size(), 0u);
}

// x NOT IN (SELECT y ...) is false or unknown — the row goes — as soon as
// some y equals x or either side is NULL; only an empty subquery keeps a
// NULL x. The same answers with the subquery's table local and on a linked
// engine.
TEST_F(ExecSemanticsTest, NotInSubqueryNullSemantics) {
  RemoteServer remote = AttachRemoteEngine(&engine_, "rsrv");
  for (Engine* e : {&engine_, remote.engine.get()}) {
    MustExecute(e, "CREATE TABLE u (k INT)");
    MustExecute(e, "INSERT INTO u VALUES (10), (NULL)");
  }
  struct Case {
    const char* subquery_where;
    const char* expected;
  };
  const Case cases[] = {
      {"", ""},                       // A NULL item: nothing survives.
      {" WHERE k IS NOT NULL", "(3)"},  // NULL v is unknown against 10.
      {" WHERE k > 100", "(1)(2)(3)(4)"},  // Empty: every row survives.
  };
  for (const char* u : {"u", "rsrv.db.dbo.u"}) {
    for (const Case& c : cases) {
      const std::string sql = std::string("SELECT id FROM t WHERE v NOT IN ") +
                              "(SELECT k FROM " + u + c.subquery_where +
                              ") ORDER BY id";
      QueryResult r = MustExecute(&engine_, sql);
      EXPECT_EQ(RowsToString(r), c.expected) << sql;
      // The anti join's predicate has no equi-key.
      EXPECT_EQ(CountOps(r.plan, PhysicalOpKind::kNestedLoopsJoin), 1) << sql;
    }
  }
}

TEST_F(ExecSemanticsTest, StringConcatenationAndFunctions) {
  QueryResult r = MustExecute(
      &engine_,
      "SELECT UPPER(s) + '!' , LEN(s) FROM t WHERE id = 1");
  EXPECT_EQ(RowsToString(r), "(ABC!, 3)");
}

TEST_F(ExecSemanticsTest, OrderByNullsFirstAscending) {
  QueryResult r = MustExecute(&engine_, "SELECT id FROM t ORDER BY v, id");
  EXPECT_EQ(RowsToString(r), "(2)(4)(1)(3)");
  r = MustExecute(&engine_, "SELECT id FROM t ORDER BY v DESC, id");
  EXPECT_EQ(RowsToString(r), "(3)(1)(2)(4)");
}

// A merge join drops NULL-keyed rows on both inputs: its answer over
// indexed keys, NULL on every tenth and seventh row, matches the hash join
// over unindexed copies of the same rows.
TEST_F(ExecSemanticsTest, MergeJoinNeverMatchesNullKeys) {
  auto fill = [&](const std::string& table, int null_every, int mod) {
    MustExecute(&engine_,
                "CREATE TABLE " + table + " (a INT PRIMARY KEY, k INT)");
    std::string values;
    for (int i = 0; i < 300; ++i) {
      if (i != 0) values += ",";
      values += "(" + std::to_string(i) + "," +
                (i % null_every == 0 ? std::string("NULL")
                                     : std::to_string(i % mod)) +
                ")";
    }
    MustExecute(&engine_, "INSERT INTO " + table + " VALUES " + values);
  };
  fill("l", 10, 100);
  fill("l_heap", 10, 100);
  fill("r", 7, 120);
  fill("r_heap", 7, 120);
  MustExecute(&engine_, "CREATE INDEX l_k ON l (k)");
  MustExecute(&engine_, "CREATE INDEX r_k ON r (k)");
  auto sorted_rows = [](const QueryResult& result) {
    std::vector<std::string> rows;
    for (const Row& row : result.rowset->rows()) {
      rows.push_back(RowToString(row));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  QueryResult merge = MustExecute(
      &engine_, "SELECT l.a, r.a FROM l JOIN r ON l.k = r.k ORDER BY l.k");
  QueryResult hash = MustExecute(
      &engine_, "SELECT l.a, r.a FROM l_heap l JOIN r_heap r ON l.k = r.k");
  EXPECT_EQ(CountOps(merge.plan, PhysicalOpKind::kMergeJoin), 1);
  EXPECT_EQ(CountOps(hash.plan, PhysicalOpKind::kHashJoin), 1);
  EXPECT_EQ(hash.rowset->rows().size(), 606u);
  EXPECT_EQ(sorted_rows(merge), sorted_rows(hash));
}

// An index range never returns a NULL key: a bound on the indexed column
// starts above its NULLs, and an equality against NULL is empty. Answers
// are checked against the scan plan over an unindexed copy, locally and
// through an index provider, which serves the member's own index range.
TEST_F(ExecSemanticsTest, IndexRangesNeverReturnNullKeys) {
  ProviderCapabilities index = SqlServerCapabilities();
  index.supports_command = false;
  index.sql_support = SqlSupportLevel::kNone;
  RemoteServer remote = AttachRemoteEngine(&engine_, "idx", index);
  for (Engine* e : {&engine_, remote.engine.get()}) {
    MustExecute(e, "CREATE TABLE n (a INT PRIMARY KEY, k INT)");
    MustExecute(e, "CREATE TABLE n_heap (a INT PRIMARY KEY, k INT)");
    for (int base = 0; base < 2000; base += 500) {
      std::string values;
      for (int i = base; i < base + 500; ++i) {
        if (i != base) values += ",";
        values += "(" + std::to_string(i) + "," +
                  (i % 10 == 0 ? std::string("NULL") : std::to_string(i)) +
                  ")";
      }
      MustExecute(e, "INSERT INTO n VALUES " + values);
      MustExecute(e, "INSERT INTO n_heap VALUES " + values);
    }
    MustExecute(e, "CREATE INDEX n_k ON n (k)");
  }
  const std::map<std::string, Value> null_param = {
      {"@p", Value::Null(DataType::kInt64)}};
  struct Case {
    const char* where;
    const char* expected;
  };
  const Case cases[] = {{"k < 5", "(4)"}, {"k <= 11", "(10)"}, {"k = @p", "(0)"}};
  for (const Case& c : cases) {
    const std::string where = std::string(" WHERE ") + c.where;
    QueryResult scan = MustExecute(
        &engine_, "SELECT COUNT(*) FROM n_heap" + where, null_param);
    QueryResult local =
        MustExecute(&engine_, "SELECT COUNT(*) FROM n" + where, null_param);
    QueryResult ranged = MustExecute(
        &engine_, "SELECT COUNT(*) FROM idx.d.s.n" + where, null_param);
    EXPECT_EQ(CountOps(scan.plan, PhysicalOpKind::kIndexRange), 0) << c.where;
    EXPECT_EQ(CountOps(local.plan, PhysicalOpKind::kIndexRange), 1)
        << c.where;
    EXPECT_EQ(CountOps(ranged.plan, PhysicalOpKind::kRemoteRange), 1)
        << c.where;
    EXPECT_EQ(RowsToString(scan), c.expected) << c.where;
    EXPECT_EQ(RowsToString(local), c.expected) << c.where;
    EXPECT_EQ(RowsToString(ranged), c.expected) << c.where;
  }
}

}  // namespace
}  // namespace dhqp
