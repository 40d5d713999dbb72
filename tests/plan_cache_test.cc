// Plan cache tests: reuse, parameter sensitivity via startup filters,
// invalidation on DDL and option changes.

#include <string>
#include <utility>
#include <vector>

#include "tests/test_util.h"

namespace dhqp {
namespace {

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&engine_, "CREATE TABLE t (id INT PRIMARY KEY, v INT)");
    MustExecute(&engine_, "INSERT INTO t VALUES (1,10),(2,20),(3,30)");
  }
  Engine engine_;
};

TEST_F(PlanCacheTest, RepeatedQueryReturnsSameResults) {
  for (int i = 0; i < 3; ++i) {
    QueryResult r = MustExecute(&engine_, "SELECT v FROM t WHERE id = 2");
    EXPECT_EQ(RowsToString(r), "(20)");
  }
}

TEST_F(PlanCacheTest, CachedParameterizedPlanSeesFreshParams) {
  for (int id = 1; id <= 3; ++id) {
    QueryResult r = MustExecute(&engine_, "SELECT v FROM t WHERE id = @id",
                                {{"@id", Value::Int64(id)}});
    EXPECT_EQ(RowsToString(r), "(" + std::to_string(id * 10) + ")");
  }
}

TEST_F(PlanCacheTest, DdlInvalidatesCache) {
  QueryResult before = MustExecute(&engine_, "SELECT COUNT(*) FROM t WHERE v > 15");
  EXPECT_EQ(RowsToString(before), "(2)");
  // New index changes the plan space; the cached plan must not block it.
  MustExecute(&engine_, "CREATE INDEX iv ON t (v)");
  QueryResult after = MustExecute(&engine_, "SELECT COUNT(*) FROM t WHERE v > 15");
  EXPECT_EQ(RowsToString(after), "(2)");
}

TEST_F(PlanCacheTest, OptionChangesMissTheCache) {
  QueryResult with_defaults = MustExecute(&engine_, "SELECT v FROM t WHERE id = 2");
  EXPECT_EQ(RowsToString(with_defaults), "(20)");
  engine_.options()->optimizer.enable_index_paths = false;
  QueryResult without_index = MustExecute(&engine_, "SELECT v FROM t WHERE id = 2");
  EXPECT_EQ(RowsToString(without_index), "(20)");
  EXPECT_FALSE(without_index.plan_cache_hit);
  // Different options produced a different (index-free) plan.
  EXPECT_EQ(CountOps(without_index.plan, PhysicalOpKind::kIndexRange), 0);

  // Every optimizer setting keys the cache, including those that leave
  // this plan's shape alone.
  const std::vector<std::pair<std::string, void (*)(OptimizerOptions*)>>
      flips = {
          {"enable_locality_grouping",
           [](OptimizerOptions* o) { o->enable_locality_grouping = false; }},
          {"max_memo_exprs",
           [](OptimizerOptions* o) { o->max_memo_exprs = 5000; }},
      };
  for (const auto& [name, flip] : flips) {
    engine_.options()->optimizer = OptimizerOptions{};
    EXPECT_TRUE(
        MustExecute(&engine_, "SELECT v FROM t WHERE id = 2").plan_cache_hit)
        << name;
    flip(&engine_.options()->optimizer);
    QueryResult flipped = MustExecute(&engine_, "SELECT v FROM t WHERE id = 2");
    EXPECT_EQ(RowsToString(flipped), "(20)") << name;
    EXPECT_FALSE(flipped.plan_cache_hit) << name;
  }
}

TEST_F(PlanCacheTest, DataChangesAreVisibleThroughCachedPlans) {
  QueryResult before = MustExecute(&engine_, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(RowsToString(before), "(3)");
  MustExecute(&engine_, "INSERT INTO t VALUES (4, 40)");
  QueryResult after = MustExecute(&engine_, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(RowsToString(after), "(4)");
}

TEST_F(PlanCacheTest, CacheDisabledStillCorrect) {
  engine_.options()->enable_plan_cache = false;
  for (int i = 0; i < 2; ++i) {
    QueryResult r = MustExecute(&engine_, "SELECT v FROM t WHERE id = 1");
    EXPECT_EQ(RowsToString(r), "(10)");
  }
}

}  // namespace
}  // namespace dhqp
