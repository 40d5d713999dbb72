// Differential property testing: randomly generated distributed queries are
// executed twice — once with the full optimizer (pushdown, index paths,
// parameterization, phases, caching) and once with every optimization
// ablated — and must produce identical result multisets. This is the
// broadest correctness net over the optimizer/executor/decoder stack:
// whatever plan shape wins, the answer must not change.

#include <set>

#include "src/common/rng.h"
#include "tests/differential_harness.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

OptimizerOptions EverythingOff() {
  OptimizerOptions off;
  off.enable_join_reorder = false;
  off.enable_remote_pushdown = false;
  off.enable_parameterization = false;
  off.enable_spool_enforcer = false;
  off.enable_remote_statistics = false;
  off.enable_startup_filters = false;
  off.enable_static_pruning = false;
  off.enable_index_paths = false;
  off.enable_fulltext_index = false;
  off.enable_locality_grouping = false;
  off.multi_phase = false;
  return off;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, FullVsAblatedOptimizerAgree) {
  Engine host;
  RemoteServer remote = AttachRemoteEngine(&host, "rsrv");
  Rng data_rng(GetParam() * 7919 + 13);

  MustExecute(&host, "CREATE TABLE t1 (a INT PRIMARY KEY, b INT, c INT)");
  MustExecute(&host, "CREATE TABLE t2 (a INT PRIMARY KEY, d INT)");
  MustExecute(remote.engine.get(),
              "CREATE TABLE r (a INT PRIMARY KEY, e INT)");
  auto fill = [&](Engine* engine, const std::string& table, int rows,
                  int cols) {
    std::string sql = "INSERT INTO " + table + " VALUES ";
    std::set<int64_t> used;
    for (int i = 0; i < rows; ++i) {
      int64_t key;
      do {
        key = data_rng.Uniform(0, 150);
      } while (!used.insert(key).second);
      if (i) sql += ",";
      sql += "(" + std::to_string(key);
      for (int c = 1; c < cols; ++c) {
        sql += "," + std::to_string(data_rng.Uniform(-5, 40));
      }
      sql += ")";
    }
    MustExecute(engine, sql);
  };
  fill(&host, "t1", 60, 3);
  fill(&host, "t2", 40, 2);
  fill(remote.engine.get(), "r", 80, 2);

  // FROM: one to three of {t1, t2 (local), rsrv...r (remote)}.
  DifferentialQueryGenerator generator(
      GetParam(), {{"t1", "t1"}, {"t2", "t2"}, {"rsrv.db.dbo.r", "r"}});
  for (int q = 0; q < 25; ++q) {
    std::string sql = generator.Next();
    host.options()->optimizer = OptimizerOptions{};
    QueryResult full = MustExecute(&host, sql);
    host.options()->optimizer = EverythingOff();
    QueryResult ablated = MustExecute(&host, sql);
    EXPECT_EQ(Fingerprint(full), Fingerprint(ablated))
        << sql << "\nfull plan:\n"
        << full.plan->ToString() << "\nablated plan:\n"
        << ablated.plan->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace dhqp
