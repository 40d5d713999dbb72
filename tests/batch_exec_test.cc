// Differential coverage for batch-at-a-time execution: every query runs
// under exec_batch_rows in {1024, 1, 3} — the production default (the
// baseline), the degenerate one-row batch, and a deliberately awkward size
// that never aligns with operator buffers — and must produce identical
// result multisets, warnings, and ExecStats row counts. Where remote rows
// are compared, the link messages and wire rows must agree too, with the
// prefetch pipeline on and off: a remote stream's wire blocks never depend
// on the local batch size. Covers a fixed semantics corpus (NULL logic,
// aggregates, DISTINCT, joins, LIKE, TOP, subqueries with Restart
// mid-batch), randomly generated distributed queries, and a seeded fault
// schedule on the remote link.

#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "tests/differential_harness.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

// The first size is the baseline every other size is compared against.
const int kBatchSizes[] = {1024, 1, 3};

// Remote streams read through the prefetch pipeline, then inline.
const bool kPrefetchModes[] = {true, false};

// Failure-message label and comparison via the shared harness.
void ExpectEquivalent(const Observation& base, const Observation& obs,
                      const std::string& sql, int batch_rows,
                      bool compare_remote_rows = true) {
  dhqp::ExpectEquivalent(base, obs, sql,
                         "exec_batch_rows=" + std::to_string(batch_rows),
                         compare_remote_rows);
}

// ---------------------------------------------------------------------------
// Fixed semantics corpus over a local + remote topology.
// ---------------------------------------------------------------------------

class BatchExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    remote_ = AttachRemoteEngine(&host_, "rsrv");
    MustExecute(&host_,
                "CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR(8))");
    MustExecute(&host_,
                "INSERT INTO t VALUES (1, 10, 'abc'), (2, NULL, 'abd'), "
                "(3, 7, NULL), (4, 10, 'xyz'), (5, -3, 'ab'), "
                "(110, 4, 'q'), (120, NULL, NULL)");
    MustExecute(&host_, "CREATE TABLE u (v INT, tag VARCHAR(4))");
    MustExecute(&host_, "INSERT INTO u VALUES (10, 'x'), (NULL, 'n'), "
                        "(7, 'y'), (7, 'z')");
    MustExecute(remote_.engine.get(),
                "CREATE TABLE r (a INT PRIMARY KEY, e INT)");
    MustExecute(remote_.engine.get(),
                "INSERT INTO r VALUES (1, 100), (3, 300), (5, 500), "
                "(7, 700), (110, 110), (9, 900)");
  }

  Engine host_;
  RemoteServer remote_;
};

TEST_F(BatchExecTest, SemanticsCorpusIsBatchSizeInvariant) {
  const char* kCorpus[] = {
      "SELECT id FROM t WHERE v = NULL",
      "SELECT id FROM t WHERE v <> 10",
      "SELECT id FROM t WHERE v IS NULL ORDER BY id",
      "SELECT id FROM t WHERE v IS NOT NULL AND s IS NULL",
      "SELECT id FROM t WHERE v > 5 OR s = 'abc' ORDER BY id",
      "SELECT id FROM t WHERE NOT (v > 5) ORDER BY id",
      "SELECT id FROM t WHERE v > 5 AND id < 100 AND s <> 'abc'",
      "SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
      "SELECT COUNT(*), SUM(v), MIN(v) FROM t WHERE id > 1000",
      "SELECT v, COUNT(*) FROM t WHERE id > 100 GROUP BY v",
      "SELECT COUNT(v), COUNT(DISTINCT v), SUM(DISTINCT v) FROM t",
      "SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v",
      "SELECT t.id, u.tag FROM t JOIN u ON t.v = u.v",
      "SELECT t.id, u.tag FROM t LEFT JOIN u ON t.v = u.v ORDER BY t.id",
      "SELECT id FROM t WHERE s LIKE 'ab%' ORDER BY id",
      "SELECT id, v + 1 FROM t WHERE id = 2",
      "SELECT TOP 3 id FROM t ORDER BY id",
      "SELECT TOP 100 id FROM t ORDER BY id DESC",
      "SELECT id FROM t WHERE v IN (10, NULL)",
      "SELECT id FROM t WHERE v NOT IN (10, NULL)",
      "SELECT UPPER(s), LEN(s) FROM t WHERE id = 1",
      "SELECT id FROM t ORDER BY v DESC, id",
      "SELECT t.id, r.e FROM t, rsrv.db.dbo.r r WHERE t.id = r.a",
      "SELECT t.id, r.e FROM t, rsrv.db.dbo.r r "
      "WHERE t.id = r.a AND r.e > 150 ORDER BY t.id",
      "SELECT 1 / 0",  // Errors must be batch-size-invariant too.
      "SELECT id, CASE WHEN v = 10 THEN 0 ELSE 100 / (v - 10) END FROM t",
      // Row id 1 overflows before row id 4 divides by zero: every batch
      // size reports the first failing row's error.
      "SELECT id, CASE WHEN id = 4 THEN 1 / 0 "
      "ELSE v * 1000000000000000000 END FROM t",
      "SELECT TOP 2 a FROM rsrv.db.dbo.r",
      "SELECT r.a FROM rsrv.db.dbo.r r WHERE r.a > 2 ORDER BY r.a",
  };
  for (bool prefetch : kPrefetchModes) {
    host_.options()->execution.enable_remote_prefetch = prefetch;
    for (const char* sql : kCorpus) {
      Observation base;
      for (int bs : kBatchSizes) {
        Observation obs = Observe(&host_, sql, bs);
        if (bs == kBatchSizes[0]) {
          base = obs;
        } else {
          ExpectEquivalent(base, obs, sql, bs);
        }
        if (obs.ok && obs.rows_output > 0) {
          // The sink pulled real batches.
          EXPECT_GT(obs.exec_batches, 0) << sql;
        }
      }
    }
  }
}

// Subqueries drive Restart() on the inner side while the outer side streams
// in batches — the Restart-mid-batch interleaving. The correlated variant
// parameterizes a remote query that rebinds per outer row.
TEST_F(BatchExecTest, SubqueryRestartMidBatchIsBatchSizeInvariant) {
  const char* kSubqueries[] = {
      "SELECT id FROM t WHERE EXISTS (SELECT * FROM u WHERE u.v = t.v)",
      "SELECT id FROM t WHERE NOT EXISTS (SELECT * FROM u WHERE u.v = t.v)",
      "SELECT id FROM t WHERE id IN (SELECT a FROM rsrv.db.dbo.r)",
      "SELECT id FROM t WHERE id NOT IN (SELECT a FROM rsrv.db.dbo.r)",
      "SELECT id FROM t WHERE EXISTS "
      "(SELECT * FROM rsrv.db.dbo.r WHERE r.a = t.id AND r.e > 200)",
  };
  for (const char* sql : kSubqueries) {
    Observation base = Observe(&host_, sql, kBatchSizes[0]);
    for (int bs : kBatchSizes) {
      if (bs == kBatchSizes[0]) continue;
      Observation obs = Observe(&host_, sql, bs);
      // Semi-join early termination can legitimately pull a different
      // number of remote rows per mode; the answer may not change.
      ExpectEquivalent(base, obs, sql, bs, /*compare_remote_rows=*/false);
    }
  }
}

// Remote streams that span several wire blocks — read to the end, merged
// row by row, probed by a semi join, cut short by a TOP — keep their link
// messages and wire rows at every batch size, prefetched or inline.
TEST_F(BatchExecTest, MultiBlockRemoteStreamsAreBatchSizeInvariant) {
  std::string values;
  for (int i = 0; i < 300; ++i) {
    if (i) values += ",";
    values += "(" + std::to_string(i) + "," + std::to_string(i % 97) + ")";
  }
  for (Engine* e : {&host_, remote_.engine.get()}) {
    MustExecute(e, "CREATE TABLE big (a INT PRIMARY KEY, k INT)");
    MustExecute(e, "INSERT INTO big VALUES " + values);
    MustExecute(e, "CREATE INDEX big_k ON big (k)");
  }
  const char* kQueries[] = {
      "SELECT a, k FROM rsrv.db.dbo.big WHERE a >= 10",
      "SELECT l.a, r.a FROM big l JOIN rsrv.db.dbo.big r ON l.k = r.k "
      "ORDER BY l.k",
      "SELECT a FROM big WHERE k IN "
      "(SELECT r.k FROM rsrv.db.dbo.big r WHERE r.a < 200)",
      "SELECT TOP 70 a FROM rsrv.db.dbo.big",
  };
  for (bool prefetch : kPrefetchModes) {
    host_.options()->execution.enable_remote_prefetch = prefetch;
    for (const char* sql : kQueries) {
      Observation base = Observe(&host_, sql, kBatchSizes[0]);
      EXPECT_TRUE(base.ok) << sql;
      EXPECT_GE(base.wire_rows, base.rows_from_remote) << sql;
      for (int bs : kBatchSizes) {
        if (bs == kBatchSizes[0]) continue;
        ExpectEquivalent(base, Observe(&host_, sql, bs), sql, bs);
      }
    }
  }
}

// exec.batches / exec.rows_output are queryable through sys..dm_metrics.
TEST_F(BatchExecTest, BatchCountersVisibleInMetricsDmv) {
  MustExecute(&host_, "SELECT id FROM t WHERE v IS NOT NULL");
  QueryResult m = MustExecute(
      &host_,
      "SELECT name, value FROM sys..dm_metrics WHERE name = 'exec.batches'");
  ASSERT_NE(m.rowset, nullptr);
  ASSERT_EQ(m.rowset->rows().size(), 1u);
  EXPECT_GT(m.rowset->rows()[0][1].int64_value(), 0);
  m = MustExecute(&host_,
                  "SELECT name, value FROM sys..dm_metrics "
                  "WHERE name = 'exec.rows_output'");
  ASSERT_EQ(m.rowset->rows().size(), 1u);
  EXPECT_GT(m.rowset->rows()[0][1].int64_value(), 0);
}

// ---------------------------------------------------------------------------
// Random distributed queries, all batch sizes.
// ---------------------------------------------------------------------------

class BatchDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchDifferentialTest, RandomQueriesAgreeAcrossBatchSizes) {
  Engine host;
  RemoteServer remote = AttachRemoteEngine(&host, "rsrv");
  Rng data_rng(GetParam() * 6271 + 17);

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

  // Same generator shape (and seed behavior) as before the harness
  // extraction: two local tables and one remote, joined on `a`.
  DifferentialQueryGenerator generator(
      GetParam(), {{"t1", "t1"}, {"t2", "t2"}, {"rsrv.db.dbo.r", "r"}});
  for (int q = 0; q < 20; ++q) {
    std::string sql = generator.Next();
    for (bool prefetch : kPrefetchModes) {
      host.options()->execution.enable_remote_prefetch = prefetch;
      Observation base = Observe(&host, sql, kBatchSizes[0]);
      for (int bs : kBatchSizes) {
        if (bs == kBatchSizes[0]) continue;
        Observation obs = Observe(&host, sql, bs);
        ExpectEquivalent(base, obs, sql, bs);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Seeded fault schedules: the outcome (success fingerprint or error code),
// and on success the link messages and wire rows, must not depend on the
// local batch size, because a remote stream's wire blocks — and with them
// the message ordinals the injector scripts against — are the prefetch
// producer's remote_batch_rows-row blocks or, inline, the provider's own.
// ---------------------------------------------------------------------------

TEST(BatchExecFaultTest, FaultScheduleOutcomesAreBatchSizeInvariant) {
  Engine host;
  RemoteServer remote = AttachRemoteEngine(&host, "rsrv");
  MustExecute(remote.engine.get(),
              "CREATE TABLE r (a INT PRIMARY KEY, e INT)");
  std::string insert = "INSERT INTO r VALUES ";
  for (int i = 0; i < 600; ++i) {
    if (i) insert += ",";
    insert += "(" + std::to_string(i) + "," + std::to_string(i % 23) + ")";
  }
  MustExecute(remote.engine.get(), insert);

  const std::string sql =
      "SELECT e, COUNT(*) FROM rsrv.db.dbo.r WHERE a < 500 GROUP BY e";
  // Warm the plan cache with the injector inert so compile-time traffic
  // (schema/statistics fetches) does not consume scripted ordinals.
  MustExecute(&host, sql);

  for (bool prefetch : kPrefetchModes) {
    host.options()->execution.enable_remote_prefetch = prefetch;
    for (uint64_t schedule = 0; schedule < 6; ++schedule) {
      const uint64_t seed = ChaosSeed(/*suite_tag=*/0xBA7C4, schedule);
      Rng rng(seed);
      const int64_t after = rng.Uniform(0, 6);
      const int64_t count = rng.Uniform(1, 4);
      const bool down = rng.Uniform(0, 3) == 0;

      Observation base;
      bool first = true;
      for (int bs : kBatchSizes) {
        // Every mode starts from a live session: a failed run drops the
        // cached sessions, and the reconnect handshake would cost the next
        // mode alone a message and shift its fault ordinals by one.
        MustExecute(&host, sql);
        remote.injector->Reset(seed);
        if (down) {
          remote.injector->LinkDownAfter(after);
        } else {
          remote.injector->FailMessages(after, count);
        }
        Observation obs = Observe(&host, sql, bs);
        remote.injector->Reset();
        if (first) {
          base = obs;
          first = false;
          continue;
        }
        ExpectEquivalent(base, obs,
                         sql + " [schedule " + std::to_string(schedule) +
                             (prefetch ? ", prefetch]" : ", inline]"),
                         bs);
      }
    }
  }
}

}  // namespace
}  // namespace dhqp
