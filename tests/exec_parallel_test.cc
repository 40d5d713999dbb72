// Tests for the asynchronous block-fetch pipeline (PrefetchingRowset) and
// parallel partitioned-view (Concat) execution: error propagation from
// producer threads, Restart of prefetching nodes, and parallel vs sequential
// result equivalence.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/executor/prefetch.h"
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

/// Yields `fail_after` rows, then returns a NetworkError — a remote stream
/// dying mid-flight: a block that would reach past them fails whole, and so
/// does every later one. Does not support Restart.
class FlakyRowset : public Rowset {
 public:
  FlakyRowset(Schema schema, int fail_after)
      : schema_(std::move(schema)), fail_after_(fail_after) {}

  const Schema& schema() const override { return schema_; }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    out->clear();
    if (max_rows <= 0) return false;
    if (fail_after_ - served_ < max_rows) {
      served_ = fail_after_;
      return Status::NetworkError("link dropped mid-stream");
    }
    for (int i = 0; i < max_rows; ++i) {
      out->rows.push_back({Value::Int64(served_++)});
    }
    return true;
  }

 private:
  Schema schema_;
  int fail_after_;
  int served_ = 0;
};

constexpr int kBlockRows = 64;

ExecOptions ShortQueue() {
  ExecOptions options;
  options.prefetch_queue_depth = 2;
  return options;
}

TEST(PrefetchingRowsetTest, StreamsAllRowsInOrder) {
  OperatorProfile profile;
  PrefetchingRowset rowset(
      std::make_unique<VectorRowset>(OneIntSchema(), IntRows(1000)),
      kBlockRows, ShortQueue(), &profile);
  auto drained = DrainRowset(&rowset);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ASSERT_EQ(drained->size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ((*drained)[static_cast<size_t>(i)][0].int64_value(), i);
  }
  // 1000 rows at batch 64 -> 16 ceil'd blocks.
  EXPECT_EQ(profile.batches, 16);
}

TEST(PrefetchingRowsetTest, ProducerErrorReachesConsumerAndSticks) {
  PrefetchingRowset rowset(
      std::make_unique<FlakyRowset>(OneIntSchema(), /*fail_after=*/150),
      kBlockRows, ShortQueue());
  RowBatch batch;
  int got = 0;
  Status error = Status::OK();
  while (true) {
    auto has = rowset.NextBatch(&batch, 1);
    if (!has.ok()) {
      error = has.status();
      break;
    }
    if (!*has) break;
    ++got;
  }
  // Two full 64-row batches arrive; the third dies mid-batch and the error
  // replaces it.
  EXPECT_EQ(got, 128);
  EXPECT_EQ(error.code(), StatusCode::kNetworkError);
  // The error is sticky: the consumer cannot accidentally read past it.
  auto again = rowset.NextBatch(&batch, 1);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kNetworkError);
}

TEST(PrefetchingRowsetTest, RestartRewindsAndRelaunchesProducer) {
  PrefetchingRowset rowset(
      std::make_unique<VectorRowset>(OneIntSchema(), IntRows(200)),
      kBlockRows, ShortQueue());
  RowBatch batch;
  for (int i = 0; i < 50; ++i) {
    auto has = rowset.NextBatch(&batch, 1);
    ASSERT_TRUE(has.ok());
    ASSERT_TRUE(*has);
  }
  ASSERT_OK(rowset.Restart());
  auto drained = DrainRowset(&rowset);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ASSERT_EQ(drained->size(), 200u);
  EXPECT_EQ((*drained)[0][0].int64_value(), 0);
  EXPECT_EQ((*drained)[199][0].int64_value(), 199);
  // Restart after full drain works too.
  ASSERT_OK(rowset.Restart());
  drained = DrainRowset(&rowset);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 200u);
}

TEST(PrefetchingRowsetTest, RestartOverStreamingInnerReportsNotSupported) {
  PrefetchingRowset rowset(
      std::make_unique<FlakyRowset>(OneIntSchema(), /*fail_after=*/1000000),
      kBlockRows, ShortQueue());
  RowBatch batch;
  auto has = rowset.NextBatch(&batch, 1);
  ASSERT_TRUE(has.ok());
  // FlakyRowset keeps the base-class Restart; the wrapper must surface that
  // so the executor falls back to reopening the source.
  Status st = rowset.Restart();
  EXPECT_EQ(st.code(), StatusCode::kNotSupported);
}

TEST(PrefetchingRowsetTest, NextBatchHandsOverProducerBatches) {
  PrefetchingRowset rowset(
      std::make_unique<VectorRowset>(OneIntSchema(), IntRows(200)),
      kBlockRows, ShortQueue());
  RowBatch batch;
  int64_t total = 0;
  while (true) {
    auto has = rowset.NextBatch(&batch, 1000);
    ASSERT_TRUE(has.ok());
    if (!*has) break;
    total += static_cast<int64_t>(batch.size());
  }
  EXPECT_EQ(total, 200);
}

// ---------------------------------------------------------------------------
// End-to-end: a linked server whose rowsets die mid-stream.
// ---------------------------------------------------------------------------

class FlakySession : public Session {
 public:
  explicit FlakySession(int fail_after) : fail_after_(fail_after) {}

  Result<std::unique_ptr<Rowset>> OpenRowset(
      const std::string& table) override {
    if (table != "t") return Status::NotFound("no table '" + table + "'");
    return std::unique_ptr<Rowset>(
        std::make_unique<FlakyRowset>(OneIntSchema(), fail_after_));
  }

  Result<std::vector<TableMetadata>> ListTables() override {
    TableMetadata meta;
    meta.name = "t";
    meta.schema = OneIntSchema();
    meta.cardinality = 100000;
    return std::vector<TableMetadata>{std::move(meta)};
  }

 private:
  int fail_after_;
};

/// A simple (non-query-capable) provider whose table scans fail mid-stream:
/// the host is forced to plan a RemoteScan and the failure arrives on the
/// prefetch producer thread.
class FlakyDataSource : public DataSource {
 public:
  explicit FlakyDataSource(int fail_after) : fail_after_(fail_after) {
    caps_.provider_name = "Flaky";
    caps_.source_type = "Test";
    caps_.query_language = "none";
    caps_.supports_schema_rowset = true;
  }

  const ProviderCapabilities& capabilities() const override { return caps_; }

  Result<std::unique_ptr<Session>> CreateSession() override {
    return std::unique_ptr<Session>(
        std::make_unique<FlakySession>(fail_after_));
  }

 private:
  ProviderCapabilities caps_;
  int fail_after_;
};

TEST(PrefetchEndToEndTest, MidStreamRemoteFailureSurfacesAsQueryError) {
  Engine host;
  ASSERT_OK(host.AddLinkedServer(
      "flk", std::make_shared<FlakyDataSource>(/*fail_after=*/300)));
  auto result = host.Execute("SELECT a FROM flk.d.s.t");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNetworkError);
  EXPECT_NE(result.status().ToString().find("link dropped"), std::string::npos)
      << result.status().ToString();
  // The engine stays usable after a failed remote query.
  MustExecute(&host, "CREATE TABLE l (x INT)");
  MustExecute(&host, "INSERT INTO l (x) VALUES (7)");
  EXPECT_EQ(RowsToString(MustExecute(&host, "SELECT x FROM l")), "(7)");
}

// ---------------------------------------------------------------------------
// Parallel partitioned-view (Concat) execution.
// ---------------------------------------------------------------------------

class ParallelConcatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int m = 0; m < 3; ++m) {
      RemoteServer server =
          AttachRemoteEngine(&host_, "m" + std::to_string(m));
      MustExecute(server.engine.get(), "CREATE TABLE part (id INT, v INT)");
      for (int i = 0; i < 40; ++i) {
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
  }

  /// Result rows as a sorted multiset: parallel branches may interleave, so
  /// only the multiset is comparable.
  static std::multiset<std::string> RowMultiset(const QueryResult& result) {
    std::multiset<std::string> out;
    for (const Row& row : result.rowset->rows()) out.insert(RowToString(row));
    return out;
  }

  Engine host_;
  std::vector<RemoteServer> servers_;
};

TEST_F(ParallelConcatTest, ParallelMatchesSequentialRowMultiset) {
  host_.options()->execution.concat_dop = 1;
  QueryResult sequential = MustExecute(&host_, "SELECT id, v FROM part_all");
  EXPECT_EQ(sequential.exec_stats.parallel_branches, 0);
  EXPECT_EQ(sequential.exec_stats.partitions_opened, 3);
  ASSERT_EQ(sequential.rowset->rows().size(), 120u);

  host_.options()->execution.concat_dop = 4;
  QueryResult parallel = MustExecute(&host_, "SELECT id, v FROM part_all");
  EXPECT_EQ(parallel.exec_stats.parallel_branches, 3);
  EXPECT_EQ(parallel.exec_stats.partitions_opened, 3);
  EXPECT_EQ(RowMultiset(sequential), RowMultiset(parallel));
  // Batches parked between the workers and the consumer are the Concat
  // operator's memory, all of it settled once the statement is over.
  ASSERT_NE(parallel.profile, nullptr);
  const OperatorProfile* concat = nullptr;
  for (const FlatOperator& f : FlattenOperatorProfile(*parallel.profile)) {
    if (f.op->name == "Concat") concat = f.op;
  }
  ASSERT_NE(concat, nullptr);
  EXPECT_GT(concat->mem.peak(), 0);
  EXPECT_EQ(concat->mem.current(), 0);
}

TEST_F(ParallelConcatTest, AggregateOverParallelViewIsExact) {
  host_.options()->execution.concat_dop = 4;
  QueryResult r =
      MustExecute(&host_, "SELECT COUNT(*), SUM(v) FROM part_all");
  // 3 members x 40 rows; v sums to 0+..+39 = 780 per member.
  EXPECT_EQ(RowsToString(r), "(120, 2340)");
  EXPECT_EQ(r.exec_stats.parallel_branches, 3);
}

TEST_F(ParallelConcatTest, SingleBranchAfterPruningStaysSequential) {
  host_.options()->execution.concat_dop = 4;
  // A single-member view has nothing to fan out; it must not pay for
  // worker threads.
  MustExecute(&host_, "CREATE VIEW one_member AS SELECT * FROM m0.d.s.part");
  QueryResult r = MustExecute(&host_, "SELECT COUNT(*) FROM one_member");
  EXPECT_EQ(RowsToString(r), "(40)");
  EXPECT_EQ(r.exec_stats.parallel_branches, 0);
}

TEST_F(ParallelConcatTest, ErrorInOneBranchFailsTheQuery) {
  ASSERT_OK(host_.AddLinkedServer(
      "flk", std::make_shared<FlakyDataSource>(/*fail_after=*/10)));
  MustExecute(&host_,
              "CREATE VIEW with_flaky AS "
              "SELECT id FROM m0.d.s.part UNION ALL "
              "SELECT id FROM m1.d.s.part UNION ALL "
              "SELECT a FROM flk.d.s.t");
  host_.options()->execution.concat_dop = 4;
  auto result = host_.Execute("SELECT id FROM with_flaky");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNetworkError);
}

// Restart of a prefetching scan inside a rescanned subtree: disable spools
// by rescanning through a nested-loops join where the inner is a remote
// scan wrapped in a prefetcher. The executor's Restart path must tear the
// producer down and relaunch it (or reopen) without losing rows.
TEST(PrefetchEndToEndTest, RescannedRemoteScanRestartsCleanly) {
  Engine host;
  RemoteServer remote = AttachRemoteEngine(&host, "r");
  MustExecute(remote.engine.get(), "CREATE TABLE inner_t (k INT)");
  for (int i = 0; i < 5; ++i) {
    MustExecute(remote.engine.get(),
                "INSERT INTO inner_t (k) VALUES (" + std::to_string(i) + ")");
  }
  MustExecute(&host, "CREATE TABLE outer_t (k INT)");
  for (int i = 0; i < 4; ++i) {
    MustExecute(&host,
                "INSERT INTO outer_t (k) VALUES (" + std::to_string(i) + ")");
  }
  QueryResult r = MustExecute(
      &host,
      "SELECT COUNT(*) FROM outer_t, r.d.s.inner_t "
      "WHERE outer_t.k = inner_t.k");
  EXPECT_EQ(RowsToString(r), "(4)");
}

}  // namespace
}  // namespace dhqp
