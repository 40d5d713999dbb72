// Direct executor-node tests: construct physical operators by hand and
// drive them through Open/NextBatch/Restart — independent of the
// optimizer's plan choices (merge join with duplicate runs, spool rescan
// behaviour, startup-filter gating, sort stability).

#include <algorithm>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace dhqp {
namespace {

// A leaf physical op backed by constant rows.
PhysicalOpBuilder ConstLeaf(std::vector<int> cols,
                            std::vector<DataType> types,
                            std::vector<Row> rows) {
  auto op = NewPhysicalOp(PhysicalOpKind::kConstTable);
  op->const_rows = std::move(rows);
  op->output_cols = std::move(cols);
  op->output_types = std::move(types);
  for (int c : op->output_cols) {
    op->output_names.push_back("c" + std::to_string(c));
  }
  op->estimated_rows = static_cast<double>(op->const_rows.size());
  return op;
}

Row R2(int64_t a, int64_t b) { return {Value::Int64(a), Value::Int64(b)}; }

// Drains an opened node in small batches.
std::vector<Row> Drain(ExecNode* node) {
  std::vector<Row> rows;
  RowBatch batch;
  while (true) {
    auto has = node->NextBatch(&batch, /*max_rows=*/2);
    EXPECT_TRUE(has.ok()) << has.status().ToString();
    if (!has.ok() || !*has) break;
    for (Row& row : batch.rows) rows.push_back(std::move(row));
  }
  return rows;
}

class ExecNodesTest : public ::testing::Test {
 protected:
  ExecNodesTest() : catalog_(&storage_) {
    ctx_.catalog = &catalog_;
    ctx_.current_date = DefaultCurrentDate();
  }

  std::vector<Row> RunAll(const PhysicalOpPtr& plan) {
    auto result = ExecutePlan(plan, &ctx_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  StorageEngine storage_;
  Catalog catalog_;
  ExecContext ctx_;
};

TEST_F(ExecNodesTest, MergeJoinDuplicateRunsBothSides) {
  // Sorted inputs with duplicate keys on both sides: the cross product per
  // key group must be complete. k=0: 2x2, k=2: 2x1, k=4: 1x2 -> 8 rows.
  auto left = ConstLeaf({0, 1}, {DataType::kInt64, DataType::kInt64},
                        {R2(0, 1), R2(0, 2), R2(1, 3), R2(2, 4), R2(2, 5),
                         R2(4, 6)});
  auto right = ConstLeaf({2, 3}, {DataType::kInt64, DataType::kInt64},
                         {R2(0, 10), R2(0, 11), R2(2, 12), R2(3, 13),
                          R2(4, 14), R2(4, 15)});
  auto join = NewPhysicalOp(PhysicalOpKind::kMergeJoin);
  join->join_type = JoinType::kInner;
  join->key_pairs.emplace_back(MakeColumn(0, DataType::kInt64, "l.k"),
                               MakeColumn(2, DataType::kInt64, "r.k"));
  join->children = {left, right};
  join->output_cols = {0, 1, 2, 3};
  join->output_types.assign(4, DataType::kInt64);
  join->output_names = {"lk", "lv", "rk", "rv"};

  std::vector<Row> rows = RunAll(join);
  EXPECT_EQ(rows.size(), 8u);
  // Every emitted pair agrees on the key.
  for (const Row& row : rows) {
    EXPECT_EQ(row[0].int64_value(), row[2].int64_value());
  }
}

TEST_F(ExecNodesTest, MergeJoinDisjointKeysEmpty) {
  auto left = ConstLeaf({0, 1}, {DataType::kInt64, DataType::kInt64},
                        {R2(1, 1), R2(3, 2)});
  auto right = ConstLeaf({2, 3}, {DataType::kInt64, DataType::kInt64},
                         {R2(2, 10), R2(4, 11)});
  auto join = NewPhysicalOp(PhysicalOpKind::kMergeJoin);
  join->join_type = JoinType::kInner;
  join->key_pairs.emplace_back(MakeColumn(0, DataType::kInt64, "l.k"),
                               MakeColumn(2, DataType::kInt64, "r.k"));
  join->children = {left, right};
  join->output_cols = {0, 1, 2, 3};
  join->output_types.assign(4, DataType::kInt64);
  join->output_names = {"lk", "lv", "rk", "rv"};
  EXPECT_EQ(RunAll(join).size(), 0u);
}

TEST_F(ExecNodesTest, SortIsStableAndHonorsDirections) {
  auto leaf = ConstLeaf({0, 1}, {DataType::kInt64, DataType::kInt64},
                        {R2(1, 1), R2(2, 2), R2(1, 3), R2(2, 4), R2(1, 5)});
  auto sort = NewPhysicalOp(PhysicalOpKind::kSort);
  sort->sort_keys = {{0, false}};  // k DESC; ties keep input order (stable).
  sort->children = {leaf};
  sort->output_cols = {0, 1};
  sort->output_types.assign(2, DataType::kInt64);
  sort->output_names = {"k", "v"};
  std::vector<Row> rows = RunAll(sort);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(RowToString(rows[0]), "(2, 2)");
  EXPECT_EQ(RowToString(rows[1]), "(2, 4)");
  EXPECT_EQ(RowToString(rows[2]), "(1, 1)");
  EXPECT_EQ(RowToString(rows[3]), "(1, 3)");
  EXPECT_EQ(RowToString(rows[4]), "(1, 5)");
}

TEST_F(ExecNodesTest, StartupFilterGatesAndReevaluates) {
  auto leaf = ConstLeaf({0, 1}, {DataType::kInt64, DataType::kInt64},
                        {R2(1, 10)});
  auto guard = NewPhysicalOp(PhysicalOpKind::kStartupFilter);
  guard->predicate = MakeComparison(">", MakeParam("@p", DataType::kInt64),
                                    MakeLiteral(Value::Int64(5)));
  guard->children = {leaf};
  guard->output_cols = {0, 1};
  guard->output_types.assign(2, DataType::kInt64);
  guard->output_names = {"k", "v"};

  ctx_.params["@p"] = Value::Int64(3);
  auto node = BuildExecTree(guard, &ctx_);
  ASSERT_TRUE(node.ok());
  ASSERT_OK((*node)->Open());
  EXPECT_TRUE(Drain(node->get()).empty());  // Guard false: child never runs.
  EXPECT_EQ(FoldExecStats(*ctx_.profile).startup_skips, 1);

  // Restart with a passing parameter (what NL correlation does).
  ctx_.params["@p"] = Value::Int64(9);
  ASSERT_OK((*node)->Restart());
  std::vector<Row> rows = Drain(node->get());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(RowToString(rows[0]), "(1, 10)");
}

TEST_F(ExecNodesTest, SpoolServesRescansFromMaterialization) {
  auto leaf = ConstLeaf({0, 1}, {DataType::kInt64, DataType::kInt64},
                        {R2(1, 1), R2(2, 2)});
  auto spool = NewPhysicalOp(PhysicalOpKind::kSpool);
  spool->children = {leaf};
  spool->output_cols = {0, 1};
  spool->output_types.assign(2, DataType::kInt64);
  spool->output_names = {"k", "v"};
  auto node = BuildExecTree(spool, &ctx_);
  ASSERT_TRUE(node.ok());
  ASSERT_OK((*node)->Open());
  EXPECT_EQ(Drain(node->get()).size(), 2u);
  ASSERT_OK((*node)->Restart());
  EXPECT_EQ(FoldExecStats(*ctx_.profile).spool_rescans, 1);
  EXPECT_EQ(Drain(node->get()).size(), 2u);
}

TEST_F(ExecNodesTest, TopBoundsOutput) {
  auto leaf = ConstLeaf({0, 1}, {DataType::kInt64, DataType::kInt64},
                        {R2(1, 1), R2(2, 2), R2(3, 3)});
  auto top = NewPhysicalOp(PhysicalOpKind::kTop);
  top->limit = 2;
  top->children = {leaf};
  top->output_cols = {0, 1};
  top->output_types.assign(2, DataType::kInt64);
  top->output_names = {"k", "v"};
  EXPECT_EQ(RunAll(top).size(), 2u);
}

// Copies `op`'s tree with every remote range turned into a remote fetch
// over the same index and key range, counting the swaps in `swapped`.
PhysicalOpPtr RangeToFetch(const PhysicalOpPtr& op, int* swapped) {
  auto copy = std::make_shared<PhysicalOp>(*op);
  if (copy->kind == PhysicalOpKind::kRemoteRange) {
    copy->kind = PhysicalOpKind::kRemoteFetch;
    ++*swapped;
  }
  for (PhysicalOpPtr& child : copy->children) {
    child = RangeToFetch(child, swapped);
  }
  return copy;
}

// A local scan's folded predicate that reads a correlation parameter: the
// nested-loops join writes the outer row's key into @k before each rescan,
// and the scan binds its predicate again at every Restart, so each outer
// row meets only its own matches — the hash join's answer.
TEST_F(ExecNodesTest, CorrelatedScanPredicateRebindsOnEveryRescan) {
  Schema schema;
  schema.AddColumn(ColumnDef{"a", DataType::kInt64, false});
  schema.AddColumn(ColumnDef{"b", DataType::kInt64, false});
  Table* t = storage_.CreateTable("t", schema).value();
  for (int64_t a = 0; a < 50; ++a) ASSERT_TRUE(t->Insert(R2(a, a % 5)).ok());

  auto scan = [&](ScalarExprPtr predicate) {
    auto op = NewPhysicalOp(PhysicalOpKind::kTableScan);
    op->table.metadata.name = "t";
    op->output_cols = {10, 11};
    op->output_types.assign(2, DataType::kInt64);
    op->output_names = {"a", "b"};
    op->predicate = std::move(predicate);
    return op;
  };
  auto join = [&](PhysicalOpKind kind, PhysicalOpPtr inner) {
    auto op = NewPhysicalOp(kind);
    op->join_type = JoinType::kInner;
    op->children = {ConstLeaf({0}, {DataType::kInt64},
                              {{Value::Int64(1)},
                               {Value::Int64(3)},
                               {Value::Int64(3)},
                               {Value::Int64(7)}}),
                    std::move(inner)};
    op->output_cols = {0, 10, 11};
    op->output_types.assign(3, DataType::kInt64);
    op->output_names = {"k", "a", "b"};
    return op;
  };
  auto sorted = [](std::vector<Row> rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) out.push_back(RowToString(row));
    std::sort(out.begin(), out.end());
    return out;
  };

  auto hash = join(PhysicalOpKind::kHashJoin, scan(nullptr));
  hash->key_pairs.emplace_back(MakeColumn(0, DataType::kInt64, "o.k"),
                               MakeColumn(11, DataType::kInt64, "t.b"));
  const std::vector<std::string> want = sorted(RunAll(hash));
  ASSERT_EQ(want.size(), 30u);

  auto loops = join(PhysicalOpKind::kNestedLoopsJoin,
                    scan(MakeComparison("=",
                                        MakeColumn(11, DataType::kInt64, "t.b"),
                                        MakeParam("@k", DataType::kInt64))));
  loops->remote_params = {{"@k", MakeColumn(0, DataType::kInt64, "o.k")}};
  EXPECT_EQ(sorted(RunAll(loops)), want);
  // One open and three rescans, each reading all 50 rows in storage and
  // serving its key's 10 (none for 7).
  const OperatorProfile& inner = *ctx_.profile->children[1];
  EXPECT_EQ(inner.opens.load(), 1);
  EXPECT_EQ(inner.restarts.load(), 3);
  EXPECT_EQ(inner.rows_read.load(), 200);
  EXPECT_EQ(inner.rows_out.load(), 30);
}

// Bookmark fetches (§4.1.2 remote fetch) count in the RemoteFetch slot: one
// successful open, one lookup per qualifying index key, and each fetched
// row as shipped. Over the same index the optimizer always prefers a remote
// range, so the fetch is the range it chose with the access path swapped.
TEST(RemoteFetchNodeTest, CountsLookupsInItsProfileSlot) {
  Engine host;
  ProviderCapabilities caps = SqlServerCapabilities();
  caps.supports_command = false;
  caps.sql_support = SqlSupportLevel::kNone;
  RemoteServer idx = AttachRemoteEngine(&host, "idx", caps);
  MustExecute(idx.engine.get(), "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  MustExecute(idx.engine.get(), "INSERT INTO t VALUES (1,7),(2,8),(3,7),(4,9)");
  MustExecute(idx.engine.get(), "CREATE INDEX idx_t_b ON t (b)");
  auto prepared = host.Prepare("SELECT a, b FROM idx.d.s.t WHERE b = 7");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  int swapped = 0;
  PhysicalOpPtr fetch = RangeToFetch(prepared->plan, &swapped);
  ASSERT_EQ(swapped, 1) << prepared->plan->ToString();

  ExecContext ctx;
  ctx.catalog = host.catalog();
  auto rows = ExecutePlan(fetch, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 2u);
  const ExecStats stats = FoldExecStats(*ctx.profile);
  EXPECT_EQ(stats.remote_fetches, 2);
  EXPECT_EQ(stats.remote_opens, 1);
  EXPECT_EQ(stats.rows_from_remote, 2);
  EXPECT_EQ(stats.rows_output, 2);
}

}  // namespace
}  // namespace dhqp
