// Storage engine unit tests: constraints, indexes, deletes, bookmarks,
// transactions, provider surface, and the scan cursor's isolation rule.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/storage/storage_engine.h"

namespace dhqp {
namespace {

Schema TwoCol() {
  Schema schema;
  schema.AddColumn(ColumnDef{"id", DataType::kInt64, false});
  schema.AddColumn(ColumnDef{"name", DataType::kString, true});
  return schema;
}

TEST(TableTest, InsertValidatesArityAndTypes) {
  Table t("t", TwoCol());
  EXPECT_FALSE(t.Insert({Value::Int64(1)}).ok());  // Arity.
  EXPECT_FALSE(t.Insert({Value::Null(), Value::String("x")}).ok());  // NOT NULL.
  // Coercible types are cast.
  ASSERT_TRUE(t.Insert({Value::String("7"), Value::String("x")}).ok());
  EXPECT_EQ(t.GetRow(0)->at(0).int64_value(), 7);
  // Non-coercible rejected.
  EXPECT_FALSE(t.Insert({Value::String("abc"), Value::String("x")}).ok());
}

TEST(TableTest, CheckConstraintEnforced) {
  Table t("t", TwoCol());
  CheckConstraint check{"id", IntervalSet::FromComparison(">", Value::Int64(0)),
                        "id > 0"};
  ASSERT_TRUE(t.AddCheckConstraint(check).ok());
  EXPECT_TRUE(t.Insert({Value::Int64(5), Value::Null()}).ok());
  auto bad = t.Insert({Value::Int64(-1), Value::Null()});
  EXPECT_EQ(bad.status().code(), StatusCode::kConstraintViolation);
}

TEST(TableTest, AddCheckRejectsExistingViolations) {
  Table t("t", TwoCol());
  ASSERT_TRUE(t.Insert({Value::Int64(-5), Value::Null()}).ok());
  CheckConstraint check{"id", IntervalSet::FromComparison(">", Value::Int64(0)),
                        "id > 0"};
  EXPECT_FALSE(t.AddCheckConstraint(check).ok());
}

TEST(TableTest, UniqueIndexRejectsDuplicates) {
  Table t("t", TwoCol());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, /*unique=*/true).ok());
  ASSERT_TRUE(t.Insert({Value::Int64(1), Value::String("a")}).ok());
  auto dup = t.Insert({Value::Int64(1), Value::String("b")});
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
  // Non-unique index tolerates duplicates.
  ASSERT_TRUE(t.CreateIndex("byname", {"name"}, /*unique=*/false).ok());
  EXPECT_TRUE(t.Insert({Value::Int64(2), Value::String("a")}).ok());
}

TEST(TableTest, DeleteMaintainsIndexes) {
  Table t("t", TwoCol());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, true).ok());
  auto id1 = t.Insert({Value::Int64(1), Value::String("a")});
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(t.Delete(*id1).ok());
  EXPECT_EQ(t.live_row_count(), 0u);
  EXPECT_EQ(t.GetRow(*id1), nullptr);
  // The key is free again.
  EXPECT_TRUE(t.Insert({Value::Int64(1), Value::String("c")}).ok());
  EXPECT_FALSE(t.Delete(*id1).ok());  // Double delete.
}

TEST(StorageEngineTest, TransactionUndoOnAbort) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable("t", TwoCol()).ok());
  ASSERT_TRUE(engine.Begin(1).ok());
  ASSERT_TRUE(engine.InsertRow(1, "t", {Value::Int64(1), Value::Null()}).ok());
  ASSERT_TRUE(engine.InsertRow(1, "t", {Value::Int64(2), Value::Null()}).ok());
  Table* t = engine.GetTable("t").value();
  EXPECT_EQ(t->live_row_count(), 2u);
  ASSERT_TRUE(engine.Abort(1).ok());
  EXPECT_EQ(t->live_row_count(), 0u);
}

TEST(StorageEngineTest, TransactionCommitKeepsRows) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable("t", TwoCol()).ok());
  ASSERT_TRUE(engine.Begin(2).ok());
  ASSERT_TRUE(engine.InsertRow(2, "t", {Value::Int64(1), Value::Null()}).ok());
  ASSERT_TRUE(engine.Prepare(2).ok());
  ASSERT_TRUE(engine.Commit(2).ok());
  EXPECT_EQ(engine.GetTable("t").value()->live_row_count(), 1u);
}

TEST(StorageSessionTest, ProviderSurface) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable("t", TwoCol()).ok());
  Table* t = engine.GetTable("t").value();
  ASSERT_TRUE(t->CreateIndex("pk", {"id"}, true).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        t->Insert({Value::Int64(i), Value::String("n" + std::to_string(i))})
            .ok());
  }
  StorageSession session(&engine);

  // IOpenRowset.
  auto rowset = session.OpenRowset("t");
  ASSERT_TRUE(rowset.ok());
  auto rows = DrainRowset(rowset->get());
  EXPECT_EQ(rows->size(), 10u);

  // IDBSchemaRowset.
  auto tables = session.ListTables();
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ((*tables)[0].indexes.size(), 1u);
  EXPECT_EQ((*tables)[0].cardinality, 10);

  // IRowsetIndex: range [3, 6).
  IndexRange range;
  range.lo = Value::Int64(3);
  range.hi = Value::Int64(6);
  range.hi_inclusive = false;
  auto ranged = session.OpenIndexRange("t", "pk", range);
  ASSERT_TRUE(ranged.ok());
  EXPECT_EQ(DrainRowset(ranged->get())->size(), 3u);

  // Index keys + IRowsetLocate bookmarks.
  auto keys = session.OpenIndexKeys("t", "pk", range);
  ASSERT_TRUE(keys.ok());
  auto key_rows = DrainRowset(keys->get());
  ASSERT_EQ(key_rows->size(), 3u);
  const Value& bookmark = (*key_rows)[0].back();
  auto fetched = session.FetchByBookmark("t", bookmark);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched->has_value());
  EXPECT_EQ((**fetched)[0].int64_value(), 3);

  // Histogram rowset.
  auto stats = session.GetStatistics("t", "id");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, 10);

  // Command surface refused (index provider category, §3.3).
  EXPECT_FALSE(session.CreateCommand().ok());
}

// The base-table rowset is a cursor over the table's slots, bounded at
// Open: it serves the rows below that bound that are still live when
// served. Each test interleaves writes with reads on one thread.
class SlotCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.CreateTable("t", TwoCol()).ok());
    table_ = engine_.GetTable("t").value();
    ASSERT_TRUE(table_->CreateIndex("pk", {"id"}, true).ok());
    for (int i = 0; i < 10; ++i) Insert(i);
  }

  void Insert(int64_t id) {
    ASSERT_TRUE(table_->Insert({Value::Int64(id), Value::Null()}).ok());
  }

  std::unique_ptr<Rowset> Open() {
    auto rowset = session_.OpenRowset("t");
    EXPECT_TRUE(rowset.ok());
    return std::move(rowset).value();
  }

  // Ids of the rows in `rows`, in order.
  static std::vector<int64_t> Ids(const std::vector<Row>& rows) {
    std::vector<int64_t> ids;
    for (const Row& row : rows) ids.push_back(row[0].int64_value());
    return ids;
  }

  // The ids [lo, hi).
  static std::vector<int64_t> Range(int64_t lo, int64_t hi) {
    std::vector<int64_t> ids;
    for (int64_t i = lo; i < hi; ++i) ids.push_back(i);
    return ids;
  }

  StorageEngine engine_;
  StorageSession session_{&engine_};
  Table* table_ = nullptr;
};

TEST_F(SlotCursorTest, RowInsertedAfterOpenIsNotServed) {
  std::unique_ptr<Rowset> rowset = Open();
  RowBatch batch;
  ASSERT_TRUE(rowset->NextBatch(&batch, 4).value());
  EXPECT_EQ(Ids(batch.rows), Range(0, 4));
  // Enough inserts to move the table's rows: the cursor re-reads its slot
  // on every call, so it keeps reading the rows below its bound.
  for (int i = 10; i < 1000; ++i) Insert(i);
  std::vector<Row> rest = DrainRowset(rowset.get()).value();
  EXPECT_EQ(Ids(rest), Range(4, 10));
}

TEST_F(SlotCursorTest, RowDeletedBeforeItsBatchIsNotServed) {
  std::unique_ptr<Rowset> rowset = Open();
  RowBatch batch;
  ASSERT_TRUE(rowset->NextBatch(&batch, 3).value());
  EXPECT_EQ(Ids(batch.rows), Range(0, 3));
  ASSERT_TRUE(table_->Delete(1).ok());  // Already served: no effect.
  ASSERT_TRUE(table_->Delete(4).ok());
  ASSERT_TRUE(table_->Delete(7).ok());
  ASSERT_TRUE(rowset->NextBatch(&batch, 3).value());
  EXPECT_EQ(Ids(batch.rows), (std::vector<int64_t>{3, 5, 6}));
  ASSERT_TRUE(rowset->NextBatch(&batch, 3).value());
  EXPECT_EQ(Ids(batch.rows), (std::vector<int64_t>{8, 9}));
  EXPECT_FALSE(rowset->NextBatch(&batch, 3).value());
  EXPECT_TRUE(batch.empty());
}

TEST_F(SlotCursorTest, RestartServesAgainUnderTheOpenTimeBound) {
  std::unique_ptr<Rowset> rowset = Open();
  EXPECT_EQ(DrainRowset(rowset.get())->size(), 10u);
  Insert(10);
  ASSERT_TRUE(table_->Delete(2).ok());
  ASSERT_TRUE(rowset->Restart().ok());
  std::vector<int64_t> want = {0, 1, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(Ids(DrainRowset(rowset.get()).value()), want);
  // A fresh Open takes a fresh bound.
  EXPECT_EQ(DrainRowset(Open().get())->size(), 10u);
}

TEST_F(SlotCursorTest, SkipRowsCountsLiveRowsAcrossTombstones) {
  for (int64_t id : {1, 2, 3, 6}) ASSERT_TRUE(table_->Delete(id).ok());
  std::unique_ptr<Rowset> rowset = Open();  // Live: 0 4 5 7 8 9.
  EXPECT_EQ(rowset->SkipRows(2).value(), 2);  // 0 and 4.
  Row row;
  ASSERT_TRUE(rowset->Next(&row).value());
  EXPECT_EQ(row[0].int64_value(), 5);
  ASSERT_TRUE(table_->Delete(8).ok());
  EXPECT_EQ(rowset->SkipRows(1).value(), 1);  // 7.
  EXPECT_EQ(rowset->SkipRows(5).value(), 1);  // 9, then end of data.
  EXPECT_EQ(rowset->SkipRows(5).value(), 0);
  EXPECT_FALSE(rowset->Next(&row).value());
}

TEST_F(SlotCursorTest, NextBatchIsEmptyOnlyAtEndOfData) {
  std::unique_ptr<Rowset> rowset = Open();
  RowBatch batch;
  // Every slot of the second batch is a tombstone: the batch reads on to
  // the next live row instead of coming back empty.
  for (int64_t id : {3, 4, 5, 6}) ASSERT_TRUE(table_->Delete(id).ok());
  ASSERT_TRUE(rowset->NextBatch(&batch, 3).value());
  EXPECT_EQ(Ids(batch.rows), Range(0, 3));
  ASSERT_TRUE(rowset->NextBatch(&batch, 3).value());
  EXPECT_EQ(Ids(batch.rows), Range(7, 10));
  // Only tombstones remain below the bound: end of data.
  ASSERT_TRUE(rowset->Restart().ok());
  ASSERT_TRUE(rowset->NextBatch(&batch, 3).value());
  EXPECT_EQ(Ids(batch.rows), Range(0, 3));
  for (int64_t id : {7, 8, 9}) ASSERT_TRUE(table_->Delete(id).ok());
  EXPECT_FALSE(rowset->NextBatch(&batch, 3).value());
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(rowset->NextBatch(&batch, 3).value());
}

TEST_F(SlotCursorTest, IndexRangeSkipsRowDeletedAfterOpen) {
  IndexRange range;
  range.lo = Value::Int64(2);
  range.hi = Value::Int64(6);
  auto ranged = session_.OpenIndexRange("t", "pk", range);
  ASSERT_TRUE(ranged.ok());
  ASSERT_TRUE(table_->Delete(4).ok());
  Insert(100);
  std::vector<int64_t> want = {2, 3, 5, 6};
  EXPECT_EQ(Ids(DrainRowset(ranged->get()).value()), want);
}

TEST(StorageSessionTest, NotFoundErrors) {
  StorageEngine engine;
  StorageSession session(&engine);
  EXPECT_EQ(session.OpenRowset("missing").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(engine.CreateTable("t", TwoCol()).ok());
  IndexRange range;
  EXPECT_EQ(session.OpenIndexRange("t", "noidx", range).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(
      session.FetchByBookmark("t", Value::String("bad")).ok());
}

}  // namespace
}  // namespace dhqp
