// Network simulation tests: link accounting, batch charging, and the
// federation workload harness (TPC-C-lite over 2PC).

#include "src/workloads/tpcc.h"
#include "tests/test_util.h"

namespace dhqp {
namespace {

TEST(LinkTest, MessageAndRowAccounting) {
  net::Link link("test");
  link.ChargeMessage(100);
  link.ChargeRows(10, 250);
  EXPECT_EQ(link.stats().messages, 1);
  EXPECT_EQ(link.stats().rows, 10);
  EXPECT_EQ(link.stats().bytes, 350);
  link.ResetStats();
  EXPECT_EQ(link.stats().messages, 0);
}

TEST(LinkTest, EnforcedDelayIsMeasurable) {
  net::Link link("slow", /*latency_us=*/200, /*us_per_kb=*/0,
                 /*enforce_delays=*/true);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) link.ChargeMessage(10);
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_GE(elapsed, 5 * 200);
}

TEST(LinkTest, LinkedRowsetChargesBatches) {
  Schema schema;
  schema.AddColumn(ColumnDef{"a", DataType::kInt64, false});
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) rows.push_back({Value::Int64(i)});
  net::Link link("l");
  net::LinkedRowset rowset(
      std::make_unique<VectorRowset>(schema, rows), &link, /*batch_rows=*/64);
  auto drained = DrainRowset(&rowset);
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->size(), 200u);
  EXPECT_EQ(link.stats().rows, 200);
  // 200 rows at batch 64 -> 4 messages (3 full + 1 final partial).
  EXPECT_EQ(link.stats().messages, 4);
  EXPECT_GT(link.stats().bytes, 0);
}

TEST(LinkTest, NextBatchChargesOneMessagePerBatch) {
  Schema schema;
  schema.AddColumn(ColumnDef{"a", DataType::kInt64, false});
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) rows.push_back({Value::Int64(i)});
  net::Link link("l");
  net::LinkedRowset rowset(
      std::make_unique<VectorRowset>(schema, rows), &link, /*batch_rows=*/64);

  RowBatch batch;
  int batches = 0;
  int64_t total_rows = 0;
  while (true) {
    auto has = rowset.NextBatch(&batch, 64);
    ASSERT_TRUE(has.ok()) << has.status().ToString();
    if (!*has) break;
    ++batches;
    total_rows += static_cast<int64_t>(batch.size());
    // One block fetch == exactly one round trip.
    EXPECT_EQ(link.stats().messages, batches);
  }
  // 200 rows at batch 64 -> 3 full + 1 final partial batch.
  EXPECT_EQ(batches, 4);
  EXPECT_EQ(total_rows, 200);
  EXPECT_EQ(link.stats().rows, 200);
  EXPECT_EQ(link.stats().messages, 4);
}

TEST(LinkTest, NextBatchByteAccountingMatchesWireSize) {
  Schema schema;
  schema.AddColumn(ColumnDef{"a", DataType::kInt64, false});
  schema.AddColumn(ColumnDef{"s", DataType::kString, false});
  std::vector<Row> rows;
  size_t expected_bytes = 0;
  for (int i = 0; i < 10; ++i) {
    Row row{Value::Int64(i), Value::String("payload-" + std::to_string(i))};
    expected_bytes += RowWireSize(row);
    rows.push_back(std::move(row));
  }
  net::Link link("l");
  net::LinkedRowset rowset(
      std::make_unique<VectorRowset>(schema, rows), &link, /*batch_rows=*/64);

  RowBatch batch;
  auto has = rowset.NextBatch(&batch, 100);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  EXPECT_EQ(batch.size(), 10u);
  EXPECT_EQ(link.stats().bytes, static_cast<int64_t>(expected_bytes));
  has = rowset.NextBatch(&batch, 100);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
  // End of stream adds no extra message.
  EXPECT_EQ(link.stats().messages, 1);
}

TEST(LinkTest, MixedNextAndNextBatchSettlesPartialBatch) {
  Schema schema;
  schema.AddColumn(ColumnDef{"a", DataType::kInt64, false});
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value::Int64(i)});
  net::Link link("l");
  net::LinkedRowset rowset(
      std::make_unique<VectorRowset>(schema, rows), &link, /*batch_rows=*/64);

  // The first row-at-a-time pull fetches and charges a provider block (up
  // to 64 rows: all 10 here) before it hands on any row...
  Row row;
  for (int i = 0; i < 3; ++i) {
    auto has = rowset.Next(&row);
    ASSERT_TRUE(has.ok());
    ASSERT_TRUE(*has);
  }
  EXPECT_EQ(link.stats().messages, 1);
  EXPECT_EQ(link.stats().rows, 10);
  // ...then a block fetch serves the rest of that paid block without
  // another round trip, so every row lands in exactly one message.
  RowBatch batch;
  auto has = rowset.NextBatch(&batch, 100);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  EXPECT_EQ(batch.size(), 7u);
  EXPECT_EQ(link.stats().messages, 1);
  has = rowset.NextBatch(&batch, 100);
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
  EXPECT_EQ(link.stats().rows, 10);
  EXPECT_EQ(link.stats().messages, 1);  // End of stream adds nothing.
}

TEST(TpccFederationTest, NewOrderRoutesAndCommits) {
  workloads::TpccOptions options;
  options.num_members = 3;
  options.warehouses_per_member = 2;
  options.customers_per_warehouse = 20;
  auto fed = workloads::BuildTpccFederation(options);
  ASSERT_TRUE(fed.ok()) << fed.status().ToString();

  TransactionCoordinator dtc;
  // Warehouse 3 lives on member 1 ((3-1)/2 = 1).
  auto order = (*fed)->NewOrder(&dtc, /*warehouse=*/3, /*customer=*/7,
                                /*order_id=*/500);
  ASSERT_TRUE(order.ok()) << order.status().ToString();

  QueryResult check = MustExecute(
      (*fed)->members[1].get(),
      "SELECT COUNT(*) FROM orders WHERE o_id = 500 AND w_id = 3");
  EXPECT_EQ(RowsToString(check), "(1)");
  // Other members untouched.
  check = MustExecute((*fed)->members[0].get(),
                      "SELECT COUNT(*) FROM orders");
  EXPECT_EQ(RowsToString(check), "(0)");

  // The partitioned-view read pruned the other members at startup.
  QueryResult lookup = MustExecute(
      (*fed)->coordinator.get(),
      "SELECT c_balance FROM customers_all WHERE w_id = @w AND c_id = @c",
      {{"@w", Value::Int64(3)}, {"@c", Value::Int64(7)}});
  EXPECT_EQ(lookup.exec_stats.startup_skips, 2);
}

TEST(TpccFederationTest, UnknownCustomerFails) {
  workloads::TpccOptions options;
  options.num_members = 2;
  options.customers_per_warehouse = 5;
  auto fed = workloads::BuildTpccFederation(options);
  ASSERT_TRUE(fed.ok());
  TransactionCoordinator dtc;
  auto missing = (*fed)->NewOrder(&dtc, 1, 9999, 1);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dhqp
