// Unit tests for the common layer: Status/Result, Value, dates.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/common/date.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace dhqp {
namespace {

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::OK().ok());
  Status err = Status::NotFound("missing thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok_result = 42;
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);

  Result<int> err_result = Status::InvalidArgument("bad");
  ASSERT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MacroPropagation) {
  auto inner = []() -> Result<int> { return Status::NotFound("x"); };
  auto outer = [&]() -> Result<int> {
    DHQP_ASSIGN_OR_RETURN(int v, inner());
    return v + 1;
  };
  EXPECT_EQ(outer().status().code(), StatusCode::kNotFound);
}

TEST(ValueTest, NullOrderingAndEquality) {
  Value null = Value::Null();
  Value one = Value::Int64(1);
  EXPECT_TRUE(null < one);
  EXPECT_TRUE(null == Value::Null(DataType::kInt64));
  EXPECT_EQ(null.ToString(), "NULL");
}

TEST(ValueTest, CrossNumericComparison) {
  EXPECT_EQ(Value::Int64(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int64(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int64(3)), 0);
  // Large integers compare exactly (no double rounding).
  int64_t big = (1ll << 62) + 1;
  EXPECT_GT(Value::Int64(big).Compare(Value::Int64(big - 1)), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  // Pairs that compare equal only through the double an int64 rounds to,
  // an integral double at or past 1e18, and the two zeros.
  const int64_t two53 = int64_t{1} << 53;
  const std::pair<Value, Value> equal_pairs[] = {
      {Value::Int64(two53 + 1), Value::Double(static_cast<double>(two53))},
      {Value::Int64(two53), Value::Double(static_cast<double>(two53))},
      {Value::Int64(1000000000000000000), Value::Double(1e18)},
      {Value::Int64(-1000000000000000000), Value::Double(-1e18)},
      {Value::Int64(INT64_MAX), Value::Double(0x1p63)},
      {Value::Int64(INT64_MIN), Value::Double(-0x1p63)},
      {Value::Double(0.0), Value::Double(-0.0)},
      {Value::Int64(0), Value::Double(-0.0)},
  };
  for (const auto& [a, b] : equal_pairs) {
    ASSERT_EQ(a.Compare(b), 0) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
  }
  // Integers within 2^53 and strings keep the hash they always had, so
  // their exchange routing does not move.
  for (int64_t v : {int64_t{0}, int64_t{-7}, two53, -two53, int64_t{123456}}) {
    EXPECT_EQ(Value::Int64(v).Hash(), std::hash<int64_t>()(v));
  }
  EXPECT_EQ(Value::String("abc").Hash(), std::hash<std::string>()("abc"));
}

TEST(ValueTest, Casts) {
  EXPECT_EQ(Value::String("123").CastTo(DataType::kInt64)->int64_value(), 123);
  EXPECT_EQ(Value::Int64(1).CastTo(DataType::kBool)->bool_value(), true);
  EXPECT_EQ(Value::String("2001-02-03").CastTo(DataType::kDate)->date_value(),
            CivilToDays(2001, 2, 3));
  EXPECT_FALSE(Value::String("nope").CastTo(DataType::kInt64).ok());
  // NULL casts stay NULL with the target type.
  Value v = *Value::Null().CastTo(DataType::kDouble);
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kDouble);
}

TEST(DateTest, RoundTripKnownDates) {
  EXPECT_EQ(CivilToDays(1970, 1, 1), 0);
  EXPECT_EQ(CivilToDays(1970, 1, 2), 1);
  EXPECT_EQ(CivilToDays(1969, 12, 31), -1);
  EXPECT_EQ(DaysToIsoDate(CivilToDays(2004, 11, 15)), "2004-11-15");
  EXPECT_EQ(*ParseIsoDate("1992-02-29"), CivilToDays(1992, 2, 29));
  EXPECT_FALSE(ParseIsoDate("not-a-date").ok());
  EXPECT_FALSE(ParseIsoDate("1992-13-01").ok());
}

// Property: DaysToCivil inverts CivilToDays across a wide range.
TEST(DateTest, RoundTripProperty) {
  Rng rng(123);
  for (int i = 0; i < 2000; ++i) {
    int64_t days = rng.Uniform(-200000, 200000);
    int y, m, d;
    DaysToCivil(days, &y, &m, &d);
    EXPECT_EQ(CivilToDays(y, m, d), days);
    EXPECT_GE(m, 1);
    EXPECT_LE(m, 12);
    EXPECT_GE(d, 1);
    EXPECT_LE(d, 31);
  }
}

TEST(RngTest, DeterministicAndBounded) {
  Rng a(9), b(9);
  for (int i = 0; i < 100; ++i) {
    int64_t x = a.Uniform(5, 10);
    EXPECT_EQ(x, b.Uniform(5, 10));
    EXPECT_GE(x, 5);
    EXPECT_LE(x, 10);
  }
}

TEST(ZipfTest, SkewsTowardLowRanks) {
  ZipfGenerator zipf(1000, 1.1, 77);
  int64_t low = 0, total = 20000;
  for (int64_t i = 0; i < total; ++i) {
    if (zipf.Next() <= 10) ++low;
  }
  // With theta=1.1 the top-10 ranks dominate.
  EXPECT_GT(low, total / 4);
}

}  // namespace
}  // namespace dhqp
