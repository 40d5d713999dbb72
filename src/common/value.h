#ifndef DHQP_COMMON_VALUE_H_
#define DHQP_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "src/common/status.h"

namespace dhqp {

/// Column/scalar data types supported by the engine and the provider rowset
/// model. Deliberately small: enough for the paper's workloads (TPC-H/TPC-C
/// style relational data, dates, document text).
enum class DataType {
  kNull = 0,  ///< The type of an untyped NULL literal.
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,  ///< Days since 1970-01-01 (proleptic Gregorian), stored as int32.
};

/// Returns a stable lowercase name ("int64", "string", ...).
const char* DataTypeName(DataType type);

/// A dynamically typed scalar value flowing through rowsets and expression
/// evaluation. SQL NULL is represented by is_null(); a null Value still
/// remembers its declared type when known.
class Value {
 public:
  /// NULL of unknown type.
  Value() : type_(DataType::kNull), null_(true) {}

  static Value Null(DataType type = DataType::kNull) {
    Value v;
    v.type_ = type;
    return v;
  }
  static Value Bool(bool b) { return Value(DataType::kBool, Rep(b)); }
  static Value Int64(int64_t i) { return Value(DataType::kInt64, Rep(i)); }
  static Value Double(double d) { return Value(DataType::kDouble, Rep(d)); }
  static Value String(std::string s) {
    return Value(DataType::kString, Rep(std::move(s)));
  }
  /// A date expressed as days since 1970-01-01.
  static Value Date(int64_t days) {
    Value v(DataType::kDate, Rep(days));
    return v;
  }

  DataType type() const { return type_; }
  bool is_null() const { return null_; }

  bool bool_value() const { return std::get<bool>(rep_); }
  int64_t int64_value() const { return std::get<int64_t>(rep_); }
  double double_value() const { return std::get<double>(rep_); }
  const std::string& string_value() const { return std::get<std::string>(rep_); }
  /// Days since epoch for kDate values.
  int64_t date_value() const { return std::get<int64_t>(rep_); }

  /// Numeric view of an int64/double/date/bool value (for arithmetic and
  /// histogram bucketing). Precondition: !is_null() and numeric-ish type.
  double AsDouble() const;

  /// Total ordering used by sorting, B+-tree keys and interval endpoints.
  /// NULL sorts before all non-NULL values; cross-type numeric comparisons
  /// (int64 vs double) compare numerically. Comparing incompatible types
  /// (e.g. string vs int) orders by type id, which keeps containers total.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable hash consistent with operator== for same-typed values.
  size_t Hash() const;

  /// Rendering for diagnostics and for the SQL decoder's literal printing
  /// (strings are NOT quoted here; the decoder handles dialect quoting).
  std::string ToString() const;

  /// Approximate wire size in bytes, used by the network simulator to
  /// account for shipped data volume.
  size_t WireSize() const;

  /// Casts this value to `target`, following SQL semantics for the supported
  /// conversions (numeric widening/narrowing, string parse, date<->int64).
  /// A double outside the int64 range, or NaN, fails to cast to int64 with
  /// an "arithmetic overflow" execution error.
  Result<Value> CastTo(DataType target) const;

 private:
  using Rep = std::variant<bool, int64_t, double, std::string>;
  Value(DataType type, Rep rep)
      : type_(type), null_(false), rep_(std::move(rep)) {}

  DataType type_;
  bool null_;
  Rep rep_;
};

}  // namespace dhqp

#endif  // DHQP_COMMON_VALUE_H_
