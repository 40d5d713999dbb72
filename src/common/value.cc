#include "src/common/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>

#include "src/common/date.h"

namespace dhqp {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kNull:
      return "null";
    case DataType::kBool:
      return "bool";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kDate:
      return "date";
  }
  return "unknown";
}

namespace {

// Rank used to order values of incomparable types so containers keyed on
// Value still have a total order.
int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
    case DataType::kDate:
      return 2;  // All numerics compare in one family.
    case DataType::kString:
      return 3;
  }
  return 4;
}

}  // namespace

double Value::AsDouble() const {
  switch (type_) {
    case DataType::kBool:
      return bool_value() ? 1.0 : 0.0;
    case DataType::kInt64:
      return static_cast<double>(int64_value());
    case DataType::kDouble:
      return double_value();
    case DataType::kDate:
      return static_cast<double>(date_value());
    default:
      return 0.0;
  }
}

int Value::Compare(const Value& other) const {
  if (null_ || other.null_) {
    if (null_ && other.null_) return 0;
    return null_ ? -1 : 1;
  }
  int lr = TypeRank(type_), rr = TypeRank(other.type_);
  if (lr != rr) return lr < rr ? -1 : 1;
  switch (type_) {
    case DataType::kBool: {
      if (other.type_ != DataType::kBool) break;
      bool a = bool_value(), b = other.bool_value();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case DataType::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      break;
  }
  // Numeric family (int64 / double / date). Compare exactly when both are
  // integral to avoid double rounding on large keys.
  bool both_integral = type_ != DataType::kDouble &&
                       other.type_ != DataType::kDouble;
  if (both_integral) {
    int64_t a = std::get<int64_t>(rep_);
    int64_t b = std::get<int64_t>(other.rep_);
    return a == b ? 0 : (a < b ? -1 : 1);
  }
  double a = AsDouble(), b = other.AsDouble();
  return a == b ? 0 : (a < b ? -1 : 1);
}

size_t Value::Hash() const {
  if (null_) return 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case DataType::kBool:
      return std::hash<bool>()(bool_value());
    case DataType::kString:
      return std::hash<std::string>()(string_value());
    case DataType::kDouble: {
      double d = double_value();
      // Hash integral doubles like their int64 counterparts so that
      // cross-type join keys (int vs double) collide as they compare equal.
      if (d == std::floor(d) && std::abs(d) < 1e18) {
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      }
      return std::hash<double>()(d);
    }
    case DataType::kInt64:
    case DataType::kDate:
      return std::hash<int64_t>()(std::get<int64_t>(rep_));
    default:
      return 0;
  }
}

std::string Value::ToString() const {
  if (null_) return "NULL";
  switch (type_) {
    case DataType::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case DataType::kInt64:
      return std::to_string(int64_value());
    case DataType::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", double_value());
      return buf;
    }
    case DataType::kString:
      return string_value();
    case DataType::kDate:
      return DaysToIsoDate(date_value());
    default:
      return "NULL";
  }
}

size_t Value::WireSize() const {
  if (null_) return 1;
  switch (type_) {
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
    case DataType::kDate:
      return 8;
    case DataType::kString:
      return 4 + string_value().size();
    default:
      return 1;
  }
}

Result<Value> Value::CastTo(DataType target) const {
  if (null_) return Value::Null(target);
  if (type_ == target) return *this;
  switch (target) {
    case DataType::kBool:
      switch (type_) {
        case DataType::kInt64:
          return Value::Bool(int64_value() != 0);
        case DataType::kDouble:
          return Value::Bool(double_value() != 0.0);
        default:
          break;
      }
      break;
    case DataType::kInt64:
      switch (type_) {
        case DataType::kBool:
          return Value::Int64(bool_value() ? 1 : 0);
        case DataType::kDouble: {
          // Only [-2^63, 2^63) truncates to an int64; a NaN, an infinity
          // or anything else out of range has no int64 value.
          const double d = double_value();
          if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
            return Status::ExecutionError("arithmetic overflow");
          }
          return Value::Int64(static_cast<int64_t>(d));
        }
        case DataType::kDate:
          return Value::Int64(date_value());
        case DataType::kString: {
          int64_t out = 0;
          const std::string& s = string_value();
          auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
          if (ec == std::errc() && p == s.data() + s.size()) {
            return Value::Int64(out);
          }
          break;
        }
        default:
          break;
      }
      break;
    case DataType::kDouble:
      switch (type_) {
        case DataType::kBool:
          return Value::Double(bool_value() ? 1.0 : 0.0);
        case DataType::kInt64:
          return Value::Double(static_cast<double>(int64_value()));
        case DataType::kDate:
          return Value::Double(static_cast<double>(date_value()));
        case DataType::kString: {
          try {
            size_t pos = 0;
            double d = std::stod(string_value(), &pos);
            if (pos == string_value().size()) return Value::Double(d);
          } catch (...) {
          }
          break;
        }
        default:
          break;
      }
      break;
    case DataType::kString:
      return Value::String(ToString());
    case DataType::kDate:
      switch (type_) {
        case DataType::kInt64:
          return Value::Date(int64_value());
        case DataType::kString: {
          auto days = ParseIsoDate(string_value());
          if (days.ok()) return Value::Date(*days);
          return days.status();
        }
        default:
          break;
      }
      break;
    default:
      break;
  }
  return Status::InvalidArgument(std::string("cannot cast ") +
                                 DataTypeName(type_) + " to " +
                                 DataTypeName(target));
}

}  // namespace dhqp
