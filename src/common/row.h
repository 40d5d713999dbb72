#ifndef DHQP_COMMON_ROW_H_
#define DHQP_COMMON_ROW_H_

#include <string>
#include <vector>

#include "src/common/value.h"

namespace dhqp {

/// A tuple of scalar values, positionally aligned with some Schema.
using Row = std::vector<Value>;

/// Renders a row as "(v1, v2, ...)" for diagnostics and test expectations.
inline std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

/// Approximate wire size of a row (sum of value wire sizes), used for
/// network traffic accounting.
inline size_t RowWireSize(const Row& row) {
  size_t n = 4;  // per-row framing
  for (const Value& v : row) n += v.WireSize();
  return n;
}

/// Combined hash of selected key columns; a repartitioning exchange routes
/// each row to a consumer by it.
inline size_t HashRowKeys(const Row& row, const std::vector<int>& keys) {
  size_t h = 0x345678;
  for (int k : keys) {
    h = h * 1000003 ^ row[static_cast<size_t>(k)].Hash();
  }
  return h;
}

}  // namespace dhqp

#endif  // DHQP_COMMON_ROW_H_
