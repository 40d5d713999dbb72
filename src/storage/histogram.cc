#include "src/storage/histogram.h"

#include <algorithm>

namespace dhqp {

Result<ColumnStatistics> BuildColumnStatistics(const Table& table,
                                               const std::string& column,
                                               int max_buckets) {
  int ord = table.schema().FindColumn(column);
  if (ord < 0) {
    return Status::NotFound("statistics column '" + column +
                            "' not found on table " + table.name());
  }
  ColumnStatistics stats;
  stats.column = column;

  // Reads the one column in place; only its non-null values are copied.
  std::vector<Value> values;
  values.reserve(table.live_row_count());
  for (size_t slot = 0; slot < table.num_slots(); ++slot) {
    const Row* row = table.SlotRow(slot);
    if (row == nullptr) continue;
    const Value& v = (*row)[static_cast<size_t>(ord)];
    if (v.is_null()) {
      stats.null_count += 1;
    } else {
      values.push_back(v);
    }
  }
  stats.row_count = static_cast<double>(table.live_row_count());
  std::sort(values.begin(), values.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });

  // Count distinct values.
  for (size_t i = 0; i < values.size(); ++i) {
    if (i == 0 || values[i].Compare(values[i - 1]) != 0) {
      stats.distinct_count += 1;
    }
  }
  if (values.empty()) return stats;

  // Equi-depth bucketing: target ~n/max_buckets rows per bucket, but never
  // split a run of equal values across a boundary (the boundary value's
  // exact frequency is recorded in upper_row_count, as in SQL Server's
  // histogram format).
  size_t target = std::max<size_t>(1, values.size() / static_cast<size_t>(
                                          std::max(max_buckets, 1)));
  size_t i = 0;
  while (i < values.size()) {
    size_t end = std::min(values.size(), i + target);
    // Extend to cover the whole run of the boundary value.
    while (end < values.size() &&
           values[end].Compare(values[end - 1]) == 0) {
      ++end;
    }
    HistogramBucket bucket;
    bucket.upper = values[end - 1];
    bucket.row_count = static_cast<double>(end - i);
    for (size_t j = i; j < end; ++j) {
      if (j == i || values[j].Compare(values[j - 1]) != 0) {
        bucket.distinct_count += 1;
      }
      if (values[j].Compare(bucket.upper) == 0) bucket.upper_row_count += 1;
    }
    stats.buckets.push_back(std::move(bucket));
    i = end;
  }
  return stats;
}

}  // namespace dhqp
