#include "src/provider/provider.h"

#include <algorithm>
#include <iterator>

namespace dhqp {

Result<bool> Rowset::Next(Row* out) {
  RowBatch one;
  DHQP_ASSIGN_OR_RETURN(bool has, NextBatch(&one, 1));
  if (has) *out = std::move(one.rows[0]);
  return has;
}

Result<int64_t> Rowset::SkipRows(int64_t n) {
  RowBatch discard;
  int64_t skipped = 0;
  while (skipped < n) {
    const int64_t want = std::min<int64_t>(n - skipped, kProviderBlockRows);
    DHQP_ASSIGN_OR_RETURN(bool has,
                          NextBatch(&discard, static_cast<int>(want)));
    if (!has) break;
    skipped += static_cast<int64_t>(discard.size());
  }
  return skipped;
}

Result<std::vector<Row>> DrainRowset(Rowset* rowset) {
  std::vector<Row> rows;
  RowBatch batch;
  while (true) {
    DHQP_ASSIGN_OR_RETURN(bool has,
                          rowset->NextBatch(&batch, kProviderBlockRows));
    if (!has) break;
    rows.insert(rows.end(), std::make_move_iterator(batch.rows.begin()),
                std::make_move_iterator(batch.rows.end()));
  }
  return rows;
}

std::string IndexRange::ToString() const {
  std::string out = "prefix=(";
  for (size_t i = 0; i < eq_prefix.size(); ++i) {
    if (i) out += ",";
    out += eq_prefix[i].ToString();
  }
  out += ")";
  if (lo) {
    out += lo_inclusive ? " [" : " (";
    out += lo->ToString();
  } else {
    out += " (-inf";
  }
  out += ", ";
  if (hi) {
    out += hi->ToString();
    out += hi_inclusive ? "]" : ")";
  } else {
    out += "+inf)";
  }
  return out;
}

Result<TableMetadata> Session::GetTableMetadata(const std::string& table) {
  DHQP_ASSIGN_OR_RETURN(std::vector<TableMetadata> tables, ListTables());
  for (TableMetadata& t : tables) {
    if (EqualsIgnoreCase(t.name, table)) return std::move(t);
  }
  return Status::NotFound("table '" + table + "' not found in provider");
}

}  // namespace dhqp
