#include "src/storage/table.h"

namespace dhqp {

Status Table::AddCheckConstraint(CheckConstraint check) {
  int ord = schema_.FindColumn(check.column);
  if (ord < 0) {
    return Status::NotFound("CHECK references unknown column '" +
                            check.column + "' on table " + name_);
  }
  for (size_t id = 0; id < rows_.size(); ++id) {
    if (deleted_[id]) continue;
    const Value& v = rows_[id][static_cast<size_t>(ord)];
    if (!v.is_null() && !check.domain.Contains(v)) {
      return Status::ConstraintViolation(
          "existing row violates CHECK '" + check.definition + "' on table " +
          name_);
    }
  }
  checks_.push_back(std::move(check));
  return Status::OK();
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::vector<std::string>& key_columns,
                          bool unique) {
  if (FindIndex(index_name) != nullptr) {
    return Status::AlreadyExists("index '" + index_name + "' already exists");
  }
  auto index = std::make_unique<TableIndex>();
  index->name = index_name;
  index->unique = unique;
  for (const std::string& col : key_columns) {
    int ord = schema_.FindColumn(col);
    if (ord < 0) {
      return Status::NotFound("index key column '" + col +
                              "' not found on table " + name_);
    }
    index->key_ordinals.push_back(ord);
  }
  index->tree = std::make_unique<BTree>();
  for (size_t id = 0; id < rows_.size(); ++id) {
    if (deleted_[id]) continue;
    IndexKey key = MakeKey(*index, rows_[id]);
    if (unique && index->tree->Contains(key)) {
      return Status::ConstraintViolation("duplicate key building unique index '" +
                                         index_name + "'");
    }
    index->tree->Insert(key, static_cast<int64_t>(id));
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

TableIndex* Table::FindIndex(const std::string& index_name) {
  for (auto& idx : indexes_) {
    if (EqualsIgnoreCase(idx->name, index_name)) return idx.get();
  }
  return nullptr;
}

IndexKey Table::MakeKey(const TableIndex& index, const Row& row) {
  IndexKey key;
  key.reserve(index.key_ordinals.size());
  for (int ord : index.key_ordinals) key.push_back(row[static_cast<size_t>(ord)]);
  return key;
}

Status Table::ValidateRow(const Row& row, Row* normalized) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(schema_.num_columns()) + " for table " + name_);
  }
  normalized->clear();
  normalized->reserve(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = schema_.column(i);
    if (row[i].is_null()) {
      if (!col.nullable) {
        return Status::ConstraintViolation("column '" + col.name +
                                           "' is NOT NULL");
      }
      normalized->push_back(Value::Null(col.type));
      continue;
    }
    DHQP_ASSIGN_OR_RETURN(Value v, row[i].CastTo(col.type));
    normalized->push_back(std::move(v));
  }
  for (const CheckConstraint& check : checks_) {
    int ord = schema_.FindColumn(check.column);
    const Value& v = (*normalized)[static_cast<size_t>(ord)];
    if (!v.is_null() && !check.domain.Contains(v)) {
      return Status::ConstraintViolation("CHECK '" + check.definition +
                                         "' violated on table " + name_);
    }
  }
  return Status::OK();
}

Result<int64_t> Table::Insert(const Row& row) {
  Row normalized;
  DHQP_RETURN_NOT_OK(ValidateRow(row, &normalized));
  for (auto& idx : indexes_) {
    if (!idx->unique) continue;
    IndexKey key = MakeKey(*idx, normalized);
    if (idx->tree->Contains(key)) {
      return Status::ConstraintViolation("duplicate key in unique index '" +
                                         idx->name + "' on table " + name_);
    }
  }
  int64_t row_id = static_cast<int64_t>(rows_.size());
  for (auto& idx : indexes_) {
    idx->tree->Insert(MakeKey(*idx, normalized), row_id);
  }
  rows_.push_back(std::move(normalized));
  deleted_.push_back(false);
  ++live_count_;
  return row_id;
}

Status Table::Delete(int64_t row_id) {
  if (row_id < 0 || static_cast<size_t>(row_id) >= rows_.size() ||
      deleted_[static_cast<size_t>(row_id)]) {
    return Status::NotFound("row id " + std::to_string(row_id) +
                            " not found in table " + name_);
  }
  const Row& row = rows_[static_cast<size_t>(row_id)];
  for (auto& idx : indexes_) {
    idx->tree->Erase(MakeKey(*idx, row), row_id);
  }
  deleted_[static_cast<size_t>(row_id)] = true;
  --live_count_;
  return Status::OK();
}

const Row* Table::GetRow(int64_t row_id) const {
  if (row_id < 0 || static_cast<size_t>(row_id) >= rows_.size()) {
    return nullptr;
  }
  return SlotRow(static_cast<size_t>(row_id));
}

void Table::ScanLive(std::vector<std::pair<int64_t, Row>>* out) const {
  out->reserve(out->size() + live_count_);
  for (size_t id = 0; id < rows_.size(); ++id) {
    if (!deleted_[id]) out->emplace_back(static_cast<int64_t>(id), rows_[id]);
  }
}

TableMetadata Table::Metadata() const {
  TableMetadata meta;
  meta.name = name_;
  meta.schema = schema_;
  meta.cardinality = static_cast<double>(live_count_);
  for (const auto& idx : indexes_) {
    IndexMetadata im;
    im.name = idx->name;
    im.unique = idx->unique;
    for (int ord : idx->key_ordinals) {
      im.key_columns.push_back(schema_.column(static_cast<size_t>(ord)).name);
    }
    meta.indexes.push_back(std::move(im));
  }
  meta.checks = checks_;
  return meta;
}

}  // namespace dhqp
