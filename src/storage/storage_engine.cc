#include "src/storage/storage_engine.h"

#include "src/storage/histogram.h"

namespace dhqp {

Result<Table*> StorageEngine::CreateTable(const std::string& name,
                                          Schema schema) {
  std::string key = ToLowerCopy(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  auto table = std::make_unique<Table>(name, std::move(schema));
  Table* ptr = table.get();
  tables_[key] = std::move(table);
  return ptr;
}

Result<Table*> StorageEngine::GetTable(const std::string& name) const {
  auto it = tables_.find(ToLowerCopy(name));
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not found");
  }
  return it->second.get();
}

bool StorageEngine::HasTable(const std::string& name) const {
  return tables_.count(ToLowerCopy(name)) > 0;
}

Status StorageEngine::DropTable(const std::string& name) {
  if (tables_.erase(ToLowerCopy(name)) == 0) {
    return Status::NotFound("table '" + name + "' not found");
  }
  return Status::OK();
}

std::vector<std::string> StorageEngine::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

Result<StorageEngine::TxnState*> StorageEngine::GetTxn(int64_t txn_id) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) {
    return Status::NotFound("transaction " + std::to_string(txn_id) +
                            " not active");
  }
  return &it->second;
}

Result<int64_t> StorageEngine::InsertRow(int64_t txn_id,
                                         const std::string& table,
                                         const Row& row) {
  DHQP_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  DHQP_ASSIGN_OR_RETURN(int64_t row_id, t->Insert(row));
  if (txn_id >= 0) {
    DHQP_ASSIGN_OR_RETURN(TxnState * txn, GetTxn(txn_id));
    txn->undo.push_back(
        UndoAction{UndoAction::kUndoInsert, t->name(), row_id, {}});
  }
  return row_id;
}

Status StorageEngine::DeleteRow(int64_t txn_id, const std::string& table,
                                int64_t row_id) {
  DHQP_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  const Row* row = t->GetRow(row_id);
  if (row == nullptr) {
    return Status::NotFound("row " + std::to_string(row_id) + " not found");
  }
  Row saved = *row;
  DHQP_RETURN_NOT_OK(t->Delete(row_id));
  if (txn_id >= 0) {
    DHQP_ASSIGN_OR_RETURN(TxnState * txn, GetTxn(txn_id));
    txn->undo.push_back(UndoAction{UndoAction::kUndoDelete, t->name(), row_id,
                                   std::move(saved)});
  }
  return Status::OK();
}

Status StorageEngine::Begin(int64_t txn_id) {
  if (txns_.count(txn_id) > 0) {
    return Status::AlreadyExists("transaction " + std::to_string(txn_id) +
                                 " already active");
  }
  txns_[txn_id] = TxnState{};
  return Status::OK();
}

Status StorageEngine::Prepare(int64_t txn_id) {
  DHQP_ASSIGN_OR_RETURN(TxnState * txn, GetTxn(txn_id));
  if (failure_.fail_on_prepare) {
    return Status::TransactionAborted("participant voted no at prepare");
  }
  txn->prepared = true;
  return Status::OK();
}

Status StorageEngine::Commit(int64_t txn_id) {
  DHQP_ASSIGN_OR_RETURN(TxnState * txn, GetTxn(txn_id));
  (void)txn;
  if (failure_.fail_on_commit) {
    return Status::NetworkError("participant unreachable at commit");
  }
  txns_.erase(txn_id);  // Writes are already applied; drop the undo log.
  return Status::OK();
}

Status StorageEngine::Abort(int64_t txn_id) {
  DHQP_ASSIGN_OR_RETURN(TxnState * txn, GetTxn(txn_id));
  // Undo in reverse order.
  for (auto it = txn->undo.rbegin(); it != txn->undo.rend(); ++it) {
    Table* t = GetTable(it->table).value();
    if (it->kind == UndoAction::kUndoInsert) {
      // Row may have been deleted later in the same txn; ignore NotFound.
      (void)t->Delete(it->row_id);
    } else {
      // Re-insert the saved image (gets a fresh row id).
      (void)t->Insert(it->row);
    }
  }
  txns_.erase(txn_id);
  return Status::OK();
}

Result<ColumnStatistics> StorageEngine::GetStatistics(
    const std::string& table, const std::string& column) {
  DHQP_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  std::string key = ToLowerCopy(table) + '\0' + ToLowerCopy(column);
  auto it = stats_cache_.find(key);
  if (it != stats_cache_.end() &&
      it->second.live_count == t->live_row_count()) {
    return it->second.stats;
  }
  DHQP_ASSIGN_OR_RETURN(ColumnStatistics stats,
                        BuildColumnStatistics(*t, column));
  stats_cache_[key] = StatsCacheEntry{t->live_row_count(), stats};
  return stats;
}

// ---------------------------------------------------------------------------
// Provider surface.
// ---------------------------------------------------------------------------

StorageDataSource::StorageDataSource(StorageEngine* engine) : engine_(engine) {
  caps_.provider_name = "DHQP.Storage";
  caps_.source_type = "Local storage engine";
  caps_.query_language = "none (rowset navigation)";
  caps_.sql_support = SqlSupportLevel::kNone;
  caps_.supports_command = false;
  caps_.supports_indexes = true;
  caps_.supports_bookmarks = true;
  caps_.supports_histograms = true;
  caps_.supports_schema_rowset = true;
  caps_.supports_transactions = true;
}

Result<std::unique_ptr<Session>> StorageDataSource::CreateSession() {
  return std::unique_ptr<Session>(new StorageSession(engine_));
}

namespace {

// A base-table rowset: a cursor over the table's slots, like an OLE DB
// rowset binding row handles through accessors (§3.2), not a snapshot. It
// walks positions [0, end_), fixed at Open: every slot below num_slots() for
// a scan, or the row ids a B-tree range returned. It copies only the live
// rows it serves, and with a row filter installed only those the filter
// passes, which it runs over the table's own row vector. Each call re-reads
// the slots it gathers and keeps no row reference between calls, so a row
// inserted after Open is never served, a row deleted before it is gathered
// is neither filtered nor served, and a same-thread Insert that moves the
// table's rows is safe (DESIGN.md §5 states the rule).
class SlotCursor : public Rowset {
 public:
  /// Scans every slot the table has now.
  explicit SlotCursor(const Table* table)
      : table_(table), end_(table->num_slots()) {}
  /// Serves `row_ids` in order.
  SlotCursor(const Table* table, std::vector<int64_t> row_ids)
      : table_(table), row_ids_(std::move(row_ids)), end_(row_ids_.size()) {}

  const Schema& schema() const override { return table_->schema(); }

  /// Gathers the next `max_rows` live slots, lets the filter narrow them
  /// and copies the survivors, repeating until one survives or the bound
  /// is reached: a filtered batch is what a filter over the unfiltered
  /// batch would keep, and an empty batch still means end of data.
  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    out->clear();
    const size_t want = max_rows > 0 ? static_cast<size_t>(max_rows) : 0;
    while (out->rows.empty() && want > 0 && pos_ < end_) {
      gathered_.clear();
      while (gathered_.size() < want && pos_ < end_) {
        const size_t slot = SlotAt(pos_++);
        if (table_->SlotRow(slot) != nullptr) {
          gathered_.push_back(static_cast<int>(slot));
        }
      }
      Status st = Serve(out);
      if (!st.ok()) {
        out->clear();  // A failing call hands on no rows.
        return st;
      }
    }
    return !out->rows.empty();
  }

  Status SetFilter(RowFilter filter) override {
    filter_ = std::move(filter);
    return Status::OK();
  }

  Status Restart() override {
    pos_ = 0;
    return Status::OK();
  }

 private:
  size_t SlotAt(size_t pos) const {
    return row_ids_.empty() ? pos : static_cast<size_t>(row_ids_[pos]);
  }

  /// Copies the gathered rows the filter passes into `out`, in gathered
  /// order. The filter reads ascending slots, so a range whose key order
  /// leaves slot order is filtered one ascending run at a time, in key
  /// order; a failure is then that of the first failing row in key order.
  Status Serve(RowBatch* out) {
    const std::vector<Row>& rows = table_->slots();
    if (!filter_) {
      for (int slot : gathered_) {
        out->rows.push_back(rows[static_cast<size_t>(slot)]);
      }
      return Status::OK();
    }
    for (size_t begin = 0, end = 0; begin < gathered_.size(); begin = end) {
      end = begin + 1;
      while (end < gathered_.size() && gathered_[end] > gathered_[end - 1]) {
        ++end;
      }
      sel_.assign(gathered_.begin() + static_cast<ptrdiff_t>(begin),
                  gathered_.begin() + static_cast<ptrdiff_t>(end));
      DHQP_RETURN_NOT_OK(filter_(rows, &sel_));
      for (int slot : sel_) out->rows.push_back(rows[static_cast<size_t>(slot)]);
    }
    return Status::OK();
  }

  const Table* table_;
  std::vector<int64_t> row_ids_;  ///< Empty for a scan.
  size_t end_;                    ///< Position bound, fixed at Open.
  size_t pos_ = 0;
  RowFilter filter_;
  std::vector<int> gathered_;  ///< Live slots of the current gather.
  std::vector<int> sel_;       ///< The slots the filter passed.
};

}  // namespace

Result<std::unique_ptr<Rowset>> StorageSession::OpenRowset(
    const std::string& table) {
  DHQP_ASSIGN_OR_RETURN(Table * t, engine_->GetTable(table));
  return std::unique_ptr<Rowset>(new SlotCursor(t));
}

Result<std::vector<TableMetadata>> StorageSession::ListTables() {
  std::vector<TableMetadata> out;
  for (const std::string& name : engine_->TableNames()) {
    DHQP_ASSIGN_OR_RETURN(Table * t, engine_->GetTable(name));
    out.push_back(t->Metadata());
  }
  return out;
}

Result<ColumnStatistics> StorageSession::GetStatistics(
    const std::string& table, const std::string& column) {
  return engine_->GetStatistics(table, column);
}

namespace {

// Converts an IndexRange (prefix + bounds on the next column) to B+-tree
// scan bounds; false when the range is empty. A NULL equals and bounds
// nothing, so a NULL in the prefix or a bound empties the range, and a
// range that bounds the next column starts above that column's NULLs,
// which sort first.
bool RangeToKeys(const IndexRange& range, IndexKey* lo, bool* lo_inc,
                 IndexKey* hi, bool* hi_inc, bool* has_lo, bool* has_hi) {
  for (const Value& v : range.eq_prefix) {
    if (v.is_null()) return false;
  }
  if ((range.lo.has_value() && range.lo->is_null()) ||
      (range.hi.has_value() && range.hi->is_null())) {
    return false;
  }
  *lo = range.eq_prefix;
  *hi = range.eq_prefix;
  *lo_inc = true;
  *hi_inc = true;
  if (range.lo.has_value()) {
    lo->push_back(*range.lo);
    *lo_inc = range.lo_inclusive;
  } else if (range.hi.has_value()) {
    lo->push_back(Value::Null(range.hi->type()));
    *lo_inc = false;
  }
  if (range.hi.has_value()) {
    hi->push_back(*range.hi);
    *hi_inc = range.hi_inclusive;
  }
  *has_lo = !lo->empty();
  *has_hi = !hi->empty();
  return true;
}

}  // namespace

Result<std::unique_ptr<Rowset>> StorageSession::OpenIndexRange(
    const std::string& table, const std::string& index,
    const IndexRange& range) {
  DHQP_ASSIGN_OR_RETURN(Table * t, engine_->GetTable(table));
  TableIndex* idx = t->FindIndex(index);
  if (idx == nullptr) {
    return Status::NotFound("index '" + index + "' not found on " + table);
  }
  IndexKey lo, hi;
  bool lo_inc, hi_inc, has_lo, has_hi;
  std::vector<int64_t> row_ids;
  if (RangeToKeys(range, &lo, &lo_inc, &hi, &hi_inc, &has_lo, &has_hi)) {
    idx->tree->Scan(has_lo ? &lo : nullptr, lo_inc, has_hi ? &hi : nullptr,
                    hi_inc, &row_ids);
  }
  return std::unique_ptr<Rowset>(new SlotCursor(t, std::move(row_ids)));
}

Result<std::unique_ptr<Rowset>> StorageSession::OpenIndexKeys(
    const std::string& table, const std::string& index,
    const IndexRange& range) {
  DHQP_ASSIGN_OR_RETURN(Table * t, engine_->GetTable(table));
  TableIndex* idx = t->FindIndex(index);
  if (idx == nullptr) {
    return Status::NotFound("index '" + index + "' not found on " + table);
  }
  IndexKey lo, hi;
  bool lo_inc, hi_inc, has_lo, has_hi;
  std::vector<std::pair<IndexKey, int64_t>> entries;
  if (RangeToKeys(range, &lo, &lo_inc, &hi, &hi_inc, &has_lo, &has_hi)) {
    idx->tree->ScanEntries(has_lo ? &lo : nullptr, lo_inc,
                           has_hi ? &hi : nullptr, hi_inc, &entries);
  }
  Schema schema;
  for (int ord : idx->key_ordinals) {
    schema.AddColumn(t->schema().column(static_cast<size_t>(ord)));
  }
  schema.AddColumn(ColumnDef{"__bookmark", DataType::kInt64, false});
  std::vector<Row> rows;
  rows.reserve(entries.size());
  for (auto& [key, id] : entries) {
    Row row = key;
    row.push_back(Value::Int64(id));
    rows.push_back(std::move(row));
  }
  return std::unique_ptr<Rowset>(new VectorRowset(schema, std::move(rows)));
}

Result<std::optional<Row>> StorageSession::FetchByBookmark(
    const std::string& table, const Value& bookmark) {
  DHQP_ASSIGN_OR_RETURN(Table * t, engine_->GetTable(table));
  if (bookmark.is_null() || bookmark.type() != DataType::kInt64) {
    return Status::InvalidArgument("bookmark must be a non-null int64");
  }
  const Row* row = t->GetRow(bookmark.int64_value());
  if (row == nullptr) return std::optional<Row>();
  return std::optional<Row>(*row);
}

Result<int64_t> StorageSession::InsertRows(const std::string& table,
                                           const std::vector<Row>& rows) {
  int64_t count = 0;
  for (const Row& row : rows) {
    DHQP_ASSIGN_OR_RETURN(int64_t id, engine_->InsertRow(active_txn_, table, row));
    (void)id;
    ++count;
  }
  return count;
}

Status StorageSession::BeginTransaction(int64_t txn_id) {
  DHQP_RETURN_NOT_OK(engine_->Begin(txn_id));
  active_txn_ = txn_id;
  return Status::OK();
}

Status StorageSession::PrepareTransaction(int64_t txn_id) {
  return engine_->Prepare(txn_id);
}

Status StorageSession::CommitTransaction(int64_t txn_id) {
  Status st = engine_->Commit(txn_id);
  if (st.ok() && active_txn_ == txn_id) active_txn_ = -1;
  return st;
}

Status StorageSession::AbortTransaction(int64_t txn_id) {
  Status st = engine_->Abort(txn_id);
  if (active_txn_ == txn_id) active_txn_ = -1;
  return st;
}

}  // namespace dhqp
