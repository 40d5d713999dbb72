#ifndef DHQP_PROVIDER_PROVIDER_H_
#define DHQP_PROVIDER_PROVIDER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/row.h"
#include "src/common/schema.h"
#include "src/common/status.h"
#include "src/provider/capabilities.h"
#include "src/provider/metadata.h"

namespace dhqp {

/// A block of rows fetched in one provider round trip. Models the row-handle
/// arrays that OLE DB's IRowset::GetNextRows returns: consumers that fetch
/// blocks instead of single rows pay one round trip per block.
struct RowBatch {
  std::vector<Row> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
  void clear() { rows.clear(); }
};

/// Tabular data stream — the paper's Rowset abstraction (§3.1.2): "a
/// unifying abstraction that enables OLE DB data providers to expose data in
/// tabular form". Base tables, query results, index ranges, full-text rank
/// results and metadata all flow through this interface, which is what lets
/// the relational engine consume any source uniformly.
class Rowset {
 public:
  virtual ~Rowset() = default;

  virtual const Schema& schema() const = 0;

  /// Advances to the next row. Returns true and fills `out` when a row is
  /// available, false at end of data.
  virtual Result<bool> Next(Row* out) = 0;

  /// Fetches up to `max_rows` rows into `out` (cleared first) — the OLE DB
  /// IRowset::GetNextRows block-fetch surface. Returns false only at end of
  /// data (out left empty); a partial batch is returned as true and the
  /// following call reports the end. The base implementation loops Next(),
  /// so every rowset supports block fetch; materialized and storage rowsets
  /// override it to fill the block in one call.
  virtual Result<bool> NextBatch(RowBatch* out, int max_rows);

  /// Repositions before the first row, if the rowset supports rewinding.
  /// Streaming rowsets (e.g. remote query results) do not; the executor
  /// inserts a Spool when it needs to rescan them (§4.1.4).
  virtual Status Restart() {
    return Status::NotSupported("rowset does not support Restart");
  }

  /// Skips up to `n` rows, returning the number actually skipped (< n only
  /// at end of data). Skipped rows are counted in the unit Next/NextBatch
  /// serve — rows, not storage positions — so a reader that skips k rows
  /// and one that reads them land on the same next row. The base
  /// implementation discards rows through Next(); the storage engine's slot
  /// cursor advances over slots without copying, counting the live ones.
  /// That is what makes block-cyclic partitioned scans cheap (each of `dop`
  /// workers reads every dop-th block and skips the rest) and keeps the
  /// workers' blocks aligned across deleted rows.
  virtual Result<int64_t> SkipRows(int64_t n);
};

/// A rowset fully materialized in memory. Supports Restart. Also the
/// building block for metadata rowsets and spools.
class VectorRowset : public Rowset {
 public:
  VectorRowset(Schema schema, std::vector<Row> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  const Schema& schema() const override { return schema_; }

  Result<bool> Next(Row* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    return true;
  }

  Result<bool> NextBatch(RowBatch* out, int max_rows) override {
    out->clear();
    if (pos_ >= rows_.size() || max_rows <= 0) return false;
    size_t n = rows_.size() - pos_;
    if (n > static_cast<size_t>(max_rows)) n = static_cast<size_t>(max_rows);
    out->rows.assign(rows_.begin() + static_cast<ptrdiff_t>(pos_),
                     rows_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return true;
  }

  Status Restart() override {
    pos_ = 0;
    return Status::OK();
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  Schema schema_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Drains a rowset into a vector. Utility shared by tests, spools and the
/// remote bridge.
Result<std::vector<Row>> DrainRowset(Rowset* rowset);

/// A key range over a (possibly composite) index: fixed equality prefix plus
/// optional bounds on the next key column. This models "the ability to seek
/// (or setting a range) on the index for given key values" via IRowsetIndex
/// (§3.3).
struct IndexRange {
  std::vector<Value> eq_prefix;  ///< Equality constraints on leading keys.
  std::optional<Value> lo;       ///< Lower bound on the next key column.
  bool lo_inclusive = true;
  std::optional<Value> hi;       ///< Upper bound on the next key column.
  bool hi_inclusive = true;

  std::string ToString() const;
};

/// The Command object (§3.2.1): "encapsulates the functions that enable a
/// consumer to invoke the execution of data definition or data manipulation
/// statements". Text is in whatever language the provider speaks (Table 1);
/// the DHQP's decoder generates dialect-appropriate SQL for SQL providers.
class Command {
 public:
  virtual ~Command() = default;

  /// Sets the command text (query in the provider's language).
  virtual Status SetText(std::string text) = 0;

  /// Binds a named parameter (e.g. "@p0"). Only on providers whose
  /// capabilities report supports_parameters.
  virtual Status BindParameter(const std::string& name, const Value& value) {
    (void)name;
    (void)value;
    return Status::NotSupported("provider does not support parameters");
  }

  /// Executes and returns the result rowset.
  virtual Result<std::unique_ptr<Rowset>> Execute() = 0;

  /// Executes a statement with no result set; returns rows affected.
  virtual Result<int64_t> ExecuteNonQuery() {
    return Status::NotSupported("provider does not support non-query commands");
  }
};

/// The Session object (§3.1.1): "a transactional scope for multiple
/// concurrent units of work", plus the IOpenRowset / IDBSchemaRowset /
/// histogram surface the DHQP consumes.
class Session {
 public:
  virtual ~Session() = default;

  /// IOpenRowset: opens a named base rowset (table scan).
  virtual Result<std::unique_ptr<Rowset>> OpenRowset(
      const std::string& table) = 0;

  /// IDBCreateCommand: only on query-capable providers.
  virtual Result<std::unique_ptr<Command>> CreateCommand() {
    return Status::NotSupported("provider is not query-capable");
  }

  /// IDBSchemaRowset: table/column/index metadata.
  virtual Result<std::vector<TableMetadata>> ListTables() = 0;
  virtual Result<TableMetadata> GetTableMetadata(const std::string& table);

  /// Histogram/statistics rowsets (§3.2.4). NotSupported unless the
  /// provider's capabilities report supports_histograms.
  virtual Result<ColumnStatistics> GetStatistics(const std::string& table,
                                                 const std::string& column) {
    (void)table;
    (void)column;
    return Status::NotSupported("provider does not expose statistics");
  }

  /// IRowsetIndex: opens base-table rows reachable through `index` within
  /// `range`, in key order ("remote range" access path, §4.1.2).
  virtual Result<std::unique_ptr<Rowset>> OpenIndexRange(
      const std::string& table, const std::string& index,
      const IndexRange& range) {
    (void)table;
    (void)index;
    (void)range;
    return Status::NotSupported("provider does not support indexes");
  }

  /// IRowsetLocate: fetches one base row by bookmark ("remote fetch" access
  /// path). Bookmarks are produced by index rowsets opened with
  /// OpenIndexKeys.
  virtual Result<std::optional<Row>> FetchByBookmark(const std::string& table,
                                                     const Value& bookmark) {
    (void)table;
    (void)bookmark;
    return Status::NotSupported("provider does not support bookmarks");
  }

  /// Opens (key columns..., bookmark) pairs from an index within `range`.
  virtual Result<std::unique_ptr<Rowset>> OpenIndexKeys(
      const std::string& table, const std::string& index,
      const IndexRange& range) {
    (void)table;
    (void)index;
    (void)range;
    return Status::NotSupported("provider does not support indexes");
  }

  /// Row insertion, used by DML routing and the federation tests. Providers
  /// that are read-only keep the default.
  virtual Result<int64_t> InsertRows(const std::string& table,
                                     const std::vector<Row>& rows) {
    (void)table;
    (void)rows;
    return Status::NotSupported("provider is read-only");
  }

  /// @name Two-phase-commit enlistment (ITransactionJoin; used by the DTC).
  /// Providers that cannot enlist keep the defaults and the DTC refuses to
  /// span them.
  ///@{
  virtual Status BeginTransaction(int64_t txn_id) {
    (void)txn_id;
    return Status::NotSupported("provider is not transactional");
  }
  virtual Status PrepareTransaction(int64_t txn_id) {
    (void)txn_id;
    return Status::NotSupported("provider is not transactional");
  }
  virtual Status CommitTransaction(int64_t txn_id) {
    (void)txn_id;
    return Status::NotSupported("provider is not transactional");
  }
  virtual Status AbortTransaction(int64_t txn_id) {
    (void)txn_id;
    return Status::NotSupported("provider is not transactional");
  }
  ///@}
};

/// The Data Source Object (§3.1.1): locate/activate a provider, negotiate
/// capabilities, create sessions. Replaces COM CoCreateInstance +
/// IDBInitialize with plain C++ construction + Initialize().
class DataSource {
 public:
  virtual ~DataSource() = default;

  /// IDBProperties + IDBInitialize: authentication/location properties then
  /// connection establishment. Default accepts anything.
  virtual Status Initialize(
      const std::map<std::string, std::string>& properties) {
    (void)properties;
    return Status::OK();
  }

  /// IDBProperties/IDBInfo: what this source can do (drives optimizer and
  /// decoder decisions).
  virtual const ProviderCapabilities& capabilities() const = 0;

  /// IDBCreateSession.
  virtual Result<std::unique_ptr<Session>> CreateSession() = 0;
};

}  // namespace dhqp

#endif  // DHQP_PROVIDER_PROVIDER_H_
