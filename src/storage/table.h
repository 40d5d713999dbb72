#ifndef DHQP_STORAGE_TABLE_H_
#define DHQP_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/interval.h"
#include "src/common/row.h"
#include "src/common/schema.h"
#include "src/common/status.h"
#include "src/provider/metadata.h"
#include "src/storage/btree.h"

namespace dhqp {

/// A secondary index over a heap table.
struct TableIndex {
  std::string name;
  std::vector<int> key_ordinals;  ///< Column positions in key order.
  bool unique = false;
  std::unique_ptr<BTree> tree;
};

/// An in-memory heap table: the unit of storage in the local storage engine.
/// Rows are addressed by stable row ids (bookmarks); deletion tombstones.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const std::vector<CheckConstraint>& check_constraints() const {
    return checks_;
  }
  const std::vector<std::unique_ptr<TableIndex>>& indexes() const {
    return indexes_;
  }

  /// Number of live (non-deleted) rows.
  size_t live_row_count() const { return live_count_; }
  /// Total slots including tombstones; row ids range over [0, num_slots).
  size_t num_slots() const { return rows_.size(); }

  /// Adds a CHECK constraint. Existing rows are validated.
  Status AddCheckConstraint(CheckConstraint check);

  /// Builds a secondary index over the named columns; existing rows are
  /// indexed. Fails on duplicate key if `unique`.
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& key_columns, bool unique);

  TableIndex* FindIndex(const std::string& index_name);

  /// Validates (arity, types with implicit casts, NOT NULL, CHECKs, unique
  /// indexes), assigns a row id, and maintains all indexes.
  Result<int64_t> Insert(const Row& row);

  /// Tombstones a row and unlinks it from indexes.
  Status Delete(int64_t row_id);

  /// Returns the row at `row_id`, or nullptr if out of range / deleted.
  const Row* GetRow(int64_t row_id) const;

  /// Slot accessor for in-place readers (scan cursors, statistics): the row
  /// in `slot`, or nullptr if the slot is a tombstone. `slot` must be below
  /// num_slots(); slots are never reclaimed, so a bound taken earlier stays
  /// valid. The pointer is good only until the next Insert, which may move
  /// every row — re-read the slot instead of keeping it.
  const Row* SlotRow(size_t slot) const {
    return deleted_[slot] ? nullptr : &rows_[slot];
  }

  /// The slots themselves, tombstones included, for a reader that runs a
  /// predicate over rows in place (the scan cursor's row filter): slot i is
  /// slots()[i], live when SlotRow(i) is non-null. Good only until the next
  /// Insert, like SlotRow's pointer.
  const std::vector<Row>& slots() const { return rows_; }

  /// Appends copies of all live rows (with their ids) to `out`: for DML,
  /// which materializes its matches before it writes. Queries read through
  /// StorageSession's slot cursor instead.
  void ScanLive(std::vector<std::pair<int64_t, Row>>* out) const;

  /// Provider-facing description: schema + cardinality + index metadata.
  TableMetadata Metadata() const;

  /// Extracts the index key of `row` for the given index.
  static IndexKey MakeKey(const TableIndex& index, const Row& row);

 private:
  /// Validates and coerces `row` against the schema and constraints; fills
  /// `normalized` with the insert-ready row.
  Status ValidateRow(const Row& row, Row* normalized) const;

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<bool> deleted_;
  size_t live_count_ = 0;
  std::vector<CheckConstraint> checks_;
  std::vector<std::unique_ptr<TableIndex>> indexes_;
};

}  // namespace dhqp

#endif  // DHQP_STORAGE_TABLE_H_
