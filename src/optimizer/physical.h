#ifndef DHQP_OPTIMIZER_PHYSICAL_H_
#define DHQP_OPTIMIZER_PHYSICAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/optimizer/logical.h"
#include "src/sql/bound_expr.h"

namespace dhqp {

/// Physical operators — the executable algebra the optimizer's
/// implementation rules produce and the Volcano executor runs (§4.1.1:
/// "hash join", "loop join", ... are physical counterparts of logical ops;
/// §4.1.2 adds the remote access paths).
enum class PhysicalOpKind {
  kTableScan,        ///< Sequential scan of a local table.
  kIndexRange,       ///< Local B+-tree seek/range.
  kFilter,           ///< Predicate evaluation.
  kStartupFilter,    ///< Parameter-only predicate evaluated before opening
                     ///< the child (§4.1.5 runtime pruning).
  kProject,          ///< Compute scalar expressions.
  kHashJoin,         ///< Build/probe equi-join.
  kNestedLoopsJoin,  ///< Rescanning join for arbitrary predicates and
                     ///< semi/anti/outer variants.
  kMergeJoin,        ///< Equi-join over sorted inputs.
  kHashAggregate,    ///< Hash-based grouping.
  kStreamAggregate,  ///< Grouping over sorted input.
  kSort,             ///< Order enforcer.
  kTop,              ///< First-n.
  kConcat,           ///< UNION ALL / partitioned-view concatenation.
  kConstTable,       ///< Literal rows.
  kEmptyTable,       ///< Statically pruned to empty.
  kSpool,            ///< Materialize child for cheap rescans (§4.1.4).
  kRemoteQuery,      ///< Decoded SQL pushed to a linked server ("build
                     ///< remote query").
  kRemoteScan,       ///< Full remote table via IOpenRowset.
  kRemoteRange,      ///< Remote index range via IRowsetIndex.
  kRemoteFetch,      ///< Remote bookmark lookups via IRowsetLocate.
  kFullTextLookup,   ///< (key, rank) rowset from the full-text service.
  kExchange,         ///< Parallelism enforcer: moves RowBatches between
                     ///< producer and consumer partition streams (gather /
                     ///< repartition-by-hash / round-robin distribute).
};

const char* PhysicalOpKindName(PhysicalOpKind kind);

/// True for the four remote access paths (§4.1.2): remote query, scan,
/// range and fetch.
bool IsRemoteOp(PhysicalOpKind kind);

/// Data-movement flavor of a kExchange operator.
enum class ExchangeKind {
  kGather,           ///< N producer streams -> 1 consumer stream.
  kRepartitionHash,  ///< N (or 1) streams -> N streams hashed on
                     ///< exchange_keys.
  kDistribute,       ///< 1 stream -> N streams, round-robin batches.
};

const char* ExchangeKindName(ExchangeKind kind);

struct PhysicalOp;
using PhysicalOpPtr = std::shared_ptr<const PhysicalOp>;

/// An index-range specification whose bounds may be runtime expressions
/// (parameters or outer-row columns), evaluated when the operator opens.
struct RangeSpec {
  std::vector<ScalarExprPtr> eq_prefix;
  ScalarExprPtr lo;  ///< Null = unbounded.
  bool lo_inclusive = true;
  ScalarExprPtr hi;
  bool hi_inclusive = true;
};

/// One physical operator node with cost/cardinality annotations. The tree is
/// immutable after construction so memo winners can share subplans.
struct PhysicalOp {
  PhysicalOpKind kind;
  std::vector<PhysicalOpPtr> children;

  /// @name Plan annotations.
  ///@{
  double estimated_rows = 0;
  double estimated_cost = 0;   ///< Cumulative (includes children).
  std::vector<int> output_cols;
  std::vector<DataType> output_types;
  std::vector<std::string> output_names;
  ///@}

  // Scans (local + remote). A remote query keeps its linked server here
  // too (source_id, server_name), like every other remote operator.
  ResolvedTable table;
  std::string alias;
  std::string index_name;
  RangeSpec range;

  // kFilter / kStartupFilter / join residual predicate.
  ScalarExprPtr predicate;

  // kProject.
  std::vector<ScalarExprPtr> exprs;

  // Joins.
  JoinType join_type = JoinType::kInner;
  /// Equi-join key pairs (left expr, right expr) for hash/merge join.
  std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> key_pairs;

  // Aggregates.
  std::vector<int> group_by;
  std::vector<AggregateItem> aggregates;

  // kSort (and delivered order of any operator).
  std::vector<std::pair<int, bool>> sort_keys;  ///< (column id, ascending).

  // kTop.
  int64_t limit = 0;

  // kConstTable.
  std::vector<Row> const_rows;

  // kRemoteQuery.
  std::string remote_sql;
  /// Parameter names the remote statement references; bound from the
  /// execution context at dispatch.
  std::vector<std::string> remote_param_names;
  /// On kNestedLoopsJoin: correlation bindings @name -> expression over the
  /// outer row, re-evaluated per iteration (the parameterization rule,
  /// §4.1.2).
  std::vector<std::pair<std::string, ScalarExprPtr>> remote_params;

  // kFullTextLookup.
  std::string ft_table;
  std::string ft_query;

  /// @name Parallelism (see PhysicalProps::dop).
  ///@{
  /// Instances of this operator that run concurrently (= partition streams
  /// it produces). For kExchange this is the *consumer* side; the producer
  /// side is children[0]->dop.
  int dop = 1;
  /// Column ids the delivered streams are hash-partitioned on (empty =
  /// arbitrary partitioning). Meaningful when dop > 1.
  std::vector<int> partition_cols;
  // kExchange only.
  ExchangeKind exchange = ExchangeKind::kGather;
  std::vector<int> exchange_keys;  ///< Hash columns for kRepartitionHash.
  ///@}

  /// Indented EXPLAIN-style rendering with row/cost annotations.
  std::string ToString(int indent = 0) const;

  /// Like ToString, prefixed with stable pre-order operator ids ("#1 ...")
  /// that match the ids EXPLAIN ANALYZE assigns to its profile tree, so
  /// estimated and actual renderings line up operator by operator.
  /// `next_id` is advanced in pre-order (pass an int initialized to 1).
  std::string ToStringWithIds(int indent, int* next_id) const;

  /// Single-line operator description (payload summary).
  std::string Describe() const;
};

/// Mutable builder alias used while implementation rules assemble nodes.
using PhysicalOpBuilder = std::shared_ptr<PhysicalOp>;

/// Allocates a node of `kind`.
PhysicalOpBuilder NewPhysicalOp(PhysicalOpKind kind);

}  // namespace dhqp

#endif  // DHQP_OPTIMIZER_PHYSICAL_H_
