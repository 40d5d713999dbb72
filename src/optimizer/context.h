#ifndef DHQP_OPTIMIZER_CONTEXT_H_
#define DHQP_OPTIMIZER_CONTEXT_H_

#include <compare>
#include <map>
#include <optional>
#include <string>

#include "src/catalog/catalog.h"
#include "src/sql/binder.h"

namespace dhqp {

/// Where a column id came from: used to fetch statistics and to decode
/// remote SQL.
struct ColumnOrigin {
  int source_id = kLocalSource;
  std::string table;
  std::string column;
};

/// A registered full-text catalog: CONTAINS over (table, text_column) can be
/// answered by the search service, returning (key_column, rank) rowsets
/// (§2.3).
struct FullTextCatalogInfo {
  std::string table;
  std::string key_column;
  std::string text_column;
  std::string catalog_name;
};

/// Optimizer feature toggles and phase thresholds. The defaults reproduce
/// the paper's system; the toggles exist so benches can ablate individual
/// design choices (remote statistics, spools, parameterization, ...).
struct OptimizerOptions {
  bool enable_join_reorder = true;      ///< Commutativity/associativity rules.
  bool enable_remote_pushdown = true;   ///< "Build remote query" rule.
  bool enable_parameterization = true;  ///< Remote parameterization rule.
  bool enable_spool_enforcer = true;    ///< Spool over remote ops (§4.1.4).
  bool enable_remote_statistics = true; ///< Use remote histograms (§3.2.4).
  bool enable_startup_filters = true;   ///< Runtime pruning (§4.1.5).
  bool enable_static_pruning = true;    ///< Compile-time contradiction prune.
  bool enable_locality_grouping = true; ///< Join grouping by locality (§4.1.2).
  bool enable_index_paths = true;       ///< Local/remote index access paths.
  bool enable_fulltext_index = true;    ///< CONTAINS via the search service.

  /// Multi-phase search (§4.1.1): transaction-processing, quick plan, full
  /// optimization. When false, a single full pass runs.
  bool multi_phase = true;

  /// Maximum degree of parallelism for intra-query parallel plans. The
  /// engine plumbs ExecOptions::dop here (making dop part of the plan-cache
  /// key); <= 1 disables the exchange enforcer entirely. Only fully-local
  /// subtrees parallelize — remote subtrees stay serial so wire-message
  /// ordering (and fault ordinals) are identical at every dop.
  int max_dop = 1;

  /// Hard cap on memo size: once the memo holds this many expressions,
  /// exploration stops adding alternatives (implementation still covers
  /// everything present). Guards the full phase against combinatorial
  /// blow-up on wide join graphs.
  int max_memo_exprs = 20000;

  auto operator<=>(const OptimizerOptions&) const = default;
};

/// Statistics the optimizer gathered about its own run, reported by EXPLAIN
/// and the optimizer-phase bench (E7).
struct OptimizerRunStats {
  int phases_run = 0;
  int groups = 0;
  int group_exprs = 0;
  int rules_applied = 0;
  double best_cost = 0;
  std::string phase_name;
};

/// Shared state for one optimization: catalog access, column metadata,
/// options, and memoized statistics lookups.
class OptimizerContext {
 public:
  OptimizerContext(Catalog* catalog, ColumnRegistry* registry,
                   OptimizerOptions options)
      : catalog_(catalog), registry_(registry), options_(std::move(options)) {}

  Catalog* catalog() const { return catalog_; }
  ColumnRegistry* registry() const { return registry_; }
  const OptimizerOptions& options() const { return options_; }

  /// Registers the origin of a Get column (called while seeding the memo).
  void AddOrigin(int col_id, ColumnOrigin origin) {
    origins_[col_id] = std::move(origin);
  }
  const ColumnOrigin* FindOrigin(int col_id) const {
    auto it = origins_.find(col_id);
    return it == origins_.end() ? nullptr : &it->second;
  }

  /// Column statistics for estimation; respects the remote-statistics
  /// ablation toggle. Returns nullptr when unavailable.
  const ColumnStatistics* StatsFor(int col_id);

  /// Full-text catalog registration and lookup (keyed by lower-cased
  /// "table.column" of the text column).
  void AddFullTextCatalog(FullTextCatalogInfo info);
  const FullTextCatalogInfo* FindFullTextCatalog(
      const std::string& table, const std::string& column) const;

  OptimizerRunStats* run_stats() { return &run_stats_; }

 private:
  Catalog* catalog_;
  ColumnRegistry* registry_;
  OptimizerOptions options_;
  std::map<int, ColumnOrigin> origins_;
  std::map<int, std::optional<ColumnStatistics>> stats_cache_;
  std::map<std::string, FullTextCatalogInfo> fulltext_;
  OptimizerRunStats run_stats_;
};

}  // namespace dhqp

#endif  // DHQP_OPTIMIZER_CONTEXT_H_
