#ifndef DHQP_OPTIMIZER_OPTIMIZER_H_
#define DHQP_OPTIMIZER_OPTIMIZER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/optimizer/cost.h"
#include "src/optimizer/decoder.h"
#include "src/optimizer/memo.h"
#include "src/optimizer/rules.h"

namespace dhqp {

/// Output of one optimization: the chosen physical plan plus search
/// statistics (groups/exprs/rules/phases — reported by EXPLAIN and E7).
struct OptimizeResult {
  PhysicalOpPtr plan;
  OptimizerRunStats stats;
};

/// The Cascades-style optimizer (§4.1): top-down, memo-based, cost-driven.
/// Logical alternatives are generated by exploration rules (rules.h),
/// physical alternatives by the implementation step here (scans, index
/// paths, hash/loop/merge joins, aggregates, and the remote access paths:
/// remote scan/range/fetch, parameterized remote queries, and whole-subtree
/// "build remote query" pushdown). Missing physical properties are delivered
/// by enforcers: Sort for order, Spool for rescannability over remote
/// streams (§4.1.4). Search proceeds in up-to-three phases with rising rule
/// budgets and cost thresholds (§4.1.1).
class Optimizer {
 public:
  explicit Optimizer(OptimizerContext* ctx);

  /// Optimizes a normalized logical tree. `required_order` is the query's
  /// ORDER BY, demanded of the root as a physical property.
  Result<OptimizeResult> Optimize(
      const LogicalOpPtr& root,
      const std::vector<std::pair<int, bool>>& required_order);

  const CostParams& cost_params() const { return costs_; }

 private:
  Result<Winner> OptimizeGroup(int gid, const PhysicalProps& required);
  void ExploreGroup(int gid);

  /// Generates and costs all physical candidates for one logical expr,
  /// under `required`; updates `best`.
  Status ImplementExpr(int gid, const GroupExpr& expr,
                       const PhysicalProps& required, Winner* best);

  /// The "build remote query" rule (§4.1.2): tries to push the whole group
  /// to its (single) remote source.
  Status TryBuildRemoteQuery(int gid, const PhysicalProps& required,
                             Winner* best);

  /// Framework extension of §4.1.4: picks *some* remotable logical tree
  /// from a group (alternatives are equivalent, so any decodable one is
  /// valid). Returns nullptr when none decodes.
  LogicalOpPtr ExtractRemotableTree(int gid, const ProviderCapabilities& caps);

  /// Assembles a candidate: fills annotations, applies enforcers if the
  /// delivered properties miss `required`, costs it, and updates `best`.
  void Consider(PhysicalOpBuilder plan, int gid, const PhysicalProps& required,
                Winner* best);

  /// Fills output schema + estimated rows from group props (top node).
  /// Only valid for operators whose execution output order is canonical
  /// (scans, projects, aggregates, const/empty tables).
  void AnnotateFromGroup(PhysicalOpBuilder& op, int gid);

  /// Fills output schema from the first child's *actual* output order (the
  /// operator streams its child's rows through) and estimated rows from the
  /// group. Joins and other order-transparent operators must use this: a
  /// plan built from a commuted memo alternative produces columns in its own
  /// children's order, not the group's canonical order.
  void AnnotateFromChild(PhysicalOpBuilder& op, int gid);
  /// Fills output schema metadata from explicit columns.
  void AnnotateColumns(PhysicalOpBuilder& op, const std::vector<int>& cols);
  /// The exchange that delivers `required`'s partitioning over `child`
  /// (uncosted): Distribute fans a serial stream out round-robin;
  /// RepartitionHash aligns streams on the required hash columns.
  PhysicalOpBuilder PartitioningExchange(const PhysicalProps& required,
                                         const PhysicalOpPtr& child);
  /// Computes estimated_cost = local + children (estimated_rows must be set).
  void CostNode(PhysicalOpBuilder& op);

  /// Delivered physical properties of an assembled plan.
  static PhysicalProps Delivered(const PhysicalOpPtr& plan);
  static bool IsRescannable(const PhysicalOpPtr& plan);

  /// True when every operator in `plan` may run on an exchange worker
  /// thread: no remote access paths, no correlated remote parameters, no
  /// full-text service calls. This is the serial-remote-subtree rule —
  /// remote subtrees never parallelize, so wire-message ordering (and
  /// injected-fault ordinals) are identical at every dop.
  static bool ParallelSafe(const PhysicalOpPtr& plan);

  /// Parallelism enforcer, the §4.1.1 exchange analog: optimizes the group
  /// under a dop = max_dop requirement and offers Gather(parallel plan) as
  /// an alternative to the serial winner. Only fully-local groups qualify.
  Status TryParallelPlan(int gid, const PhysicalProps& required, Winner* best);

  /// Physical candidates under a dop > 1 requirement: partitioned local
  /// scans, partition-preserving filters/projects, hash join and hash
  /// aggregate over hash-partitioned children. Operators without a native
  /// parallel implementation fall back to Distribute(serial winner) at the
  /// group level (see OptimizeGroup).
  Status ImplementParallel(int gid, const GroupExpr& expr,
                           const PhysicalProps& required, Winner* best);

  // Candidate helpers per logical operator.
  Status ImplementGet(int gid, const GroupExpr& expr,
                      const PhysicalProps& required, Winner* best);
  Status ImplementFilter(int gid, const GroupExpr& expr,
                         const PhysicalProps& required, Winner* best);
  Status ImplementJoin(int gid, const GroupExpr& expr,
                       const PhysicalProps& required, Winner* best);
  Status ImplementAggregate(int gid, const GroupExpr& expr,
                            const PhysicalProps& required, Winner* best);

  OptimizerContext* ctx_;
  Memo memo_;
  Decoder decoder_;
  CostParams costs_;
  OptPhase phase_ = OptPhase::kFull;
  std::map<int, LogicalOpPtr> remotable_cache_;
  int correlation_counter_ = 0;
  /// (gid | fingerprint) keys of parallel requirements currently being
  /// optimized — the serial-fallback path can re-enter a group, and this
  /// breaks the cycle (the re-entrant call fails, which callers treat as
  /// "no parallel plan").
  std::set<std::string> parallel_in_progress_;
};

}  // namespace dhqp

#endif  // DHQP_OPTIMIZER_OPTIMIZER_H_
