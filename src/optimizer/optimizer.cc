#include "src/optimizer/optimizer.h"

#include <algorithm>
#include <optional>
#include <set>

#include "src/common/trace.h"
#include "src/optimizer/cardinality.h"

namespace dhqp {

namespace {

// Multi-phase search (§4.1.1): a phase's plan at or below its threshold
// cost ends the search; the full phase always ends it.
constexpr double kTpPhaseCostThreshold = 500;
constexpr double kQuickPhaseCostThreshold = 100000;

// Fixpoint guard on exploration rounds per group.
constexpr int kMaxExplorationRounds = 12;

// Registers column origins for every Get in the tree (needed by cardinality
// estimation and the decoder before memo insertion).
void RegisterOrigins(const LogicalOpPtr& tree, OptimizerContext* ctx) {
  if (tree == nullptr) return;
  if (tree->kind == LogicalOpKind::kGet) {
    const Schema& schema = tree->table.metadata.schema;
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      ctx->AddOrigin(tree->columns[i],
                     ColumnOrigin{tree->table.source_id,
                                  tree->table.metadata.name,
                                  schema.column(i).name});
    }
  }
  for (const LogicalOpPtr& child : tree->children) RegisterOrigins(child, ctx);
}

bool ExprCoveredBy(const ScalarExprPtr& expr, const std::vector<int>& cols) {
  std::set<int> used;
  expr->CollectColumns(&used);
  for (int c : used) {
    if (std::find(cols.begin(), cols.end(), c) == cols.end()) return false;
  }
  return true;
}

// Splits a join predicate into equi-key pairs (left expr, right expr) and a
// residual conjunction.
void SplitJoinPredicate(
    const ScalarExprPtr& pred, const std::vector<int>& left_cols,
    const std::vector<int>& right_cols,
    std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>>* pairs,
    std::vector<ScalarExprPtr>* residual) {
  std::vector<ScalarExprPtr> conjuncts;
  SplitConjuncts(pred, &conjuncts);
  for (const ScalarExprPtr& c : conjuncts) {
    if (c->kind == ScalarKind::kBinary && c->op == "=") {
      const ScalarExprPtr& a = c->args[0];
      const ScalarExprPtr& b = c->args[1];
      if (ExprCoveredBy(a, left_cols) && ExprCoveredBy(b, right_cols)) {
        pairs->emplace_back(a, b);
        continue;
      }
      if (ExprCoveredBy(b, left_cols) && ExprCoveredBy(a, right_cols)) {
        pairs->emplace_back(b, a);
        continue;
      }
    }
    residual->push_back(c);
  }
}

// Matches index-sargable conjuncts against an index's key columns:
// an equality prefix plus optional bounds on the next key column.
struct SargMatch {
  RangeSpec spec;
  std::vector<ScalarExprPtr> consumed;
  std::vector<ScalarExprPtr> residual;
  bool usable = false;
};

bool IsConstOrParam(const ScalarExprPtr& e) {
  return e->kind == ScalarKind::kLiteral || e->kind == ScalarKind::kParam;
}

SargMatch MatchIndex(const std::vector<ScalarExprPtr>& conjuncts,
                     const std::vector<int>& key_col_ids) {
  SargMatch match;
  std::vector<bool> used(conjuncts.size(), false);
  for (size_t k = 0; k < key_col_ids.size(); ++k) {
    int key = key_col_ids[k];
    // Equality on this key column?
    bool eq_found = false;
    for (size_t i = 0; i < conjuncts.size() && !eq_found; ++i) {
      if (used[i]) continue;
      const ScalarExprPtr& c = conjuncts[i];
      if (c->kind != ScalarKind::kBinary || c->op != "=") continue;
      for (int side = 0; side < 2; ++side) {
        const ScalarExprPtr& col = c->args[static_cast<size_t>(side)];
        const ScalarExprPtr& val = c->args[static_cast<size_t>(1 - side)];
        if (col->kind == ScalarKind::kColumn && col->column_id == key &&
            IsConstOrParam(val)) {
          match.spec.eq_prefix.push_back(val);
          match.consumed.push_back(c);
          used[i] = true;
          eq_found = true;
          break;
        }
      }
    }
    if (eq_found) continue;
    // Range bounds on this key column, then stop.
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (used[i]) continue;
      const ScalarExprPtr& c = conjuncts[i];
      if (c->kind != ScalarKind::kBinary) continue;
      std::string op = c->op;
      if (op != "<" && op != "<=" && op != ">" && op != ">=") continue;
      const ScalarExprPtr* col = &c->args[0];
      const ScalarExprPtr* val = &c->args[1];
      if ((*col)->kind != ScalarKind::kColumn) {
        std::swap(col, val);
        if (op == "<") op = ">";
        else if (op == "<=") op = ">=";
        else if (op == ">") op = "<";
        else op = "<=";
      }
      if ((*col)->kind != ScalarKind::kColumn ||
          (*col)->column_id != key || !IsConstOrParam(*val)) {
        continue;
      }
      if (op == ">" || op == ">=") {
        if (match.spec.lo == nullptr) {
          match.spec.lo = *val;
          match.spec.lo_inclusive = op == ">=";
          match.consumed.push_back(c);
          used[i] = true;
        }
      } else {
        if (match.spec.hi == nullptr) {
          match.spec.hi = *val;
          match.spec.hi_inclusive = op == "<=";
          match.consumed.push_back(c);
          used[i] = true;
        }
      }
    }
    break;  // No equality on this key column: stop extending the prefix.
  }
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!used[i]) match.residual.push_back(conjuncts[i]);
  }
  match.usable = !match.consumed.empty();
  return match;
}

}  // namespace

Optimizer::Optimizer(OptimizerContext* ctx)
    : ctx_(ctx), memo_(ctx), decoder_(ctx) {}

Result<OptimizeResult> Optimizer::Optimize(
    const LogicalOpPtr& root,
    const std::vector<std::pair<int, bool>>& required_order) {
  RegisterOrigins(root, ctx_);
  int root_gid = memo_.InsertTree(root);

  PhysicalProps required;
  required.sort = required_order;

  std::vector<OptPhase> phases;
  if (ctx_->options().multi_phase) {
    phases = {OptPhase::kTransactionProcessing, OptPhase::kQuickPlan,
              OptPhase::kFull};
  } else {
    phases = {OptPhase::kFull};
  }

  OptimizeResult result;
  Winner final;
  for (OptPhase phase : phases) {
    // Per-phase span (OptPhaseName returns static storage, safe to keep).
    trace::Span phase_span("optimizer.phase", OptPhaseName(phase));
    phase_ = phase;
    remotable_cache_.clear();
    // Winners found with a smaller rule set are re-derived so new
    // alternatives compete ("additional phases may be run in an attempt to
    // find a better solution", §4.1.1).
    for (int g = 0; g < memo_.num_groups(); ++g) {
      memo_.group(g).winners.clear();
    }
    DHQP_ASSIGN_OR_RETURN(final, OptimizeGroup(root_gid, required));
    ctx_->run_stats()->phases_run++;
    ctx_->run_stats()->phase_name = OptPhaseName(phase);
    double threshold =
        phase == OptPhase::kTransactionProcessing ? kTpPhaseCostThreshold
        : phase == OptPhase::kQuickPlan           ? kQuickPhaseCostThreshold
                                                  : -1;
    if (threshold >= 0 && final.cost <= threshold) break;
    if (phase == OptPhase::kFull) break;
  }

  ctx_->run_stats()->groups = memo_.num_groups();
  ctx_->run_stats()->group_exprs = memo_.num_exprs();
  ctx_->run_stats()->best_cost = final.cost;
  result.plan = final.plan;
  result.stats = *ctx_->run_stats();
  return result;
}

void Optimizer::ExploreGroup(int gid) {
  Group& g = memo_.group(gid);
  if (g.explored_in_phase >= static_cast<int>(phase_)) return;
  g.explored_in_phase = static_cast<int>(phase_);

  const auto& rules = ExplorationRules();
  int rounds = 0;
  bool changed = true;
  while (changed && rounds++ < kMaxExplorationRounds &&
         memo_.num_exprs() < ctx_->options().max_memo_exprs) {
    changed = false;
    for (size_t i = 0; i < memo_.group(gid).exprs.size(); ++i) {
      if (memo_.num_exprs() >= ctx_->options().max_memo_exprs) break;
      // Children first, so pattern binding sees their alternatives.
      {
        GroupExpr snapshot = memo_.group(gid).exprs[i];
        for (int c : snapshot.children) ExploreGroup(c);
      }
      for (size_t r = 0; r < rules.size(); ++r) {
        const Rule* rule = rules[r].get();
        if (static_cast<int>(rule->min_phase()) > static_cast<int>(phase_)) {
          continue;
        }
        GroupExpr snapshot = memo_.group(gid).exprs[i];
        if (!rule->Matches(*snapshot.op)) continue;
        uint64_t bit = 1ull << r;
        // Commute-style rules fire once per expr; associativity re-fires as
        // child groups grow (the memo dedupes repeats cheaply).
        bool once = std::string(rule->name()) != "JoinAssociate";
        if (once && (snapshot.rules_fired & bit)) continue;
        memo_.group(gid).exprs[i].rules_fired |= bit;
        int added = rule->Apply(&memo_, gid, snapshot, ctx_);
        ctx_->run_stats()->rules_applied++;
        if (added > 0) changed = true;
      }
    }
  }
}

Result<Winner> Optimizer::OptimizeGroup(int gid,
                                        const PhysicalProps& required) {
  // Cycle guard for parallel requirements: the serial-fallback and gather
  // paths can re-enter this (group, requirement); failing the re-entrant
  // call (treated as "no parallel plan") breaks the loop.
  struct CycleGuard {
    std::set<std::string>* set = nullptr;
    std::string key;
    ~CycleGuard() {
      if (set != nullptr) set->erase(key);
    }
  } cycle_guard;
  if (required.dop > 1) {
    std::string key = std::to_string(gid) + "|" + required.Fingerprint();
    if (parallel_in_progress_.count(key) > 0) {
      return Status::Internal("optimizer: parallel plan search cycle");
    }
    parallel_in_progress_.insert(key);
    cycle_guard.set = &parallel_in_progress_;
    cycle_guard.key = std::move(key);
  }

  {
    Group& g = memo_.group(gid);
    auto it = g.winners.find(required.Fingerprint());
    if (it != g.winners.end() && it->second.valid) return it->second;

    // Static pruning (§4.1.5): a contradicted group reduces to an empty
    // table regardless of requirements.
    if (g.props.contradiction && ctx_->options().enable_static_pruning) {
      auto op = NewPhysicalOp(PhysicalOpKind::kEmptyTable);
      AnnotateFromGroup(op, gid);
      op->estimated_rows = 0;
      op->sort_keys = required.sort;  // Vacuously ordered.
      CostNode(op);
      Winner w{op, op->estimated_cost, true};
      g.winners[required.Fingerprint()] = w;
      return w;
    }
  }

  ExploreGroup(gid);

  Winner best;
  size_t n = memo_.group(gid).exprs.size();
  for (size_t i = 0; i < n; ++i) {
    GroupExpr expr = memo_.group(gid).exprs[i];  // Copy: vector may grow.
    DHQP_RETURN_NOT_OK(ImplementExpr(gid, expr, required, &best));
  }
  DHQP_RETURN_NOT_OK(TryBuildRemoteQuery(gid, required, &best));

  // Serial fallback under a parallel requirement: operators without a
  // native parallel implementation run once and fan out through a
  // Distribute (or hash-repartition, when alignment is demanded) exchange.
  if (required.dop > 1) {
    // Strip ONLY the parallel fields: a sort (or any future semantic
    // requirement) must keep flowing down — a Top group's meaning depends
    // on the sort requirement it receives (see TryParallelPlan).
    PhysicalProps serial_req = required;
    serial_req.dop = 1;
    serial_req.partition_cols.clear();
    auto serial = OptimizeGroup(gid, serial_req);
    if (serial.ok() && ParallelSafe(serial->plan)) {
      auto ex = NewPhysicalOp(PhysicalOpKind::kExchange);
      ex->exchange = required.partition_cols.empty()
                         ? ExchangeKind::kDistribute
                         : ExchangeKind::kRepartitionHash;
      ex->exchange_keys = required.partition_cols;
      ex->dop = required.dop;
      ex->partition_cols = required.partition_cols;
      ex->children.push_back(serial->plan);
      ex->estimated_rows = serial->plan->estimated_rows;
      AnnotateColumns(ex, serial->plan->output_cols);
      Consider(ex, gid, required, &best);
    }
  }

  if (!best.valid) {
    return Status::Internal(
        "optimizer: no physical plan for group rooted at " +
        memo_.group(gid).exprs.front().op->LocalFingerprint());
  }
  memo_.group(gid).winners[required.Fingerprint()] = best;

  // The parallelism enforcer: a serial requirement may be answered by
  // Gather over a parallel subplan; cheaper alternative replaces the
  // cached winner.
  DHQP_RETURN_NOT_OK(TryParallelPlan(gid, required, &best));
  memo_.group(gid).winners[required.Fingerprint()] = best;
  return best;
}

// ---------------------------------------------------------------------------
// Annotation / costing / properties.
// ---------------------------------------------------------------------------

void Optimizer::AnnotateFromGroup(PhysicalOpBuilder& op, int gid) {
  const Group& g = memo_.group(gid);
  op->estimated_rows = g.props.cardinality;
  AnnotateColumns(op, g.props.output_cols);
}

void Optimizer::AnnotateFromChild(PhysicalOpBuilder& op, int gid) {
  op->estimated_rows = memo_.group(gid).props.cardinality;
  AnnotateColumns(op, op->children.front()->output_cols);
}

void Optimizer::AnnotateColumns(PhysicalOpBuilder& op,
                                const std::vector<int>& cols) {
  op->output_cols = cols;
  op->output_types.clear();
  op->output_names.clear();
  for (int c : cols) {
    op->output_types.push_back(ctx_->registry()->TypeOf(c));
    const ColumnInfo& info = ctx_->registry()->Get(c);
    op->output_names.push_back(info.table_alias.empty()
                                   ? info.name
                                   : info.table_alias + "." + info.name);
  }
}

void Optimizer::CostNode(PhysicalOpBuilder& op) {
  double local = LocalCost(*op, costs_);
  // Parallel instances divide the operator's work across dop streams; the
  // exchange itself is excluded — the transfer is the serialization point
  // and its LocalCost already models both sides.
  if (op->dop > 1 && op->kind != PhysicalOpKind::kExchange) {
    local /= op->dop;
  }
  double cost = local;
  for (const PhysicalOpPtr& c : op->children) cost += c->estimated_cost;
  op->estimated_cost = cost;
}

bool Optimizer::IsRescannable(const PhysicalOpPtr& plan) {
  switch (plan->kind) {
    case PhysicalOpKind::kRemoteQuery:
    case PhysicalOpKind::kRemoteScan:
    case PhysicalOpKind::kRemoteRange:
    case PhysicalOpKind::kRemoteFetch:
      return false;
    case PhysicalOpKind::kExchange:
      return false;  // Worker threads run once; Restart is unsupported.
    case PhysicalOpKind::kSpool:
      return true;  // Materialized: rescans never reach the child (§4.1.4).
    default:
      break;
  }
  for (const PhysicalOpPtr& c : plan->children) {
    if (!IsRescannable(c)) return false;
  }
  return true;
}

PhysicalProps Optimizer::Delivered(const PhysicalOpPtr& plan) {
  PhysicalProps props;
  props.sort = plan->sort_keys;
  props.rescannable = IsRescannable(plan);
  props.dop = std::max(plan->dop, 1);
  props.partition_cols = plan->partition_cols;
  return props;
}

bool Optimizer::ParallelSafe(const PhysicalOpPtr& plan) {
  switch (plan->kind) {
    case PhysicalOpKind::kRemoteQuery:
    case PhysicalOpKind::kRemoteScan:
    case PhysicalOpKind::kRemoteRange:
    case PhysicalOpKind::kRemoteFetch:
    case PhysicalOpKind::kFullTextLookup:
      return false;
    default:
      break;
  }
  if (!plan->remote_params.empty()) return false;
  for (const PhysicalOpPtr& c : plan->children) {
    if (!ParallelSafe(c)) return false;
  }
  return true;
}

namespace {

// Sets op->sort_keys for order-preserving operators from their children.
void PropagateOrder(PhysicalOpBuilder& op) {
  if (!op->sort_keys.empty()) return;
  auto keep_covered = [&](const std::vector<std::pair<int, bool>>& sort) {
    std::vector<std::pair<int, bool>> out;
    for (const auto& key : sort) {
      if (std::find(op->output_cols.begin(), op->output_cols.end(),
                    key.first) == op->output_cols.end()) {
        break;  // Order is only meaningful as a prefix.
      }
      out.push_back(key);
    }
    return out;
  };
  switch (op->kind) {
    case PhysicalOpKind::kFilter:
    case PhysicalOpKind::kStartupFilter:
    case PhysicalOpKind::kProject:
    case PhysicalOpKind::kTop:
    case PhysicalOpKind::kSpool:
    case PhysicalOpKind::kStreamAggregate:
      if (!op->children.empty()) {
        op->sort_keys = keep_covered(op->children[0]->sort_keys);
      }
      break;
    case PhysicalOpKind::kHashJoin:
    case PhysicalOpKind::kNestedLoopsJoin:
    case PhysicalOpKind::kMergeJoin:
      // Streamed outer/probe side preserves its order.
      if (!op->children.empty()) {
        op->sort_keys = keep_covered(op->children[0]->sort_keys);
      }
      break;
    default:
      break;
  }
}

}  // namespace

void Optimizer::Consider(PhysicalOpBuilder plan, int gid,
                         const PhysicalProps& required, Winner* best) {
  PropagateOrder(plan);
  CostNode(plan);
  PhysicalOpPtr final = plan;

  PhysicalProps delivered = Delivered(final);
  if (!delivered.Satisfies(required)) {
    // Partitioning enforcer: a dop requirement the plan misses is delivered
    // by an exchange — Distribute fans a serial stream out round-robin;
    // RepartitionHash aligns streams on the required hash columns (what
    // partition-local hash join / aggregate need). Only ParallelSafe
    // subtrees qualify: remote subtrees stay serial (fault-ordinal
    // invariance across dop).
    if (required.dop > 1 &&
        (delivered.dop == 1 || delivered.dop == required.dop) &&
        ParallelSafe(final)) {
      bool dop_miss = delivered.dop != required.dop;
      bool cols_miss = !required.partition_cols.empty() &&
                       delivered.partition_cols != required.partition_cols;
      if (dop_miss || cols_miss) {
        auto ex = NewPhysicalOp(PhysicalOpKind::kExchange);
        ex->exchange = required.partition_cols.empty()
                           ? ExchangeKind::kDistribute
                           : ExchangeKind::kRepartitionHash;
        ex->exchange_keys = required.partition_cols;
        ex->dop = required.dop;
        ex->partition_cols = required.partition_cols;
        ex->children.push_back(final);
        ex->estimated_rows = final->estimated_rows;
        AnnotateColumns(ex, final->output_cols);
        CostNode(ex);
        final = ex;
        delivered = Delivered(final);
      }
    }
    // Enforcer rules (§4.1.1: "for sort, an enforcer can insert a physical
    // sort operation"; §4.1.4 adds the remote spool).
    PhysicalProps sort_only;
    sort_only.sort = required.sort;
    if (required.HasSort() && !delivered.Satisfies(sort_only)) {
      auto sort = NewPhysicalOp(PhysicalOpKind::kSort);
      sort->sort_keys = required.sort;
      sort->children.push_back(final);
      sort->estimated_rows = final->estimated_rows;
      AnnotateColumns(sort, final->output_cols);
      CostNode(sort);
      final = sort;
      delivered = Delivered(final);
    }
    if (required.rescannable && !delivered.rescannable) {
      auto spool = NewPhysicalOp(PhysicalOpKind::kSpool);
      spool->children.push_back(final);
      spool->estimated_rows = final->estimated_rows;
      spool->sort_keys = final->sort_keys;
      AnnotateColumns(spool, final->output_cols);
      CostNode(spool);
      final = spool;
      delivered = Delivered(final);
    }
    if (!delivered.Satisfies(required)) return;  // Candidate unusable.
  }
  (void)gid;
  if (!best->valid || final->estimated_cost < best->cost) {
    best->plan = final;
    best->cost = final->estimated_cost;
    best->valid = true;
  }
}

// ---------------------------------------------------------------------------
// Implementation rules.
// ---------------------------------------------------------------------------

Status Optimizer::ImplementExpr(int gid, const GroupExpr& expr,
                                const PhysicalProps& required, Winner* best) {
  // Parallel requirements use the dedicated (narrower) implementation set;
  // everything it cannot cover falls back to Distribute(serial winner) at
  // the group level.
  if (required.dop > 1) return ImplementParallel(gid, expr, required, best);
  switch (expr.op->kind) {
    case LogicalOpKind::kGet:
      return ImplementGet(gid, expr, required, best);
    case LogicalOpKind::kFilter:
      return ImplementFilter(gid, expr, required, best);
    case LogicalOpKind::kJoin:
      return ImplementJoin(gid, expr, required, best);
    case LogicalOpKind::kAggregate:
      return ImplementAggregate(gid, expr, required, best);
    case LogicalOpKind::kProject: {
      // Variant A: optimize the child unconstrained and enforce above.
      auto child = OptimizeGroup(expr.children[0], PhysicalProps{});
      if (child.ok()) {
        auto op = NewPhysicalOp(PhysicalOpKind::kProject);
        op->exprs = expr.op->exprs;
        op->children.push_back(child->plan);
        AnnotateFromGroup(op, gid);
        Consider(op, gid, required, best);
      }
      // Variant B: pass a sort requirement down when the projection keeps
      // the sort columns.
      if (required.HasSort()) {
        bool covered = true;
        for (const auto& [col, asc] : required.sort) {
          if (std::find(expr.op->project_cols.begin(),
                        expr.op->project_cols.end(),
                        col) == expr.op->project_cols.end()) {
            covered = false;
            break;
          }
        }
        if (covered) {
          PhysicalProps child_req;
          child_req.sort = required.sort;
          auto sorted_child = OptimizeGroup(expr.children[0], child_req);
          if (sorted_child.ok()) {
            auto op = NewPhysicalOp(PhysicalOpKind::kProject);
            op->exprs = expr.op->exprs;
            op->children.push_back(sorted_child->plan);
            AnnotateFromGroup(op, gid);
            Consider(op, gid, required, best);
          }
        }
      }
      return Status::OK();
    }
    case LogicalOpKind::kTop: {
      PhysicalProps child_req;
      child_req.sort = required.sort;
      auto child = OptimizeGroup(expr.children[0], child_req);
      if (child.ok()) {
        auto op = NewPhysicalOp(PhysicalOpKind::kTop);
        op->limit = expr.op->limit;
        op->children.push_back(child->plan);
        AnnotateFromChild(op, gid);
        Consider(op, gid, required, best);
      }
      return Status::OK();
    }
    case LogicalOpKind::kUnionAll: {
      std::vector<PhysicalOpPtr> children;
      for (int c : expr.children) {
        auto child = OptimizeGroup(c, PhysicalProps{});
        if (!child.ok()) return Status::OK();
        children.push_back(child->plan);
      }
      auto op = NewPhysicalOp(PhysicalOpKind::kConcat);
      op->children = std::move(children);
      AnnotateFromChild(op, gid);
      Consider(op, gid, required, best);
      return Status::OK();
    }
    case LogicalOpKind::kConstTable: {
      auto op = NewPhysicalOp(PhysicalOpKind::kConstTable);
      op->const_rows = expr.op->const_rows;
      AnnotateFromGroup(op, gid);
      Consider(op, gid, required, best);
      return Status::OK();
    }
    case LogicalOpKind::kEmpty: {
      auto op = NewPhysicalOp(PhysicalOpKind::kEmptyTable);
      AnnotateFromGroup(op, gid);
      Consider(op, gid, required, best);
      return Status::OK();
    }
    case LogicalOpKind::kFullTextGet: {
      auto op = NewPhysicalOp(PhysicalOpKind::kFullTextLookup);
      op->ft_table = expr.op->ft_table;
      op->ft_query = expr.op->ft_query;
      AnnotateFromGroup(op, gid);
      Consider(op, gid, required, best);
      return Status::OK();
    }
  }
  return Status::OK();
}

Status Optimizer::ImplementParallel(int gid, const GroupExpr& expr,
                                    const PhysicalProps& required,
                                    Winner* best) {
  const int dop = required.dop;
  switch (expr.op->kind) {
    case LogicalOpKind::kGet: {
      const LogicalOp& get = *expr.op;
      if (get.table.source_id != kLocalSource) return Status::OK();
      // Partitioned scan: dop instances share the table block-cyclically.
      // Delivered partitioning is arbitrary (no hash columns); a
      // repartition enforcer aligns it when the parent demands keys.
      auto scan = NewPhysicalOp(PhysicalOpKind::kTableScan);
      scan->table = get.table;
      scan->alias = get.alias;
      scan->dop = dop;
      AnnotateFromGroup(scan, gid);
      scan->estimated_rows = std::max(get.table.metadata.cardinality, 0.0);
      Consider(scan, gid, required, best);
      return Status::OK();
    }
    case LogicalOpKind::kFilter: {
      const LogicalOp& filter = *expr.op;
      bool column_free =
          filter.predicate != nullptr && filter.predicate->IsColumnFree();
      auto make = [&](const Winner& child) {
        auto op = NewPhysicalOp(column_free ? PhysicalOpKind::kStartupFilter
                                            : PhysicalOpKind::kFilter);
        op->predicate = filter.predicate;
        op->dop = dop;
        op->children.push_back(child.plan);
        op->partition_cols = child.plan->partition_cols;
        AnnotateFromChild(op, gid);
        Consider(op, gid, required, best);
      };
      PhysicalProps child_req;
      child_req.dop = dop;
      child_req.partition_cols = required.partition_cols;
      auto aligned = OptimizeGroup(expr.children[0], child_req);
      if (aligned.ok()) make(*aligned);
      if (!required.partition_cols.empty()) {
        // Repartitioning *above* the filter moves only surviving rows.
        child_req.partition_cols.clear();
        auto any = OptimizeGroup(expr.children[0], child_req);
        if (any.ok()) make(*any);
      }
      return Status::OK();
    }
    case LogicalOpKind::kProject: {
      const std::vector<int>& child_cols =
          memo_.group(expr.children[0]).props.output_cols;
      auto in_child = [&](int col) {
        return std::find(child_cols.begin(), child_cols.end(), col) !=
               child_cols.end();
      };
      PhysicalProps child_req;
      child_req.dop = dop;
      bool covered = !required.partition_cols.empty();
      for (int col : required.partition_cols) {
        if (!in_child(col)) {
          covered = false;
          break;
        }
      }
      if (covered) child_req.partition_cols = required.partition_cols;
      auto child = OptimizeGroup(expr.children[0], child_req);
      if (child.ok()) {
        auto op = NewPhysicalOp(PhysicalOpKind::kProject);
        op->exprs = expr.op->exprs;
        op->dop = dop;
        op->children.push_back(child->plan);
        // Partitioning survives projection only when every hash column is
        // still in the output.
        const std::vector<int>& out_cols = memo_.group(gid).props.output_cols;
        bool kept = !child->plan->partition_cols.empty();
        for (int col : child->plan->partition_cols) {
          if (std::find(out_cols.begin(), out_cols.end(), col) ==
              out_cols.end()) {
            kept = false;
            break;
          }
        }
        if (kept) op->partition_cols = child->plan->partition_cols;
        AnnotateFromGroup(op, gid);
        Consider(op, gid, required, best);
      }
      return Status::OK();
    }
    case LogicalOpKind::kJoin: {
      const LogicalOp& join = *expr.op;
      int left_gid = expr.children[0];
      int right_gid = expr.children[1];
      std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> pairs;
      std::vector<ScalarExprPtr> residual;
      SplitJoinPredicate(join.predicate,
                         memo_.group(left_gid).props.output_cols,
                         memo_.group(right_gid).props.output_cols, &pairs,
                         &residual);
      if (pairs.empty()) return Status::OK();
      // Hash-aligned partitioned hash join: both inputs repartitioned on
      // the (column-only, same-type) equi keys, so every key group is
      // complete within one partition-local build/probe table. Same-type
      // keys keep hash(left) == hash(right) for matching values.
      PhysicalProps lreq, rreq;
      lreq.dop = rreq.dop = dop;
      for (const auto& [l, r] : pairs) {
        if (l->kind != ScalarKind::kColumn || r->kind != ScalarKind::kColumn ||
            l->type != r->type) {
          return Status::OK();
        }
        lreq.partition_cols.push_back(l->column_id);
        rreq.partition_cols.push_back(r->column_id);
      }
      auto left = OptimizeGroup(left_gid, lreq);
      auto right = OptimizeGroup(right_gid, rreq);
      if (left.ok() && right.ok()) {
        auto op = NewPhysicalOp(PhysicalOpKind::kHashJoin);
        op->join_type = join.join_type;
        op->key_pairs = pairs;
        op->predicate = MergeConjuncts(residual);
        op->dop = dop;
        op->children.push_back(left->plan);
        op->children.push_back(right->plan);
        // Output rows carry genuine left-key values (hence the left-key
        // partitioning) for every type whose output preserves left rows.
        if (join.join_type == JoinType::kInner ||
            join.join_type == JoinType::kLeftOuter ||
            join.join_type == JoinType::kSemi ||
            join.join_type == JoinType::kAnti) {
          op->partition_cols = lreq.partition_cols;
        }
        std::vector<int> cols = op->children[0]->output_cols;
        if (join.join_type != JoinType::kSemi &&
            join.join_type != JoinType::kAnti) {
          cols.insert(cols.end(), op->children[1]->output_cols.begin(),
                      op->children[1]->output_cols.end());
        }
        op->estimated_rows = memo_.group(gid).props.cardinality;
        AnnotateColumns(op, cols);
        Consider(op, gid, required, best);
      }
      return Status::OK();
    }
    case LogicalOpKind::kAggregate: {
      const LogicalOp& agg = *expr.op;
      // Scalar aggregates need a global merge; they stay serial. Grouped
      // hash aggregation partitioned on the full group-by key set sees
      // complete groups per partition — the gather above is the merge
      // phase, a pure concatenation of disjoint partial results.
      if (agg.group_by.empty()) return Status::OK();
      PhysicalProps child_req;
      child_req.dop = dop;
      child_req.partition_cols = agg.group_by;
      auto child = OptimizeGroup(expr.children[0], child_req);
      if (child.ok()) {
        auto op = NewPhysicalOp(PhysicalOpKind::kHashAggregate);
        op->group_by = agg.group_by;
        op->aggregates = agg.aggregates;
        op->dop = dop;
        op->partition_cols = agg.group_by;
        op->children.push_back(child->plan);
        AnnotateFromGroup(op, gid);
        Consider(op, gid, required, best);
      }
      return Status::OK();
    }
    default:
      return Status::OK();
  }
}

Status Optimizer::TryParallelPlan(int gid, const PhysicalProps& required,
                                  Winner* best) {
  int dop = ctx_->options().max_dop;
  if (dop <= 1 || required.dop != 1) return Status::OK();
  // An ordering requirement never crosses a gather: arrival order is
  // nondeterministic, and re-sorting above it is only equivalent when the
  // group's RESULT is order-independent — which a Top inside the group
  // breaks (TOP n ORDER BY means truncate-after-sort; the sort requirement
  // reaching the Top group is what carries that semantics). So
  // sort-requiring groups stay serial; parallelism applies below ordering
  // boundaries, where the requirement is empty.
  if (required.HasSort()) return Status::OK();
  const Group& g = memo_.group(gid);
  // Serial-remote-subtree rule: only fully-local groups parallelize.
  if (g.props.locality != kLocalSource) return Status::OK();
  if (g.props.contradiction && ctx_->options().enable_static_pruning) {
    return Status::OK();
  }
  PhysicalProps preq;
  preq.dop = dop;
  auto par = OptimizeGroup(gid, preq);
  if (!par.ok()) return Status::OK();  // No parallel implementation.
  if (!ParallelSafe(par->plan)) return Status::OK();
  auto gather = NewPhysicalOp(PhysicalOpKind::kExchange);
  gather->exchange = ExchangeKind::kGather;
  gather->dop = 1;
  gather->children.push_back(par->plan);
  gather->estimated_rows = par->plan->estimated_rows;
  AnnotateColumns(gather, par->plan->output_cols);
  Consider(gather, gid, required, best);
  return Status::OK();
}

Status Optimizer::ImplementGet(int gid, const GroupExpr& expr,
                               const PhysicalProps& required, Winner* best) {
  const LogicalOp& get = *expr.op;
  bool remote = get.table.source_id != kLocalSource;

  auto scan = NewPhysicalOp(remote ? PhysicalOpKind::kRemoteScan
                                   : PhysicalOpKind::kTableScan);
  scan->table = get.table;
  scan->alias = get.alias;
  AnnotateFromGroup(scan, gid);
  scan->estimated_rows = std::max(get.table.metadata.cardinality, 0.0);
  Consider(scan, gid, required, best);

  // Ordered full-index scans when the requirement asks for a sort the index
  // delivers (and the provider supports index navigation, §3.2.2).
  if (ctx_->options().enable_index_paths && required.HasSort() &&
      (!remote || get.table.caps.supports_indexes)) {
    for (const IndexMetadata& idx : get.table.metadata.indexes) {
      std::vector<std::pair<int, bool>> order;
      for (const std::string& key : idx.key_columns) {
        int ord = get.table.metadata.schema.FindColumn(key);
        if (ord < 0) break;
        order.emplace_back(get.columns[static_cast<size_t>(ord)], true);
      }
      // The index must deliver the required sort as a prefix.
      if (order.size() < required.sort.size()) continue;
      bool match = true;
      for (size_t i = 0; i < required.sort.size(); ++i) {
        if (order[i] != required.sort[i]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      auto range = NewPhysicalOp(remote ? PhysicalOpKind::kRemoteRange
                                        : PhysicalOpKind::kIndexRange);
      range->table = get.table;
      range->alias = get.alias;
      range->index_name = idx.name;
      range->sort_keys = order;
      AnnotateFromGroup(range, gid);
      range->estimated_rows = std::max(get.table.metadata.cardinality, 0.0);
      Consider(range, gid, required, best);
    }
  }
  return Status::OK();
}

Status Optimizer::ImplementFilter(int gid, const GroupExpr& expr,
                                  const PhysicalProps& required,
                                  Winner* best) {
  const LogicalOp& filter = *expr.op;
  int child_gid = expr.children[0];
  bool column_free =
      filter.predicate != nullptr && filter.predicate->IsColumnFree();

  // Plain filter over the unconstrained child (enforcers above as needed).
  {
    auto child = OptimizeGroup(child_gid, PhysicalProps{});
    if (child.ok()) {
      auto op = NewPhysicalOp(column_free ? PhysicalOpKind::kStartupFilter
                                          : PhysicalOpKind::kFilter);
      op->predicate = filter.predicate;
      op->children.push_back(child->plan);
      AnnotateFromChild(op, gid);
      Consider(op, gid, required, best);
    }
  }
  // Sort-passing variant.
  if (required.HasSort()) {
    PhysicalProps child_req;
    child_req.sort = required.sort;
    auto child = OptimizeGroup(child_gid, child_req);
    if (child.ok()) {
      auto op = NewPhysicalOp(column_free ? PhysicalOpKind::kStartupFilter
                                          : PhysicalOpKind::kFilter);
      op->predicate = filter.predicate;
      op->children.push_back(child->plan);
      AnnotateFromChild(op, gid);
      Consider(op, gid, required, best);
    }
  }

  // Index access paths for Filter(Get): local index range, remote range
  // (IRowsetIndex), remote fetch (IRowsetLocate bookmarks) — §3.3, §4.1.2.
  if (!ctx_->options().enable_index_paths || filter.predicate == nullptr) {
    return Status::OK();
  }
  std::vector<ScalarExprPtr> conjuncts;
  SplitConjuncts(filter.predicate, &conjuncts);

  const Group& child_group = memo_.group(child_gid);
  for (const GroupExpr& child_expr : child_group.exprs) {
    if (child_expr.op->kind != LogicalOpKind::kGet) continue;
    const LogicalOp& get = *child_expr.op;
    bool remote = get.table.source_id != kLocalSource;
    if (remote && !get.table.caps.supports_indexes) continue;

    for (const IndexMetadata& idx : get.table.metadata.indexes) {
      std::vector<int> key_ids;
      for (const std::string& key : idx.key_columns) {
        int ord = get.table.metadata.schema.FindColumn(key);
        if (ord >= 0) key_ids.push_back(get.columns[static_cast<size_t>(ord)]);
      }
      SargMatch match = MatchIndex(conjuncts, key_ids);
      if (!match.usable) continue;

      double sel = EstimateSelectivity(MergeConjuncts(match.consumed),
                                       child_group.props, ctx_);
      double range_rows =
          std::max(1.0, child_group.props.cardinality * sel);

      std::vector<PhysicalOpKind> kinds;
      if (remote) {
        kinds.push_back(PhysicalOpKind::kRemoteRange);
        if (get.table.caps.supports_bookmarks) {
          kinds.push_back(PhysicalOpKind::kRemoteFetch);
        }
      } else {
        kinds.push_back(PhysicalOpKind::kIndexRange);
      }
      for (PhysicalOpKind kind : kinds) {
        auto range = NewPhysicalOp(kind);
        range->table = get.table;
        range->alias = get.alias;
        range->index_name = idx.name;
        range->range = match.spec;
        AnnotateColumns(range, get.columns);
        range->estimated_rows = range_rows;
        // A fully-equal prefix still yields key order on the remainder.
        for (int key_id : key_ids) range->sort_keys.emplace_back(key_id, true);

        PhysicalOpBuilder top = range;
        if (!match.residual.empty()) {
          CostNode(range);
          auto res = NewPhysicalOp(PhysicalOpKind::kFilter);
          res->predicate = MergeConjuncts(match.residual);
          res->children.push_back(range);
          AnnotateFromChild(res, gid);
          top = res;
        } else {
          range->estimated_rows = memo_.group(gid).props.cardinality;
        }
        Consider(top, gid, required, best);
      }
    }
  }
  return Status::OK();
}

Status Optimizer::ImplementJoin(int gid, const GroupExpr& expr,
                                const PhysicalProps& required, Winner* best) {
  const LogicalOp& join = *expr.op;
  // Joins stream their own children's columns: annotate with the actual
  // child orders (which differ from the group's canonical order for plans
  // built from commuted alternatives).
  auto annotate_join = [&](PhysicalOpBuilder& op) {
    std::vector<int> cols = op->children[0]->output_cols;
    if (join.join_type != JoinType::kSemi &&
        join.join_type != JoinType::kAnti) {
      cols.insert(cols.end(), op->children[1]->output_cols.begin(),
                  op->children[1]->output_cols.end());
    }
    op->estimated_rows = memo_.group(gid).props.cardinality;
    AnnotateColumns(op, cols);
  };
  int left_gid = expr.children[0];
  int right_gid = expr.children[1];
  const std::vector<int>& left_cols = memo_.group(left_gid).props.output_cols;
  const std::vector<int>& right_cols =
      memo_.group(right_gid).props.output_cols;

  std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> pairs;
  std::vector<ScalarExprPtr> residual;
  SplitJoinPredicate(join.predicate, left_cols, right_cols, &pairs, &residual);

  // Hash join: equi keys required.
  if (!pairs.empty()) {
    auto left = OptimizeGroup(left_gid, PhysicalProps{});
    auto right = OptimizeGroup(right_gid, PhysicalProps{});
    if (left.ok() && right.ok()) {
      auto op = NewPhysicalOp(PhysicalOpKind::kHashJoin);
      op->join_type = join.join_type;
      op->key_pairs = pairs;
      op->predicate = MergeConjuncts(residual);
      op->children.push_back(left->plan);
      op->children.push_back(right->plan);
      annotate_join(op);
      Consider(op, gid, required, best);
    }
  }

  // Merge join: column-only equi keys, both sides sorted (via enforcers).
  if (!pairs.empty() && join.join_type == JoinType::kInner) {
    bool all_columns = true;
    PhysicalProps lreq, rreq;
    for (const auto& [l, r] : pairs) {
      if (l->kind != ScalarKind::kColumn || r->kind != ScalarKind::kColumn) {
        all_columns = false;
        break;
      }
      lreq.sort.emplace_back(l->column_id, true);
      rreq.sort.emplace_back(r->column_id, true);
    }
    if (all_columns) {
      auto left = OptimizeGroup(left_gid, lreq);
      auto right = OptimizeGroup(right_gid, rreq);
      if (left.ok() && right.ok()) {
        auto op = NewPhysicalOp(PhysicalOpKind::kMergeJoin);
        op->join_type = join.join_type;
        op->key_pairs = pairs;
        op->predicate = MergeConjuncts(residual);
        op->children.push_back(left->plan);
        op->children.push_back(right->plan);
        annotate_join(op);
        Consider(op, gid, required, best);
      }
    }
  }

  // Nested loops join: any predicate and all join types. The inner side is
  // required to be rescannable; the Spool enforcer delivers it over remote
  // streams (§4.1.4).
  {
    PhysicalProps inner_req;
    inner_req.rescannable = ctx_->options().enable_spool_enforcer;
    auto left = OptimizeGroup(left_gid, PhysicalProps{});
    auto right = OptimizeGroup(right_gid, inner_req);
    if (left.ok() && right.ok()) {
      auto op = NewPhysicalOp(PhysicalOpKind::kNestedLoopsJoin);
      op->join_type = join.join_type;
      op->predicate = join.predicate;
      op->children.push_back(left->plan);
      op->children.push_back(right->plan);
      annotate_join(op);
      Consider(op, gid, required, best);
    }
  }

  // Parameterized remote join (§4.1.2: "parameterization enables pushing
  // parameters into the remote sources"): drive a remote query per outer
  // row, binding the join keys as parameters. Wins when the outer side is
  // small and the remote side is large but indexed/selective.
  if (ctx_->options().enable_parameterization && !pairs.empty() &&
      (join.join_type == JoinType::kInner ||
       join.join_type == JoinType::kSemi)) {
    int loc = memo_.group(right_gid).props.locality;
    if (loc >= 0) {
      const ProviderCapabilities& caps =
          ctx_->catalog()->ServerSource(loc)->capabilities();
      if (caps.supports_command && caps.supports_parameters &&
          caps.SupportsSqlLevel(SqlSupportLevel::kMinimum)) {
        LogicalOpPtr tree = ExtractRemotableTree(right_gid, caps);
        if (tree != nullptr) {
          std::vector<ScalarExprPtr> param_preds;
          std::vector<std::pair<std::string, ScalarExprPtr>> bindings;
          for (const auto& [l, r] : pairs) {
            std::string name =
                "@__corr" + std::to_string(correlation_counter_++);
            param_preds.push_back(
                MakeComparison("=", r, MakeParam(name, r->type)));
            bindings.emplace_back(name, l);
          }
          LogicalOpPtr filtered =
              MakeFilter(tree, MergeConjuncts(param_preds));
          auto decoded = decoder_.Decode(filtered, caps);
          if (decoded.ok()) {
            auto left = OptimizeGroup(left_gid, PhysicalProps{});
            if (left.ok()) {
              auto inner = NewPhysicalOp(PhysicalOpKind::kRemoteQuery);
              inner->table.source_id = loc;
              inner->table.server_name = ctx_->catalog()->ServerName(loc);
              inner->remote_sql = decoded->sql;
              inner->remote_param_names = decoded->params;
              AnnotateColumns(inner, decoded->output_cols);
              // Expected matches per probe: right rows / join key ndv.
              double right_card = memo_.group(right_gid).props.cardinality;
              double ndv = std::max(1.0, right_card * 0.1);
              if (pairs[0].second->kind == ScalarKind::kColumn) {
                const ColumnStatistics* stats =
                    ctx_->StatsFor(pairs[0].second->column_id);
                if (stats != nullptr && stats->distinct_count > 0) {
                  ndv = stats->distinct_count;
                }
              }
              inner->estimated_rows = std::max(1.0, right_card / ndv);
              CostNode(inner);

              auto op = NewPhysicalOp(PhysicalOpKind::kNestedLoopsJoin);
              op->join_type = join.join_type;
              op->predicate = MergeConjuncts(residual);
              op->remote_params = bindings;
              op->children.push_back(left->plan);
              op->children.push_back(inner);
              annotate_join(op);
              Consider(op, gid, required, best);
            }
          }
        }
      }
    }
  }
  return Status::OK();
}

Status Optimizer::ImplementAggregate(int gid, const GroupExpr& expr,
                                     const PhysicalProps& required,
                                     Winner* best) {
  const LogicalOp& agg = *expr.op;
  int child_gid = expr.children[0];

  // Hash aggregation (or a trivial stream for scalar aggregates).
  {
    auto child = OptimizeGroup(child_gid, PhysicalProps{});
    if (child.ok()) {
      auto op = NewPhysicalOp(agg.group_by.empty()
                                  ? PhysicalOpKind::kStreamAggregate
                                  : PhysicalOpKind::kHashAggregate);
      op->group_by = agg.group_by;
      op->aggregates = agg.aggregates;
      op->children.push_back(child->plan);
      AnnotateFromGroup(op, gid);
      Consider(op, gid, required, best);
    }
  }
  // Stream aggregation over sorted input.
  if (!agg.group_by.empty()) {
    PhysicalProps child_req;
    for (int g : agg.group_by) child_req.sort.emplace_back(g, true);
    auto child = OptimizeGroup(child_gid, child_req);
    if (child.ok()) {
      auto op = NewPhysicalOp(PhysicalOpKind::kStreamAggregate);
      op->group_by = agg.group_by;
      op->aggregates = agg.aggregates;
      op->children.push_back(child->plan);
      AnnotateFromGroup(op, gid);
      Consider(op, gid, required, best);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Build remote query (§4.1.2) with the §4.1.4 framework extension.
// ---------------------------------------------------------------------------

LogicalOpPtr Optimizer::ExtractRemotableTree(
    int gid, const ProviderCapabilities& caps) {
  auto it = remotable_cache_.find(gid);
  if (it != remotable_cache_.end()) return it->second;
  remotable_cache_[gid] = nullptr;  // Cycle guard.

  const Group& g = memo_.group(gid);
  for (const GroupExpr& expr : g.exprs) {
    switch (expr.op->kind) {
      case LogicalOpKind::kGet:
      case LogicalOpKind::kFilter:
      case LogicalOpKind::kProject:
      case LogicalOpKind::kJoin:
      case LogicalOpKind::kAggregate:
        break;
      default:
        continue;
    }
    auto tree = std::make_shared<LogicalOp>(*expr.op);
    tree->children.clear();
    bool ok = true;
    for (int c : expr.children) {
      LogicalOpPtr child = ExtractRemotableTree(c, caps);
      if (child == nullptr) {
        ok = false;
        break;
      }
      tree->children.push_back(std::move(child));
    }
    if (!ok) continue;
    if (decoder_.IsRemotable(tree, caps)) {
      remotable_cache_[gid] = tree;
      return tree;
    }
  }
  return nullptr;
}

Status Optimizer::TryBuildRemoteQuery(int gid, const PhysicalProps& required,
                                      Winner* best) {
  if (!ctx_->options().enable_remote_pushdown) return Status::OK();
  const Group& g = memo_.group(gid);
  int loc = g.props.locality;
  if (loc < 0) return Status::OK();
  const ProviderCapabilities& caps =
      ctx_->catalog()->ServerSource(loc)->capabilities();
  if (!caps.supports_command ||
      !caps.SupportsSqlLevel(SqlSupportLevel::kMinimum)) {
    return Status::OK();
  }
  LogicalOpPtr tree = ExtractRemotableTree(gid, caps);
  if (tree == nullptr) return Status::OK();

  auto emit = [&](const std::vector<std::pair<int, bool>>& order) {
    auto decoded = decoder_.Decode(tree, caps, order);
    if (!decoded.ok()) return;
    auto op = NewPhysicalOp(PhysicalOpKind::kRemoteQuery);
    op->table.source_id = loc;
    op->table.server_name = ctx_->catalog()->ServerName(loc);
    op->remote_sql = decoded->sql;
    op->remote_param_names = decoded->params;
    op->sort_keys = order;  // Delivered order, if any.
    AnnotateColumns(op, decoded->output_cols);
    op->estimated_rows = g.props.cardinality;
    Consider(op, gid, required, best);
  };
  emit({});
  // Sorts are remotable too (§2.1): a variant with the required order
  // pushed into the remote statement competes with local Sort enforcement.
  if (required.HasSort()) emit(required.sort);
  return Status::OK();
}

}  // namespace dhqp
