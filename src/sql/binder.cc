#include "src/sql/binder.h"

#include <algorithm>
#include <functional>

#include "src/common/date.h"
#include "src/sql/parser.h"

namespace dhqp {

namespace {

bool IsAggregateName(const std::string& name) {
  return name == "COUNT" || name == "SUM" || name == "AVG" || name == "MIN" ||
         name == "MAX";
}

// Walks an AST expression tree collecting aggregate function calls.
void CollectAggregates(const Expr& expr, std::vector<const Expr*>* out) {
  if (expr.kind == ExprKind::kFunctionCall && IsAggregateName(expr.name)) {
    out->push_back(&expr);
    return;  // No nested aggregates.
  }
  for (const ExprPtr& arg : expr.args) CollectAggregates(*arg, out);
}

// Splits an AST predicate into top-level AND conjuncts.
void SplitAstConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary && expr->name == "AND") {
    SplitAstConjuncts(expr->args[0].get(), out);
    SplitAstConjuncts(expr->args[1].get(), out);
    return;
  }
  out->push_back(expr);
}

bool IsSubqueryPredicate(const Expr& expr) {
  return expr.kind == ExprKind::kExists || expr.kind == ExprKind::kInSubquery;
}

bool IsNumeric(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDouble;
}

// Re-types an untyped parameter/NULL literal to `type` (expressions are
// immutable; returns a fresh node).
ScalarExprPtr Retype(const ScalarExprPtr& e, DataType type) {
  if (e->kind == ScalarKind::kParam && e->type == DataType::kNull) {
    return MakeParam(e->op, type);
  }
  return e;
}

// If `e` is a string literal and `target` is kDate, converts the literal to
// a date value so date comparisons are typed consistently.
Result<ScalarExprPtr> CoerceLiteral(const ScalarExprPtr& e, DataType target) {
  if (e->kind == ScalarKind::kLiteral && !e->literal.is_null() &&
      e->literal.type() == DataType::kString && target == DataType::kDate) {
    DHQP_ASSIGN_OR_RETURN(int64_t days, ParseIsoDate(e->literal.string_value()));
    return MakeLiteral(Value::Date(days));
  }
  return e;
}

}  // namespace

Binder::Binder(Catalog* catalog) : catalog_(catalog) {}

Result<BoundStatement> Binder::BindSelect(const SelectStatement& stmt) {
  if (registry_ == nullptr) registry_ = std::make_shared<ColumnRegistry>();

  BoundStatement out;
  out.registry = registry_;

  std::vector<CoreResult> cores;
  bool single_core = stmt.cores.size() == 1;
  for (const auto& core : stmt.cores) {
    DHQP_ASSIGN_OR_RETURN(
        CoreResult result,
        BindCore(*core, nullptr, single_core ? &stmt.order_by : nullptr,
                 single_core ? &out.order_by : nullptr));
    cores.push_back(std::move(result));
  }

  if (cores.size() == 1) {
    out.root = cores[0].root;
    out.output_cols = cores[0].output_cols;
    out.output_names = cores[0].output_names;
    out.parameters = parameters_;
    return out;
  }
  {
    // UNION ALL: all cores must agree in arity; output shape comes from the
    // first branch.
    for (size_t i = 1; i < cores.size(); ++i) {
      if (cores[i].output_cols.size() != cores[0].output_cols.size()) {
        return Status::InvalidArgument(
            "UNION ALL branches have different column counts");
      }
    }
    std::vector<LogicalOpPtr> children;
    children.reserve(cores.size());
    for (CoreResult& c : cores) children.push_back(std::move(c.root));
    out.root = MakeUnionAll(std::move(children));
    out.output_cols = cores[0].output_cols;
    out.output_names = cores[0].output_names;
  }

  // ORDER BY over UNION ALL: match by output ordinal or output name (the
  // single-core path resolves arbitrary columns inside BindCore).
  for (const OrderItem& item : stmt.order_by) {
    const Expr& e = *item.expr;
    int col = -1;
    if (e.kind == ExprKind::kLiteral && !e.literal.is_null() &&
        e.literal.type() == DataType::kInt64) {
      int64_t ordinal = e.literal.int64_value();
      if (ordinal < 1 ||
          ordinal > static_cast<int64_t>(out.output_cols.size())) {
        return Status::InvalidArgument("ORDER BY ordinal out of range");
      }
      col = out.output_cols[static_cast<size_t>(ordinal - 1)];
    } else if (e.kind == ExprKind::kColumnRef) {
      const std::string& name = e.column_path.back();
      for (size_t i = 0; i < out.output_names.size(); ++i) {
        if (EqualsIgnoreCase(out.output_names[i], name)) {
          col = out.output_cols[i];
          break;
        }
      }
    }
    if (col < 0) {
      return Status::NotSupported(
          "ORDER BY over UNION ALL supports output columns and ordinals");
    }
    out.order_by.emplace_back(col, item.ascending);
  }

  out.parameters = parameters_;
  return out;
}

Result<ScalarExprPtr> Binder::BindValueExpr(const Expr& expr) {
  if (registry_ == nullptr) registry_ = std::make_shared<ColumnRegistry>();
  Scope empty;
  return BindExpr(expr, empty);
}

Result<ScalarExprPtr> Binder::BindSingleTableExpr(
    const Expr& expr, const Schema& schema, const std::string& alias,
    std::vector<int>* column_ids) {
  if (registry_ == nullptr) registry_ = std::make_shared<ColumnRegistry>();
  if (column_ids->empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      column_ids->push_back(
          registry_->Add(alias, schema.column(i).name, schema.column(i).type));
    }
  }
  Scope scope;
  scope.tables.push_back(TableScope{alias, schema, *column_ids});
  return BindExpr(expr, scope);
}

Result<Binder::CoreResult> Binder::BindCore(
    const SelectCore& core, const Scope* outer,
    const std::vector<OrderItem>* order_items,
    std::vector<std::pair<int, bool>>* order_cols) {
  Scope scope;
  scope.outer = outer;

  LogicalOpPtr tree;
  if (core.from != nullptr) {
    DHQP_ASSIGN_OR_RETURN(tree, BindTableRef(*core.from, &scope));
  } else {
    tree = MakeConstTable({Row{}}, {}, {});
  }

  // WHERE: bind plain conjuncts into one filter; EXISTS / IN-subquery
  // conjuncts become semi/anti joins on top.
  std::vector<const Expr*> conjuncts;
  SplitAstConjuncts(core.where.get(), &conjuncts);
  std::vector<ScalarExprPtr> plain;
  std::vector<const Expr*> subquery_preds;
  for (const Expr* c : conjuncts) {
    if (IsSubqueryPredicate(*c)) {
      subquery_preds.push_back(c);
    } else {
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr bound, BindExpr(*c, scope));
      plain.push_back(std::move(bound));
    }
  }
  if (!plain.empty()) tree = MakeFilter(tree, MergeConjuncts(plain));
  for (const Expr* pred : subquery_preds) {
    DHQP_ASSIGN_OR_RETURN(tree, ApplySubqueryPredicate(tree, *pred, scope));
  }

  // Aggregation.
  std::vector<const Expr*> agg_calls;
  for (const SelectItem& item : core.items) {
    if (item.expr != nullptr) CollectAggregates(*item.expr, &agg_calls);
  }
  if (core.having != nullptr) CollectAggregates(*core.having, &agg_calls);

  std::map<std::string, std::pair<int, DataType>> agg_map;  // AST fp -> col.
  std::map<std::string, std::pair<int, DataType>> group_map;
  std::vector<int> group_ids;

  bool has_aggregation = !agg_calls.empty() || !core.group_by.empty();
  if (has_aggregation) {
    // Group-by expressions: bare columns keep their ids; computed ones are
    // pre-projected to fresh columns.
    std::vector<ScalarExprPtr> computed;
    std::vector<int> computed_ids;
    for (const ExprPtr& g : core.group_by) {
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr bound, BindExpr(*g, scope));
      if (bound->kind == ScalarKind::kColumn) {
        group_ids.push_back(bound->column_id);
      } else {
        int id = registry_->Add("", "group" + std::to_string(group_ids.size()),
                                bound->type);
        computed.push_back(bound);
        computed_ids.push_back(id);
        group_ids.push_back(id);
        group_map[g->ToString()] = {id, bound->type};
      }
    }
    if (!computed.empty()) {
      // Pass through existing columns plus the computed group keys.
      std::vector<ScalarExprPtr> exprs;
      std::vector<int> out_cols;
      for (int c : tree->OutputColumns()) {
        exprs.push_back(MakeColumn(c, registry_->TypeOf(c),
                                   registry_->Get(c).name));
        out_cols.push_back(c);
      }
      for (size_t i = 0; i < computed.size(); ++i) {
        exprs.push_back(computed[i]);
        out_cols.push_back(computed_ids[i]);
      }
      tree = MakeProject(tree, std::move(exprs), std::move(out_cols));
    }

    // Bind aggregates.
    std::vector<AggregateItem> items;
    for (const Expr* call : agg_calls) {
      std::string fp = call->ToString();
      if (agg_map.count(fp) > 0) continue;
      AggregateItem item;
      item.func = call->name;
      item.distinct = call->distinct;
      if (call->args.size() == 1 && call->args[0]->kind == ExprKind::kStar) {
        if (item.func != "COUNT") {
          return Status::InvalidArgument("'*' argument only valid in COUNT");
        }
        item.func = "COUNT*";
        item.type = DataType::kInt64;
      } else {
        if (call->args.size() != 1) {
          return Status::InvalidArgument("aggregate takes one argument");
        }
        DHQP_ASSIGN_OR_RETURN(item.arg, BindExpr(*call->args[0], scope));
        if (item.func == "COUNT") {
          item.type = DataType::kInt64;
        } else if (item.func == "AVG") {
          item.type = DataType::kDouble;
        } else {
          item.type = item.arg->type;
        }
      }
      item.output_col = registry_->Add("", ToLowerCopy(item.func), item.type);
      agg_map[fp] = {item.output_col, item.type};
      items.push_back(std::move(item));
    }
    tree = MakeAggregate(tree, group_ids, std::move(items));
  }

  // Binds a select/having expression, substituting aggregate calls and
  // computed group keys with their output columns; composite expressions
  // over aggregates (e.g. SUM(x)*2) are rebuilt by recursive descent.
  std::function<Result<ScalarExprPtr>(const Expr&)> bind_with_aggs =
      [&](const Expr& e) -> Result<ScalarExprPtr> {
    if (has_aggregation) {
      std::string fp = e.ToString();
      auto it = agg_map.find(fp);
      if (it != agg_map.end()) {
        return MakeColumn(it->second.first, it->second.second, fp);
      }
      auto git = group_map.find(fp);
      if (git != group_map.end()) {
        return MakeColumn(git->second.first, git->second.second, fp);
      }
      if (e.kind == ExprKind::kBinary && e.args.size() == 2) {
        DHQP_ASSIGN_OR_RETURN(auto lhs, bind_with_aggs(*e.args[0]));
        DHQP_ASSIGN_OR_RETURN(auto rhs, bind_with_aggs(*e.args[1]));
        DHQP_ASSIGN_OR_RETURN(DataType t,
                              InferBinaryType(e.name, lhs->type, rhs->type));
        return MakeBinary(e.name, std::move(lhs), std::move(rhs), t);
      }
      if (e.kind == ExprKind::kUnary && e.args.size() == 1) {
        DHQP_ASSIGN_OR_RETURN(auto arg, bind_with_aggs(*e.args[0]));
        DataType t = e.name == "NOT" ? DataType::kBool : arg->type;
        return MakeUnary(e.name, std::move(arg), t);
      }
    }
    return BindExpr(e, scope);
  };

  // HAVING: filter above the aggregate.
  if (core.having != nullptr) {
    DHQP_ASSIGN_OR_RETURN(ScalarExprPtr having, bind_with_aggs(*core.having));
    tree = MakeFilter(tree, std::move(having));
  }

  // Select list: expand stars, bind expressions, project.
  CoreResult result;
  std::vector<ScalarExprPtr> out_exprs;
  for (const SelectItem& item : core.items) {
    if (item.star) {
      for (const TableScope& t : scope.tables) {
        if (!item.star_qualifier.empty() &&
            !EqualsIgnoreCase(item.star_qualifier.back(), t.alias)) {
          continue;
        }
        for (size_t i = 0; i < t.schema.num_columns(); ++i) {
          int id = t.column_ids[i];
          out_exprs.push_back(MakeColumn(id, t.schema.column(i).type,
                                         t.alias + "." +
                                             t.schema.column(i).name));
          result.output_cols.push_back(id);
          result.output_names.push_back(t.schema.column(i).name);
        }
      }
      if (result.output_cols.empty()) {
        return Status::InvalidArgument("'*' matched no tables");
      }
      continue;
    }
    DHQP_ASSIGN_OR_RETURN(ScalarExprPtr bound, bind_with_aggs(*item.expr));
    std::string name = item.alias;
    if (name.empty()) {
      name = item.expr->kind == ExprKind::kColumnRef
                 ? item.expr->column_path.back()
                 : "col" + std::to_string(result.output_cols.size() + 1);
    }
    int id;
    if (bound->kind == ScalarKind::kColumn) {
      id = bound->column_id;  // Pass-through keeps the column's identity.
    } else {
      id = registry_->Add("", name, bound->type);
    }
    out_exprs.push_back(std::move(bound));
    result.output_cols.push_back(id);
    result.output_names.push_back(std::move(name));
  }

  // ORDER BY resolution (single-core statements): output ordinals, output
  // names, then arbitrary expressions carried as hidden projection columns.
  std::vector<int> project_cols = result.output_cols;
  if (order_items != nullptr) {
    for (const OrderItem& item : *order_items) {
      const Expr& e = *item.expr;
      int col = -1;
      if (e.kind == ExprKind::kLiteral && !e.literal.is_null() &&
          e.literal.type() == DataType::kInt64) {
        int64_t ordinal = e.literal.int64_value();
        if (ordinal < 1 ||
            ordinal > static_cast<int64_t>(result.output_cols.size())) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        col = result.output_cols[static_cast<size_t>(ordinal - 1)];
      }
      if (col < 0 && e.kind == ExprKind::kColumnRef &&
          e.column_path.size() == 1) {
        for (size_t i = 0; i < result.output_names.size(); ++i) {
          if (EqualsIgnoreCase(result.output_names[i], e.column_path[0])) {
            col = result.output_cols[i];
            break;
          }
        }
      }
      if (col < 0) {
        DHQP_ASSIGN_OR_RETURN(ScalarExprPtr bound, bind_with_aggs(e));
        if (bound->kind == ScalarKind::kColumn) {
          col = bound->column_id;
        } else {
          col = registry_->Add("", "__orderby", bound->type);
        }
        bool visible = std::find(project_cols.begin(), project_cols.end(),
                                 col) != project_cols.end();
        if (!visible) {
          if (core.distinct) {
            return Status::NotSupported(
                "ORDER BY column must appear in the select list when "
                "DISTINCT is used");
          }
          out_exprs.push_back(bound);
          project_cols.push_back(col);
        }
      }
      order_cols->emplace_back(col, item.ascending);
    }
  }
  tree = MakeProject(tree, std::move(out_exprs), project_cols);

  if (core.distinct) {
    tree = MakeAggregate(tree, result.output_cols, {});
  }
  if (core.top.has_value()) {
    tree = MakeTop(tree, *core.top);
  }

  result.root = std::move(tree);
  result.scope = scope;
  result.scope.outer = nullptr;  // The copy must not dangle.
  return std::move(result);
}

Result<LogicalOpPtr> Binder::BindTableRef(const TableRef& ref, Scope* scope) {
  switch (ref.kind) {
    case TableRef::Kind::kNamed: {
      std::string alias = ref.alias.empty() ? ref.name.table : ref.alias;
      for (const TableScope& t : scope->tables) {
        if (EqualsIgnoreCase(t.alias, alias)) {
          return Status::InvalidArgument("duplicate table alias '" + alias +
                                         "'");
        }
      }
      return BindNamedTable(ref.name, alias, scope);
    }
    case TableRef::Kind::kJoin: {
      DHQP_ASSIGN_OR_RETURN(LogicalOpPtr left, BindTableRef(*ref.left, scope));
      DHQP_ASSIGN_OR_RETURN(LogicalOpPtr right,
                            BindTableRef(*ref.right, scope));
      ScalarExprPtr on;
      JoinType type = JoinType::kInner;
      if (ref.join_kind == JoinKind::kCross) {
        type = JoinType::kCross;
      } else if (ref.join_kind == JoinKind::kLeftOuter) {
        type = JoinType::kLeftOuter;
      }
      if (ref.on != nullptr) {
        DHQP_ASSIGN_OR_RETURN(on, BindExpr(*ref.on, *scope));
      }
      return MakeJoin(type, std::move(left), std::move(right), std::move(on));
    }
    case TableRef::Kind::kOpenQuery:
      return Status::NotSupported(
          "OPENQUERY pass-through must be executed via "
          "Connection::ExecutePassThrough");
  }
  return Status::Internal("unknown table ref kind");
}

Result<LogicalOpPtr> Binder::BindNamedTable(const ObjectName& name,
                                            const std::string& alias,
                                            Scope* scope) {
  // Views take precedence for unqualified single-part names.
  if (!name.has_server()) {
    const ViewDef* view = catalog_->FindView(name.table);
    if (view != nullptr) {
      if (++view_depth_ > 8) {
        --view_depth_;
        return Status::InvalidArgument("view nesting too deep (cycle?)");
      }
      auto parsed = Parser::ParseSelect(view->sql);
      if (!parsed.ok()) {
        --view_depth_;
        return Status::InvalidArgument("view '" + view->name +
                                       "' failed to parse: " +
                                       parsed.status().message());
      }
      auto bound = BindSelect(**parsed);
      --view_depth_;
      if (!bound.ok()) return bound.status();
      Schema view_schema;
      for (size_t i = 0; i < bound->output_cols.size(); ++i) {
        view_schema.AddColumn(ColumnDef{
            bound->output_names[i],
            registry_->TypeOf(bound->output_cols[i]), true});
      }
      scope->tables.push_back(
          TableScope{alias, std::move(view_schema), bound->output_cols});
      return bound->root;
    }
  }
  DHQP_ASSIGN_OR_RETURN(ResolvedTable table, catalog_->ResolveTable(name));
  std::vector<int> ids;
  ids.reserve(table.metadata.schema.num_columns());
  for (size_t i = 0; i < table.metadata.schema.num_columns(); ++i) {
    const ColumnDef& col = table.metadata.schema.column(i);
    ids.push_back(registry_->Add(alias, col.name, col.type));
  }
  scope->tables.push_back(TableScope{alias, table.metadata.schema, ids});
  return MakeGet(std::move(table), alias, std::move(ids));
}

Result<ScalarExprPtr> Binder::BindColumnRef(const Expr& expr,
                                            const Scope& scope) {
  const std::string& col_name = expr.column_path.back();
  const std::string* qualifier =
      expr.column_path.size() >= 2
          ? &expr.column_path[expr.column_path.size() - 2]
          : nullptr;
  for (const Scope* s = &scope; s != nullptr; s = s->outer) {
    const TableScope* found_table = nullptr;
    int found_ord = -1;
    for (const TableScope& t : s->tables) {
      if (qualifier != nullptr && !EqualsIgnoreCase(*qualifier, t.alias)) {
        continue;
      }
      int ord = t.schema.FindColumn(col_name);
      if (ord < 0) continue;
      if (found_table != nullptr) {
        return Status::InvalidArgument("ambiguous column '" + col_name + "'");
      }
      found_table = &t;
      found_ord = ord;
    }
    if (found_table != nullptr) {
      int id = found_table->column_ids[static_cast<size_t>(found_ord)];
      return MakeColumn(
          id, found_table->schema.column(static_cast<size_t>(found_ord)).type,
          found_table->alias + "." + col_name);
    }
  }
  return Status::NotFound("column '" + expr.ToString() + "' not found");
}

Result<DataType> Binder::InferBinaryType(const std::string& op, DataType lhs,
                                         DataType rhs) const {
  if (op == "AND" || op == "OR" || op == "=" || op == "<>" || op == "<" ||
      op == "<=" || op == ">" || op == ">=") {
    return DataType::kBool;
  }
  // Arithmetic.
  if (lhs == DataType::kDate && (rhs == DataType::kInt64 || rhs == DataType::kNull)) {
    if (op == "+" || op == "-") return DataType::kDate;
  }
  if (lhs == DataType::kDate && rhs == DataType::kDate && op == "-") {
    return DataType::kInt64;
  }
  if (lhs == DataType::kDouble || rhs == DataType::kDouble) {
    return DataType::kDouble;
  }
  if ((IsNumeric(lhs) || lhs == DataType::kNull) &&
      (IsNumeric(rhs) || rhs == DataType::kNull)) {
    return DataType::kInt64;
  }
  if (lhs == DataType::kString && rhs == DataType::kString && op == "+") {
    return DataType::kString;  // Concatenation.
  }
  return Status::InvalidArgument("operator '" + op +
                                 "' not defined for types " +
                                 DataTypeName(lhs) + ", " + DataTypeName(rhs));
}

Result<ScalarExprPtr> Binder::BindExpr(const Expr& expr, const Scope& scope) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return MakeLiteral(expr.literal);
    case ExprKind::kColumnRef:
      return BindColumnRef(expr, scope);
    case ExprKind::kParameter:
      parameters_.insert(expr.name);
      return MakeParam(expr.name);
    case ExprKind::kStar:
      return Status::InvalidArgument("'*' not valid in this context");
    case ExprKind::kUnary: {
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr arg, BindExpr(*expr.args[0], scope));
      DataType t = expr.name == "NOT" ? DataType::kBool : arg->type;
      return MakeUnary(expr.name, std::move(arg), t);
    }
    case ExprKind::kBinary: {
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr lhs, BindExpr(*expr.args[0], scope));
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr rhs, BindExpr(*expr.args[1], scope));
      // Type coordination: untyped params and date-vs-string literals.
      if (lhs->type != DataType::kNull) {
        rhs = Retype(rhs, lhs->type);
        DHQP_ASSIGN_OR_RETURN(rhs, CoerceLiteral(rhs, lhs->type));
      }
      if (rhs->type != DataType::kNull) {
        lhs = Retype(lhs, rhs->type);
        DHQP_ASSIGN_OR_RETURN(lhs, CoerceLiteral(lhs, rhs->type));
      }
      DHQP_ASSIGN_OR_RETURN(DataType t,
                            InferBinaryType(expr.name, lhs->type, rhs->type));
      return MakeBinary(expr.name, std::move(lhs), std::move(rhs), t);
    }
    case ExprKind::kFunctionCall: {
      if (IsAggregateName(expr.name)) {
        return Status::InvalidArgument("aggregate '" + expr.name +
                                       "' not allowed here");
      }
      auto out = std::make_shared<ScalarExpr>();
      out->kind = ScalarKind::kFunc;
      out->op = expr.name;
      for (const ExprPtr& arg : expr.args) {
        DHQP_ASSIGN_OR_RETURN(ScalarExprPtr bound, BindExpr(*arg, scope));
        out->args.push_back(std::move(bound));
      }
      const std::string& fn = out->op;
      auto arity = [&](size_t n) -> Status {
        if (out->args.size() != n) {
          return Status::InvalidArgument(fn + " takes " + std::to_string(n) +
                                         " argument(s)");
        }
        return Status::OK();
      };
      if (fn == "UPPER" || fn == "LOWER") {
        DHQP_RETURN_NOT_OK(arity(1));
        out->type = DataType::kString;
      } else if (fn == "LEN" || fn == "LENGTH") {
        DHQP_RETURN_NOT_OK(arity(1));
        out->type = DataType::kInt64;
      } else if (fn == "ABS") {
        DHQP_RETURN_NOT_OK(arity(1));
        out->type = out->args[0]->type;
      } else if (fn == "YEAR" || fn == "MONTH" || fn == "DAY") {
        DHQP_RETURN_NOT_OK(arity(1));
        out->type = DataType::kInt64;
      } else if (fn == "TODAY") {
        DHQP_RETURN_NOT_OK(arity(0));
        out->type = DataType::kDate;
      } else if (fn == "DATEADD" || fn == "DATE") {
        // DATE(d, n) / DATEADD(d, n): date plus n days (§2.4's date()).
        DHQP_RETURN_NOT_OK(arity(2));
        out->type = DataType::kDate;
      } else {
        return Status::NotFound("unknown function '" + fn + "'");
      }
      return ScalarExprPtr(out);
    }
    case ExprKind::kInList: {
      auto out = std::make_shared<ScalarExpr>();
      out->kind = ScalarKind::kInList;
      out->negated = expr.negated;
      out->type = DataType::kBool;
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr probe, BindExpr(*expr.args[0], scope));
      DataType probe_type = probe->type;
      out->args.push_back(std::move(probe));
      for (size_t i = 1; i < expr.args.size(); ++i) {
        DHQP_ASSIGN_OR_RETURN(ScalarExprPtr item, BindExpr(*expr.args[i], scope));
        DHQP_ASSIGN_OR_RETURN(item, CoerceLiteral(item, probe_type));
        out->args.push_back(std::move(item));
      }
      return ScalarExprPtr(out);
    }
    case ExprKind::kBetween: {
      // x BETWEEN lo AND hi  ==>  x >= lo AND x <= hi.
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr x, BindExpr(*expr.args[0], scope));
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr lo, BindExpr(*expr.args[1], scope));
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr hi, BindExpr(*expr.args[2], scope));
      DHQP_ASSIGN_OR_RETURN(lo, CoerceLiteral(lo, x->type));
      DHQP_ASSIGN_OR_RETURN(hi, CoerceLiteral(hi, x->type));
      lo = Retype(lo, x->type);
      hi = Retype(hi, x->type);
      ScalarExprPtr range = MakeAnd(MakeComparison(">=", x, std::move(lo)),
                                    MakeComparison("<=", x, std::move(hi)));
      if (expr.negated) return MakeUnary("NOT", std::move(range), DataType::kBool);
      return range;
    }
    case ExprKind::kLike: {
      auto out = std::make_shared<ScalarExpr>();
      out->kind = ScalarKind::kLike;
      out->negated = expr.negated;
      out->type = DataType::kBool;
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr x, BindExpr(*expr.args[0], scope));
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr p, BindExpr(*expr.args[1], scope));
      out->args.push_back(std::move(x));
      out->args.push_back(std::move(p));
      return ScalarExprPtr(out);
    }
    case ExprKind::kIsNull: {
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr x, BindExpr(*expr.args[0], scope));
      return MakeIsNull(std::move(x), expr.negated);
    }
    case ExprKind::kCast: {
      auto out = std::make_shared<ScalarExpr>();
      out->kind = ScalarKind::kCast;
      out->cast_type = expr.cast_type;
      out->type = expr.cast_type;
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr x, BindExpr(*expr.args[0], scope));
      out->args.push_back(std::move(x));
      return ScalarExprPtr(out);
    }
    case ExprKind::kCase: {
      auto out = std::make_shared<ScalarExpr>();
      out->kind = ScalarKind::kCase;
      DataType result_type = DataType::kNull;
      for (size_t i = 0; i < expr.args.size(); ++i) {
        DHQP_ASSIGN_OR_RETURN(ScalarExprPtr a, BindExpr(*expr.args[i], scope));
        bool is_value = (i % 2 == 1) || (i + 1 == expr.args.size() &&
                                         expr.args.size() % 2 == 1);
        if (is_value && result_type == DataType::kNull) result_type = a->type;
        out->args.push_back(std::move(a));
      }
      out->type = result_type;
      return ScalarExprPtr(out);
    }
    case ExprKind::kContains: {
      // CONTAINS(col, 'query') binds to a CONTAINS function; the optimizer
      // may replace it with a full-text index join (§2.3), otherwise the
      // executor evaluates it directly against the text.
      auto out = std::make_shared<ScalarExpr>();
      out->kind = ScalarKind::kFunc;
      out->op = "CONTAINS";
      out->type = DataType::kBool;
      DHQP_ASSIGN_OR_RETURN(ScalarExprPtr col, BindExpr(*expr.args[0], scope));
      if (col->kind != ScalarKind::kColumn) {
        return Status::InvalidArgument("CONTAINS requires a column argument");
      }
      out->args.push_back(std::move(col));
      out->args.push_back(MakeLiteral(Value::String(expr.name)));
      return ScalarExprPtr(out);
    }
    case ExprKind::kExists:
    case ExprKind::kInSubquery:
      return Status::NotSupported(
          "subquery predicates are only supported as top-level WHERE "
          "conjuncts");
  }
  return Status::Internal("unknown expression kind");
}

Result<LogicalOpPtr> Binder::ApplySubqueryPredicate(LogicalOpPtr tree,
                                                    const Expr& pred,
                                                    const Scope& scope) {
  const SelectStatement& sub = *pred.subquery;
  if (sub.cores.size() != 1) {
    return Status::NotSupported("UNION ALL not supported in subqueries");
  }
  const SelectCore& core = *sub.cores[0];
  if (!core.group_by.empty() || core.having != nullptr || core.distinct) {
    return Status::NotSupported(
        "aggregation in correlated subqueries is not supported");
  }

  // Bind the subquery's FROM with the outer scope visible (correlation).
  Scope sub_scope;
  sub_scope.outer = &scope;
  if (core.from == nullptr) {
    return Status::NotSupported("subquery requires a FROM clause");
  }
  DHQP_ASSIGN_OR_RETURN(LogicalOpPtr sub_tree,
                        BindTableRef(*core.from, &sub_scope));

  // Split WHERE into correlated conjuncts (referencing outer columns) and
  // local ones. Correlated conjuncts become part of the join predicate —
  // the subquery "un-rolling" of §4.1.4.
  std::vector<const Expr*> conjuncts;
  SplitAstConjuncts(core.where.get(), &conjuncts);
  std::vector<ScalarExprPtr> local, correlated;
  for (const Expr* c : conjuncts) {
    if (IsSubqueryPredicate(*c)) {
      DHQP_ASSIGN_OR_RETURN(sub_tree,
                            ApplySubqueryPredicate(sub_tree, *c, sub_scope));
      continue;
    }
    DHQP_ASSIGN_OR_RETURN(ScalarExprPtr bound, BindExpr(*c, sub_scope));
    if (CoveredBy(bound, sub_tree)) {
      local.push_back(std::move(bound));
    } else {
      correlated.push_back(std::move(bound));
    }
  }
  if (!local.empty()) sub_tree = MakeFilter(sub_tree, MergeConjuncts(local));

  ScalarExprPtr join_pred = MergeConjuncts(correlated);
  bool anti = pred.negated;

  if (pred.kind == ExprKind::kInSubquery) {
    // probe IN (SELECT item FROM ...) adds probe = item to the join
    // predicate.
    if (core.items.size() != 1 || core.items[0].star ||
        core.items[0].expr == nullptr) {
      return Status::InvalidArgument(
          "IN subquery must select exactly one expression");
    }
    DHQP_ASSIGN_OR_RETURN(ScalarExprPtr item,
                          BindExpr(*core.items[0].expr, sub_scope));
    if (item->kind != ScalarKind::kColumn) {
      int id = registry_->Add("", "subq", item->type);
      std::vector<int> in_cols;
      std::vector<ScalarExprPtr> exprs{item};
      in_cols.push_back(id);
      sub_tree = MakeProject(sub_tree, std::move(exprs), in_cols);
      item = MakeColumn(id, registry_->TypeOf(id), "subq");
    }
    DHQP_ASSIGN_OR_RETURN(ScalarExprPtr probe, BindExpr(*pred.args[0], scope));
    ScalarExprPtr match = MakeComparison("=", probe, item);
    if (anti) {
      // probe NOT IN (...) is false or unknown — the row goes — as soon as
      // one item makes probe = item true or unknown, so the anti join
      // matches on probe = item OR probe IS NULL OR item IS NULL. An empty
      // subquery still keeps every row, a NULL probe included.
      match = MakeOr(MakeOr(std::move(match), MakeIsNull(std::move(probe))),
                     MakeIsNull(std::move(item)));
    }
    join_pred = MakeAnd(std::move(join_pred), std::move(match));
  }
  if (join_pred == nullptr) join_pred = MakeLiteral(Value::Bool(true));

  return MakeJoin(anti ? JoinType::kAnti : JoinType::kSemi, std::move(tree),
                  std::move(sub_tree), std::move(join_pred));
}

bool Binder::CoveredBy(const ScalarExprPtr& expr, const LogicalOpPtr& tree) {
  std::set<int> used;
  expr->CollectColumns(&used);
  std::vector<int> produced = tree->OutputColumns();
  for (int c : used) {
    if (std::find(produced.begin(), produced.end(), c) == produced.end()) {
      return false;
    }
  }
  return true;
}

Result<CheckConstraint> Binder::BindCheckConstraint(const Expr& expr,
                                                    const Schema& schema) {
  // Recursively evaluates the CHECK expression into (column, domain).
  struct Walker {
    const Schema& schema;
    std::string column;

    Result<IntervalSet> Walk(const Expr& e) {
      if (e.kind == ExprKind::kBinary && (e.name == "AND" || e.name == "OR")) {
        DHQP_ASSIGN_OR_RETURN(IntervalSet lhs, Walk(*e.args[0]));
        DHQP_ASSIGN_OR_RETURN(IntervalSet rhs, Walk(*e.args[1]));
        return e.name == "AND" ? lhs.Intersect(rhs) : lhs.Union(rhs);
      }
      if (e.kind == ExprKind::kBetween) {
        DHQP_RETURN_NOT_OK(NoteColumn(*e.args[0]));
        DHQP_ASSIGN_OR_RETURN(Value lo, LiteralValue(*e.args[1]));
        DHQP_ASSIGN_OR_RETURN(Value hi, LiteralValue(*e.args[2]));
        return IntervalSet::Range(Bound{lo, true}, Bound{hi, true});
      }
      if (e.kind == ExprKind::kInList) {
        DHQP_RETURN_NOT_OK(NoteColumn(*e.args[0]));
        IntervalSet set = IntervalSet::None();
        for (size_t i = 1; i < e.args.size(); ++i) {
          DHQP_ASSIGN_OR_RETURN(Value v, LiteralValue(*e.args[i]));
          set = set.Union(IntervalSet::Point(v));
        }
        return set;
      }
      if (e.kind == ExprKind::kBinary) {
        // col op literal  or  literal op col.
        const Expr* col = e.args[0].get();
        const Expr* lit = e.args[1].get();
        std::string op = e.name;
        if (col->kind == ExprKind::kLiteral) {
          std::swap(col, lit);
          // Mirror the operator.
          if (op == "<") op = ">";
          else if (op == "<=") op = ">=";
          else if (op == ">") op = "<";
          else if (op == ">=") op = "<=";
        }
        DHQP_RETURN_NOT_OK(NoteColumn(*col));
        DHQP_ASSIGN_OR_RETURN(Value v, LiteralValue(*lit));
        return IntervalSet::FromComparison(op, v);
      }
      return Status::NotSupported(
          "unsupported CHECK constraint form: " + e.ToString());
    }

    Status NoteColumn(const Expr& e) {
      if (e.kind != ExprKind::kColumnRef) {
        return Status::NotSupported("CHECK must compare a column: " +
                                    e.ToString());
      }
      const std::string& name = e.column_path.back();
      if (schema.FindColumn(name) < 0) {
        return Status::NotFound("CHECK references unknown column '" + name +
                                "'");
      }
      if (!column.empty() && !EqualsIgnoreCase(column, name)) {
        return Status::NotSupported(
            "CHECK constraints over multiple columns are not supported");
      }
      column = name;
      return Status::OK();
    }

    Result<Value> LiteralValue(const Expr& e) {
      if (e.kind != ExprKind::kLiteral) {
        return Status::NotSupported("CHECK requires literal bounds: " +
                                    e.ToString());
      }
      // Date columns accept ISO strings.
      int ord = schema.FindColumn(column);
      if (ord >= 0 &&
          schema.column(static_cast<size_t>(ord)).type == DataType::kDate &&
          !e.literal.is_null() && e.literal.type() == DataType::kString) {
        return e.literal.CastTo(DataType::kDate);
      }
      return e.literal;
    }
  };

  Walker walker{schema, ""};
  DHQP_ASSIGN_OR_RETURN(IntervalSet domain, walker.Walk(expr));
  if (walker.column.empty()) {
    return Status::NotSupported("CHECK constraint references no column");
  }
  return CheckConstraint{walker.column, std::move(domain), expr.ToString()};
}

}  // namespace dhqp
