#include "src/sql/bound_expr.h"

namespace dhqp {

namespace {

std::shared_ptr<ScalarExpr> NewExpr(ScalarKind kind, DataType type) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = kind;
  e->type = type;
  return e;
}

}  // namespace

std::string ScalarExpr::ToString() const {
  switch (kind) {
    case ScalarKind::kColumn:
      return column_name.empty() ? "#" + std::to_string(column_id)
                                 : column_name;
    case ScalarKind::kLiteral:
      if (!literal.is_null() && literal.type() == DataType::kString) {
        return "'" + literal.ToString() + "'";
      }
      return literal.ToString();
    case ScalarKind::kParam:
      return op;
    case ScalarKind::kUnary:
      return op + "(" + args[0]->ToString() + ")";
    case ScalarKind::kBinary:
      return "(" + args[0]->ToString() + " " + op + " " + args[1]->ToString() +
             ")";
    case ScalarKind::kFunc: {
      std::string out = op + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case ScalarKind::kIsNull:
      return args[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case ScalarKind::kLike:
      return args[0]->ToString() + (negated ? " NOT LIKE " : " LIKE ") +
             args[1]->ToString();
    case ScalarKind::kInList: {
      std::string out = args[0]->ToString();
      out += negated ? " NOT IN (" : " IN (";
      for (size_t i = 1; i < args.size(); ++i) {
        if (i > 1) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case ScalarKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      for (; i + 1 < args.size(); i += 2) {
        out += " WHEN " + args[i]->ToString() + " THEN " +
               args[i + 1]->ToString();
      }
      if (i < args.size()) out += " ELSE " + args[i]->ToString();
      return out + " END";
    }
    case ScalarKind::kCast:
      return "CAST(" + args[0]->ToString() + " AS " + DataTypeName(cast_type) +
             ")";
  }
  return "?";
}

void ScalarExpr::CollectColumns(std::set<int>* out) const {
  if (kind == ScalarKind::kColumn) out->insert(column_id);
  for (const ScalarExprPtr& arg : args) arg->CollectColumns(out);
}

void ScalarExpr::CollectParams(std::set<std::string>* out) const {
  if (kind == ScalarKind::kParam) out->insert(op);
  for (const ScalarExprPtr& arg : args) arg->CollectParams(out);
}

bool ScalarExpr::IsColumnFree() const {
  if (kind == ScalarKind::kColumn) return false;
  for (const ScalarExprPtr& arg : args) {
    if (!arg->IsColumnFree()) return false;
  }
  return true;
}

ScalarExprPtr MakeColumn(int column_id, DataType type, std::string name) {
  auto e = NewExpr(ScalarKind::kColumn, type);
  e->column_id = column_id;
  e->column_name = std::move(name);
  return e;
}

ScalarExprPtr MakeLiteral(Value v) {
  auto e = NewExpr(ScalarKind::kLiteral, v.type());
  e->literal = std::move(v);
  return e;
}

ScalarExprPtr MakeParam(std::string name, DataType type) {
  auto e = NewExpr(ScalarKind::kParam, type);
  e->op = std::move(name);
  return e;
}

ScalarExprPtr MakeUnary(std::string op, ScalarExprPtr arg, DataType type) {
  auto e = NewExpr(ScalarKind::kUnary, type);
  e->op = std::move(op);
  e->args.push_back(std::move(arg));
  return e;
}

ScalarExprPtr MakeBinary(std::string op, ScalarExprPtr lhs, ScalarExprPtr rhs,
                         DataType type) {
  auto e = NewExpr(ScalarKind::kBinary, type);
  e->op = std::move(op);
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ScalarExprPtr MakeComparison(std::string op, ScalarExprPtr lhs,
                             ScalarExprPtr rhs) {
  return MakeBinary(std::move(op), std::move(lhs), std::move(rhs),
                    DataType::kBool);
}

ScalarExprPtr MakeAnd(ScalarExprPtr lhs, ScalarExprPtr rhs) {
  if (lhs == nullptr) return rhs;
  if (rhs == nullptr) return lhs;
  return MakeBinary("AND", std::move(lhs), std::move(rhs), DataType::kBool);
}

ScalarExprPtr MakeOr(ScalarExprPtr lhs, ScalarExprPtr rhs) {
  if (lhs == nullptr || rhs == nullptr) return nullptr;
  return MakeBinary("OR", std::move(lhs), std::move(rhs), DataType::kBool);
}

ScalarExprPtr MakeIsNull(ScalarExprPtr arg, bool negated) {
  auto e = NewExpr(ScalarKind::kIsNull, DataType::kBool);
  e->negated = negated;
  e->args.push_back(std::move(arg));
  return e;
}

void SplitConjuncts(const ScalarExprPtr& pred,
                    std::vector<ScalarExprPtr>* out) {
  if (pred == nullptr) return;
  if (pred->kind == ScalarKind::kBinary && pred->op == "AND") {
    SplitConjuncts(pred->args[0], out);
    SplitConjuncts(pred->args[1], out);
    return;
  }
  out->push_back(pred);
}

ScalarExprPtr MergeConjuncts(const std::vector<ScalarExprPtr>& conjuncts) {
  ScalarExprPtr out;
  for (const ScalarExprPtr& c : conjuncts) out = MakeAnd(out, c);
  return out;
}

bool LikeMatch(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match: % = any run, _ = any single char.
  size_t t = 0, p = 0;
  size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace dhqp
