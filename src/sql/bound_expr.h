#ifndef DHQP_SQL_BOUND_EXPR_H_
#define DHQP_SQL_BOUND_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/value.h"

namespace dhqp {

/// Kinds of bound (name-resolved, typed) scalar expressions. These flow
/// through logical trees, physical plans, the decoder and the runtime
/// expression evaluator.
enum class ScalarKind {
  kColumn,   ///< Reference to a column by global column id.
  kLiteral,  ///< Constant.
  kParam,    ///< Named query parameter (@name), bound at execution/startup.
  kUnary,    ///< NOT / unary minus.
  kBinary,   ///< Arithmetic, comparison, AND/OR.
  kFunc,     ///< Scalar function (UPPER, LOWER, ABS, YEAR, ...).
  kIsNull,   ///< x IS [NOT] NULL.
  kLike,     ///< x [NOT] LIKE pattern.
  kInList,   ///< x [NOT] IN (v1, ..., vn).
  kCase,     ///< Searched CASE.
  kCast,     ///< CAST(x AS type).
};

struct ScalarExpr;
/// Expressions are immutable and freely shared between plan alternatives.
using ScalarExprPtr = std::shared_ptr<const ScalarExpr>;

/// A bound scalar expression node.
struct ScalarExpr {
  ScalarKind kind;
  DataType type = DataType::kNull;  ///< Result type.

  int column_id = -1;       ///< kColumn: global column id.
  std::string column_name;  ///< kColumn: display name ("c.c_name").
  Value literal;            ///< kLiteral.
  std::string op;           ///< Operator / function / parameter name.
  bool negated = false;     ///< kIsNull / kLike / kInList negation.
  DataType cast_type = DataType::kNull;
  std::vector<ScalarExprPtr> args;

  /// Canonical rendering; doubles as the structural fingerprint used for
  /// memo deduplication.
  std::string ToString() const;

  /// Collects referenced column ids into `out`.
  void CollectColumns(std::set<int>* out) const;

  /// Collects referenced parameter names into `out`.
  void CollectParams(std::set<std::string>* out) const;

  /// True if the expression references no columns (literals/params only) —
  /// the eligibility test for startup filters (§4.1.5: "A startup filter
  /// predicate can not contain any references to columns ... in its input
  /// tree").
  bool IsColumnFree() const;
};

/// @name Constructors.
///@{
ScalarExprPtr MakeColumn(int column_id, DataType type, std::string name);
ScalarExprPtr MakeLiteral(Value v);
ScalarExprPtr MakeParam(std::string name, DataType type = DataType::kNull);
ScalarExprPtr MakeUnary(std::string op, ScalarExprPtr arg, DataType type);
ScalarExprPtr MakeBinary(std::string op, ScalarExprPtr lhs, ScalarExprPtr rhs,
                         DataType type);
/// AND of comparisons etc. — convenience producing a bool-typed binary.
ScalarExprPtr MakeComparison(std::string op, ScalarExprPtr lhs,
                             ScalarExprPtr rhs);
ScalarExprPtr MakeAnd(ScalarExprPtr lhs, ScalarExprPtr rhs);
ScalarExprPtr MakeOr(ScalarExprPtr lhs, ScalarExprPtr rhs);
/// x IS NULL, or x IS NOT NULL when `negated`.
ScalarExprPtr MakeIsNull(ScalarExprPtr arg, bool negated = false);
///@}

/// Splits a predicate into its top-level conjuncts ("splitting predicates",
/// §4.1.2). The inverse, MergeConjuncts, ANDs them back together.
void SplitConjuncts(const ScalarExprPtr& pred,
                    std::vector<ScalarExprPtr>* out);
ScalarExprPtr MergeConjuncts(const std::vector<ScalarExprPtr>& conjuncts);

/// SQL LIKE matching with % and _ wildcards.
bool LikeMatch(const std::string& text, const std::string& pattern);

}  // namespace dhqp

#endif  // DHQP_SQL_BOUND_EXPR_H_
