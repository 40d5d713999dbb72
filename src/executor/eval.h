#ifndef DHQP_EXECUTOR_EVAL_H_
#define DHQP_EXECUTOR_EVAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/row.h"
#include "src/sql/bound_expr.h"

namespace dhqp {

/// Indices of selected rows within a batch, ascending. The executor's
/// qualification currency: filters produce one, batch evaluation consumes
/// one.
using SelectionVector = std::vector<int>;

/// Where a compiled expression finds its columns: the output column list of
/// its input (the plan operator's output_cols; column i of a row is column
/// id list[i]) and, for a join residual, of its second input.
struct EvalLayout {
  const std::vector<int>* input = nullptr;
  const std::vector<int>* input2 = nullptr;
};

/// Position of column id `column_id` in an output column list, or -1. No
/// output list repeats a column id, so the first match is the only one.
int ColumnPosition(const std::vector<int>& cols, int column_id);

/// The rows one run reads, per input: a batch whose rows the selection
/// indexes, or one row that every selected position reads. An expression
/// over parameters only reads no input.
struct EvalInput {
  const std::vector<Row>* rows = nullptr;
  const Row* row = nullptr;
  const std::vector<Row>* rows2 = nullptr;
  const Row* row2 = nullptr;
};

/// A bound scalar expression compiled against its input layout: column
/// references are row positions, operators, functions and casts are enums,
/// and parameters are values bound (and cast to their expression type) by
/// Bind, not looked up per row. An operator compiles each expression it
/// evaluates when it is built and binds it at every Open and Restart; a
/// program holds its run's scratch, so it belongs to one operator instance.
///
/// A run evaluates the program over a selection of rows, one node at a
/// time. AND, OR, CASE and IN narrow the selection, so each branch sees
/// only the rows that reach it, in SQL's short-circuit order; SQL
/// three-valued logic holds throughout. A run that fails reports the error
/// of its first failing row, the one a row-at-a-time loop would report:
/// once a row fails, the rest of the run sees only the rows before it.
class CompiledExpr {
 public:
  /// Compiles `expr`. A column the layout lacks or an unknown function
  /// compiles to a node that fails the rows reaching it, so a run over no
  /// rows never fails.
  CompiledExpr(const ScalarExpr& expr, const EvalLayout& layout);

  /// Binds the parameters to `params` (each cast once to its expression
  /// type) and TODAY() to `current_date`; a program is bound before it
  /// runs. A parameter missing from `params`, or failing its cast, binds to
  /// its error, which fails the rows reaching it.
  void Bind(const std::map<std::string, Value>& params, int64_t current_date);

  /// Evaluates the program at the first `n` positions of `sel` (at rows
  /// 0..n-1 when `sel` is null). On failure returns the first failing
  /// position's error and sets `*done` (when given) to that position; the
  /// results before it stay readable. On success `*done` is `n`.
  Status Eval(const EvalInput& in, const int* sel, size_t n,
              size_t* done = nullptr);

  /// The last run's result at position `i`, valid until the next run or
  /// Bind.
  const Value& value(size_t i) const { return nodes_[0].out[i]; }

  /// The same result, moved out when the run computed it (copied when it is
  /// an input column or a constant).
  Value Take(size_t i) {
    Out& out = nodes_[0].out;
    if (out.kind == Out::kVals) return std::move(out.vals[i]);
    return out[i];
  }

  /// Predicate form: fills `pass` (cleared first) with the selected rows
  /// whose value is non-NULL TRUE, in order. Errors as for Eval; `pass`
  /// then holds the passing rows before the failing one.
  Status Select(const EvalInput& in, const int* sel, size_t n,
                SelectionVector* pass, size_t* done = nullptr);

  /// One-row forms over `in`'s fixed rows.
  Result<Value> EvalRow(const EvalInput& in);
  Result<bool> Test(const EvalInput& in);

 private:
  enum class Op : uint8_t {
    kColumn, kConst, kParam, kError,
    kNot, kNeg, kAnd, kOr,
    kEq, kNe, kLt, kLe, kGt, kGe,
    kAdd, kSub, kMul, kDiv, kMod,
    kIsNull, kLike, kIn, kCase, kCast,
    kUpper, kLower, kLen, kAbs, kYear, kMonth, kDay, kToday, kDateAdd,
    kContains,
  };

  /// A node's result over the selection it ran on: an input column read in
  /// place, one value every position shares, or values the node computed.
  struct Out {
    enum Kind : uint8_t { kRows, kFixed, kVals };
    Kind kind = kFixed;
    const std::vector<Row>* rows = nullptr;
    const int* sel = nullptr;
    size_t pos = 0;
    const Value* fixed = nullptr;
    Value* vals = nullptr;

    const Value& operator[](size_t i) const {
      switch (kind) {
        case kRows:
          return (*rows)[static_cast<size_t>(sel[i])][pos];
        case kFixed:
          return *fixed;
        case kVals:
          break;
      }
      return vals[i];
    }
  };

  struct Node {
    Op op = Op::kError;
    DataType type = DataType::kNull;  ///< Result type.
    DataType cast_type = DataType::kNull;
    bool negated = false;
    int input = 0;   ///< kColumn: 0 or 1.
    size_t pos = 0;  ///< kColumn: row position.
    std::vector<int> args;
    std::string name;  ///< kParam: the parameter; kError/functions: text.
    Value value;       ///< kConst, or a bound kParam.
    Status error;      ///< kError, or a kParam that failed to bind.
    // Run scratch, valid until the node runs again.
    Out out;
    std::vector<Value> vals;
    SelectionVector t, u;  ///< Predicate results: TRUE rows, NULL rows.
    std::vector<SelectionVector> subs;  ///< Narrowed selections.
    std::vector<uint8_t> flags;         ///< kIn: per-position match state.
  };

  template <typename F>
  static void Visit(const Out& out, F&& f);

  int Add(const ScalarExpr& expr, const EvalLayout& layout);
  void Fail(int row, Status st);
  size_t Live(const int* sel, size_t n) const;
  const int* Rows(const int* sel, size_t n);
  void EvalNode(int id, const int* sel, size_t n);
  void SelectNode(int id, const int* sel, size_t n);
  void EvalArgs(const Node& node, const int* sel, size_t* n);
  void Materialize(Node& node, const int* sel, size_t n);
  void EvalCase(Node& node, const int* sel, size_t n);
  void EvalIn(Node& node, const int* sel, size_t n);
  void EvalArith(Node& node, const int* sel, size_t n);
  void EvalFunc(Node& node, const int* sel, size_t n);
  void SelectCompare(Node& node, const int* sel, size_t n);
  void SelectAndOr(Node& node, const int* sel, size_t n);
  void SelectNot(Node& node, const int* sel, size_t n);
  Status Finish(const int* sel, size_t n, size_t* done) const;

  std::vector<Node> nodes_;
  int64_t current_date_ = 0;
  // The current run: its input and its first failing row.
  EvalInput in_;
  int err_row_ = 0;
  Status err_;
  SelectionVector all_;   ///< Identity selection, grown on demand.
  SelectionVector pass_;  ///< Test's scratch.
};

/// Evaluates `programs` in order over the first `*n` rows of `in`, each
/// over the rows before the earliest failure so far: returns the first
/// failing row's error, with `*n` cut to that row, as a row loop
/// evaluating every program per row would.
Status EvalEach(std::vector<CompiledExpr>* programs, const EvalInput& in,
                size_t* n);

}  // namespace dhqp

#endif  // DHQP_EXECUTOR_EVAL_H_
