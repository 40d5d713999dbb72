#include "src/executor/eval.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "src/common/date.h"
#include "src/fulltext/contains_query.h"

namespace dhqp {

namespace {

constexpr int kNoError = INT_MAX;

Status Overflow() { return Status::ExecutionError("arithmetic overflow"); }

// Typed readers of a node's result: an input column in place, one shared
// value, or the values the node computed. Kernels are instantiated per pair
// of readers, so the per-row read is one indexed load.
struct RowsAt {
  const std::vector<Row>* rows;
  const int* sel;
  size_t pos;
  const Value& operator()(size_t i) const {
    return (*rows)[static_cast<size_t>(sel[i])][pos];
  }
};
struct FixedAt {
  const Value* v;
  const Value& operator()(size_t) const { return *v; }
};
struct ValsAt {
  const Value* v;
  const Value& operator()(size_t i) const { return v[i]; }
};

// Value::Compare for two non-NULL values, with the integral and double
// cases inline.
inline int CompareValues(const Value& a, const Value& b) {
  const DataType ta = a.type(), tb = b.type();
  if ((ta == DataType::kInt64 || ta == DataType::kDate) &&
      (tb == DataType::kInt64 || tb == DataType::kDate)) {
    const int64_t x = a.int64_value(), y = b.int64_value();
    return x == y ? 0 : (x < y ? -1 : 1);
  }
  if (ta == DataType::kDouble && tb == DataType::kDouble) {
    const double x = a.double_value(), y = b.double_value();
    return x == y ? 0 : (x < y ? -1 : 1);
  }
  return a.Compare(b);
}

// Reads `v` as an int64 operand, casting a non-int64 value as SQL does.
inline Status AsInt64(const Value& v, int64_t* out) {
  if (v.type() == DataType::kInt64) {
    *out = v.int64_value();
    return Status::OK();
  }
  DHQP_ASSIGN_OR_RETURN(Value c, v.CastTo(DataType::kInt64));
  *out = c.int64_value();
  return Status::OK();
}

inline Status CheckedAdd(int64_t x, int64_t y, int64_t* out) {
  return __builtin_add_overflow(x, y, out) ? Overflow() : Status::OK();
}

inline Status CheckedSub(int64_t x, int64_t y, int64_t* out) {
  return __builtin_sub_overflow(x, y, out) ? Overflow() : Status::OK();
}

inline std::string Text(const Value& v) {
  return v.type() == DataType::kString ? v.string_value() : v.ToString();
}

}  // namespace

template <typename F>
void CompiledExpr::Visit(const Out& out, F&& f) {
  switch (out.kind) {
    case Out::kRows:
      f(RowsAt{out.rows, out.sel, out.pos});
      return;
    case Out::kFixed:
      f(FixedAt{out.fixed});
      return;
    case Out::kVals:
      f(ValsAt{out.vals});
      return;
  }
}

// ---------------------------------------------------------------------------
// Compilation and binding.
// ---------------------------------------------------------------------------

int ColumnPosition(const std::vector<int>& cols, int column_id) {
  auto it = std::find(cols.begin(), cols.end(), column_id);
  return it == cols.end() ? -1 : static_cast<int>(it - cols.begin());
}

namespace {

size_t CountNodes(const ScalarExpr& expr) {
  size_t n = 1;
  for (const ScalarExprPtr& arg : expr.args) n += CountNodes(*arg);
  return n;
}

}  // namespace

CompiledExpr::CompiledExpr(const ScalarExpr& expr, const EvalLayout& layout) {
  nodes_.reserve(CountNodes(expr));
  Add(expr, layout);
  // A run's scratch starts sized for one row, so a one-row run — a startup
  // filter, a range bound, a correlation binding — allocates nothing: a
  // parallel Concat worker that only tests its member's startup filter
  // then makes no heap allocation, whose first in a thread costs more than
  // the test.
  for (Node& node : nodes_) {
    switch (node.op) {
      case Op::kColumn:
      case Op::kConst:
      case Op::kParam:
      case Op::kError:
        continue;
      case Op::kNot:
      case Op::kAnd:
      case Op::kOr:
      case Op::kEq:
      case Op::kNe:
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe:
      case Op::kIsNull:
      case Op::kLike:
      case Op::kIn:
        node.t.reserve(1);
        node.u.reserve(1);
        break;
      default:
        node.vals.reserve(1);
        break;
    }
    const size_t subs = node.op == Op::kAnd || node.op == Op::kOr ? 1
                        : node.op == Op::kIn                      ? 4
                        : node.op == Op::kCase ? node.args.size() / 2
                                               : 0;
    node.subs.resize(subs);
    for (SelectionVector& sub : node.subs) sub.reserve(1);
    if (node.op == Op::kIn) node.flags.reserve(1);
  }
}

int CompiledExpr::Add(const ScalarExpr& expr, const EvalLayout& layout) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    Node& node = nodes_.back();
    node.type = expr.type;
    node.cast_type = expr.cast_type;
    node.negated = expr.negated;
    node.name = expr.op;
    auto fail = [&](std::string message) {
      node.op = Op::kError;
      node.error = Status::ExecutionError(std::move(message));
    };
    const std::string& op = expr.op;
    switch (expr.kind) {
      case ScalarKind::kColumn: {
        node.op = Op::kColumn;
        const std::vector<int>* lists[] = {layout.input, layout.input2};
        bool found = false;
        for (int side = 0; side < 2 && !found; ++side) {
          if (lists[side] == nullptr) continue;
          const int pos = ColumnPosition(*lists[side], expr.column_id);
          if (pos < 0) continue;
          node.input = side;
          node.pos = static_cast<size_t>(pos);
          found = true;
        }
        if (!found) {
          fail("column #" + std::to_string(expr.column_id) +
               " not available at runtime");
        }
        break;
      }
      case ScalarKind::kLiteral:
        node.op = Op::kConst;
        node.value = expr.literal;
        break;
      case ScalarKind::kParam:
        node.op = Op::kParam;  // Bind sets its value or its error.
        break;
      case ScalarKind::kUnary:
        if (op == "NOT") {
          node.op = Op::kNot;
        } else if (op == "-") {
          node.op = Op::kNeg;
        } else {
          fail("unknown unary operator '" + op + "'");
        }
        break;
      case ScalarKind::kBinary: {
        static const std::map<std::string, Op> kBinaryOps = {
            {"AND", Op::kAnd}, {"OR", Op::kOr},  {"=", Op::kEq},
            {"<>", Op::kNe},   {"<", Op::kLt},   {"<=", Op::kLe},
            {">", Op::kGt},    {">=", Op::kGe},  {"+", Op::kAdd},
            {"-", Op::kSub},   {"*", Op::kMul},  {"/", Op::kDiv},
            {"%", Op::kMod}};
        auto it = kBinaryOps.find(op);
        if (it != kBinaryOps.end()) {
          node.op = it->second;
        } else {
          fail("unknown arithmetic operator '" + op + "'");
        }
        break;
      }
      case ScalarKind::kFunc: {
        static const std::map<std::string, Op> kFuncs = {
            {"UPPER", Op::kUpper}, {"LOWER", Op::kLower},
            {"LEN", Op::kLen},     {"LENGTH", Op::kLen},
            {"ABS", Op::kAbs},     {"YEAR", Op::kYear},
            {"MONTH", Op::kMonth}, {"DAY", Op::kDay},
            {"TODAY", Op::kToday}, {"DATE", Op::kDateAdd},
            {"DATEADD", Op::kDateAdd}, {"CONTAINS", Op::kContains}};
        auto it = kFuncs.find(op);
        if (it != kFuncs.end()) {
          node.op = it->second;
        } else {
          fail("unknown function '" + op + "'");
        }
        break;
      }
      case ScalarKind::kIsNull:
        node.op = Op::kIsNull;
        break;
      case ScalarKind::kLike:
        node.op = Op::kLike;
        break;
      case ScalarKind::kInList:
        node.op = Op::kIn;
        break;
      case ScalarKind::kCase:
        node.op = Op::kCase;
        break;
      case ScalarKind::kCast:
        node.op = Op::kCast;
        break;
    }
  }
  for (const ScalarExprPtr& arg : expr.args) {
    const int child = Add(*arg, layout);
    nodes_[static_cast<size_t>(id)].args.push_back(child);
  }
  return id;
}

void CompiledExpr::Bind(const std::map<std::string, Value>& params,
                        int64_t current_date) {
  current_date_ = current_date;
  for (Node& node : nodes_) {
    if (node.op != Op::kParam) continue;
    auto it = params.find(node.name);
    if (it == params.end()) {
      node.value = Value();
      node.error =
          Status::ExecutionError("parameter '" + node.name + "' not bound");
      continue;
    }
    const Value& v = it->second;
    node.error = Status::OK();
    if (node.type != DataType::kNull && !v.is_null() && v.type() != node.type) {
      Result<Value> cast = v.CastTo(node.type);
      if (cast.ok()) {
        node.value = std::move(*cast);
      } else {
        node.value = Value();
        node.error = cast.status();
      }
    } else {
      node.value = v;
    }
  }
}

// ---------------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------------

void CompiledExpr::Fail(int row, Status st) {
  if (row < err_row_) {
    err_row_ = row;
    err_ = std::move(st);
  }
}

size_t CompiledExpr::Live(const int* sel, size_t n) const {
  if (err_row_ == kNoError) return n;
  return static_cast<size_t>(std::lower_bound(sel, sel + n, err_row_) - sel);
}

const int* CompiledExpr::Rows(const int* sel, size_t n) {
  static const int kFirstRow[] = {0};
  if (sel != nullptr) return sel;
  if (n <= 1) return kFirstRow;
  if (all_.size() < n) {
    const size_t from = all_.size();
    all_.resize(n);
    std::iota(all_.begin() + static_cast<ptrdiff_t>(from), all_.end(),
              static_cast<int>(from));
  }
  return all_.data();
}

Status CompiledExpr::Finish(const int* sel, size_t n, size_t* done) const {
  if (done != nullptr) *done = Live(sel, n);
  return err_row_ == kNoError ? Status::OK() : err_;
}

Status CompiledExpr::Eval(const EvalInput& in, const int* sel, size_t n,
                          size_t* done) {
  sel = Rows(sel, n);
  in_ = in;
  err_row_ = kNoError;
  EvalNode(0, sel, n);
  return Finish(sel, n, done);
}

Status CompiledExpr::Select(const EvalInput& in, const int* sel, size_t n,
                            SelectionVector* pass, size_t* done) {
  sel = Rows(sel, n);
  in_ = in;
  err_row_ = kNoError;
  SelectNode(0, sel, n);
  pass->swap(nodes_[0].t);
  return Finish(sel, n, done);
}

Result<Value> CompiledExpr::EvalRow(const EvalInput& in) {
  DHQP_RETURN_NOT_OK(Eval(in, nullptr, 1));
  return Take(0);
}

Result<bool> CompiledExpr::Test(const EvalInput& in) {
  DHQP_RETURN_NOT_OK(Select(in, nullptr, 1, &pass_));
  return !pass_.empty();
}

Status EvalEach(std::vector<CompiledExpr>* programs, const EvalInput& in,
                size_t* n) {
  Status first;
  for (CompiledExpr& p : *programs) {
    Status st = p.Eval(in, nullptr, *n, n);
    if (!st.ok()) first = std::move(st);
  }
  return first;
}

void CompiledExpr::EvalArgs(const Node& node, const int* sel, size_t* n) {
  for (int arg : node.args) {
    EvalNode(arg, sel, *n);
    *n = Live(sel, *n);
  }
}

void CompiledExpr::EvalNode(int id, const int* sel, size_t n) {
  Node& node = nodes_[static_cast<size_t>(id)];
  switch (node.op) {
    case Op::kColumn: {
      const std::vector<Row>* rows = node.input == 0 ? in_.rows : in_.rows2;
      const Row* row = node.input == 0 ? in_.row : in_.row2;
      if (rows != nullptr) {
        node.out = Out{Out::kRows, rows, sel, node.pos, nullptr, nullptr};
      } else if (row != nullptr) {
        node.out = Out{Out::kFixed, nullptr, nullptr, 0, &(*row)[node.pos],
                       nullptr};
      } else {
        node.out = Out{Out::kFixed, nullptr, nullptr, 0, &node.value, nullptr};
        if (n > 0) {
          Fail(sel[0], Status::ExecutionError("column input missing at runtime"));
        }
      }
      return;
    }
    case Op::kParam:
    case Op::kError:
      EvalArgs(node, sel, &n);
      if (n > 0 && !node.error.ok()) Fail(sel[0], node.error);
      [[fallthrough]];
    case Op::kConst:
      node.out = Out{Out::kFixed, nullptr, nullptr, 0, &node.value, nullptr};
      return;
    case Op::kNot:
    case Op::kAnd:
    case Op::kOr:
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
    case Op::kIsNull:
    case Op::kLike:
    case Op::kIn:
      SelectNode(id, sel, n);
      Materialize(node, sel, n);
      return;
    case Op::kNeg:
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kMod:
      EvalArith(node, sel, n);
      return;
    case Op::kCase:
      EvalCase(node, sel, n);
      return;
    case Op::kCast: {
      EvalArgs(node, sel, &n);
      const Out& arg = nodes_[static_cast<size_t>(node.args[0])].out;
      node.vals.resize(n);
      for (size_t i = 0; i < n; ++i) {
        Result<Value> v = arg[i].CastTo(node.cast_type);
        if (!v.ok()) {
          Fail(sel[i], v.status());
          break;
        }
        node.vals[i] = std::move(*v);
      }
      node.out = Out{Out::kVals, nullptr, nullptr, 0, nullptr, node.vals.data()};
      return;
    }
    default:
      EvalFunc(node, sel, n);
      return;
  }
}

// Writes a predicate node's TRUE/NULL rows out as BOOL values.
void CompiledExpr::Materialize(Node& node, const int* sel, size_t n) {
  n = Live(sel, n);
  node.vals.resize(n);
  size_t ti = 0, ui = 0;
  for (size_t i = 0; i < n; ++i) {
    if (ti < node.t.size() && node.t[ti] == sel[i]) {
      node.vals[i] = Value::Bool(true);
      ++ti;
    } else if (ui < node.u.size() && node.u[ui] == sel[i]) {
      node.vals[i] = Value::Null(DataType::kBool);
      ++ui;
    } else {
      node.vals[i] = Value::Bool(false);
    }
  }
  node.out = Out{Out::kVals, nullptr, nullptr, 0, nullptr, node.vals.data()};
}

void CompiledExpr::SelectNode(int id, const int* sel, size_t n) {
  Node& node = nodes_[static_cast<size_t>(id)];
  node.t.clear();
  node.u.clear();
  switch (node.op) {
    case Op::kAnd:
    case Op::kOr:
      SelectAndOr(node, sel, n);
      return;
    case Op::kNot:
      SelectNot(node, sel, n);
      return;
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe:
      SelectCompare(node, sel, n);
      return;
    case Op::kIsNull: {
      EvalArgs(node, sel, &n);
      const Out& arg = nodes_[static_cast<size_t>(node.args[0])].out;
      for (size_t i = 0; i < n; ++i) {
        if (arg[i].is_null() != node.negated) node.t.push_back(sel[i]);
      }
      return;
    }
    case Op::kLike: {
      EvalArgs(node, sel, &n);
      const Out& text = nodes_[static_cast<size_t>(node.args[0])].out;
      const Out& pattern = nodes_[static_cast<size_t>(node.args[1])].out;
      for (size_t i = 0; i < n; ++i) {
        const Value& x = text[i];
        const Value& p = pattern[i];
        if (x.is_null() || p.is_null()) {
          node.u.push_back(sel[i]);
        } else if (LikeMatch(Text(x), Text(p)) != node.negated) {
          node.t.push_back(sel[i]);
        }
      }
      return;
    }
    case Op::kIn:
      EvalIn(node, sel, n);
      return;
    default: {
      // A value-producing node used as a predicate: non-NULL TRUE passes.
      EvalNode(id, sel, n);
      n = Live(sel, n);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = node.out[i];
        if (v.is_null()) {
          node.u.push_back(sel[i]);
        } else if (v.type() == DataType::kBool && v.bool_value()) {
          node.t.push_back(sel[i]);
        }
      }
      return;
    }
  }
}

void CompiledExpr::SelectCompare(Node& node, const int* sel, size_t n) {
  EvalArgs(node, sel, &n);
  const Out& a = nodes_[static_cast<size_t>(node.args[0])].out;
  const Out& b = nodes_[static_cast<size_t>(node.args[1])].out;
  auto run = [&](auto test) {
    Visit(a, [&](auto x) {
      Visit(b, [&](auto y) {
        for (size_t i = 0; i < n; ++i) {
          const Value& l = x(i);
          const Value& r = y(i);
          if (l.is_null() || r.is_null()) {
            node.u.push_back(sel[i]);
          } else if (test(CompareValues(l, r))) {
            node.t.push_back(sel[i]);
          }
        }
      });
    });
  };
  switch (node.op) {
    case Op::kEq:
      run([](int c) { return c == 0; });
      break;
    case Op::kNe:
      run([](int c) { return c != 0; });
      break;
    case Op::kLt:
      run([](int c) { return c < 0; });
      break;
    case Op::kLe:
      run([](int c) { return c <= 0; });
      break;
    case Op::kGt:
      run([](int c) { return c > 0; });
      break;
    default:
      run([](int c) { return c >= 0; });
      break;
  }
}

// AND evaluates its right side only where the left is not FALSE, OR only
// where the left is not TRUE: the row loop's short circuit, per selection.
void CompiledExpr::SelectAndOr(Node& node, const int* sel, size_t n) {
  const bool is_and = node.op == Op::kAnd;
  Node& a = nodes_[static_cast<size_t>(node.args[0])];
  Node& b = nodes_[static_cast<size_t>(node.args[1])];
  SelectNode(node.args[0], sel, n);
  n = Live(sel, n);
  SelectionVector& sub = node.subs[0];
  sub.clear();
  if (is_and) {
    std::merge(a.t.begin(), a.t.end(), a.u.begin(), a.u.end(),
               std::back_inserter(sub));
  } else {
    std::set_difference(sel, sel + n, a.t.begin(), a.t.end(),
                        std::back_inserter(sub));
  }
  SelectNode(node.args[1], sub.data(), sub.size());
  if (is_and && a.u.empty() && b.u.empty()) {
    node.t.swap(b.t);  // Every row b saw was TRUE on the left.
    return;
  }
  const size_t m = Live(sub.data(), sub.size());
  n = Live(sel, n);
  size_t at = 0, au = 0, bt = 0, bu = 0;
  auto member = [](const SelectionVector& v, size_t* k, int row) {
    while (*k < v.size() && v[*k] < row) ++*k;
    return *k < v.size() && v[*k] == row;
  };
  if (is_and) {
    for (size_t k = 0; k < m; ++k) {
      const int row = sub[k];
      const bool left_true = member(a.t, &at, row);
      if (member(b.t, &bt, row)) {
        (left_true ? node.t : node.u).push_back(row);
      } else if (member(b.u, &bu, row)) {
        node.u.push_back(row);
      }
    }
    return;
  }
  for (size_t k = 0; k < n; ++k) {
    const int row = sel[k];
    if (member(a.t, &at, row) || member(b.t, &bt, row)) {
      node.t.push_back(row);
    } else if (member(a.u, &au, row) || member(b.u, &bu, row)) {
      node.u.push_back(row);
    }
  }
}

void CompiledExpr::SelectNot(Node& node, const int* sel, size_t n) {
  const Node& x = nodes_[static_cast<size_t>(node.args[0])];
  SelectNode(node.args[0], sel, n);
  n = Live(sel, n);
  size_t xt = 0, xu = 0;
  for (size_t i = 0; i < n; ++i) {
    const int row = sel[i];
    if (xt < x.t.size() && x.t[xt] == row) {
      ++xt;
    } else if (xu < x.u.size() && x.u[xu] == row) {
      ++xu;
      node.u.push_back(row);
    } else {
      node.t.push_back(row);
    }
  }
}

// x [NOT] IN (v1, ..., vn): each item is evaluated only at the rows whose
// probe is non-NULL and has matched no earlier item.
void CompiledExpr::EvalIn(Node& node, const int* sel, size_t n) {
  enum : uint8_t { kFound = 1, kSawNull = 2, kNullProbe = 4 };
  EvalNode(node.args[0], sel, n);
  n = Live(sel, n);
  const Out& probe = nodes_[static_cast<size_t>(node.args[0])].out;
  SelectionVector& rows = node.subs[0];
  SelectionVector& at = node.subs[1];  // Each row's position in `sel`.
  SelectionVector& next_rows = node.subs[2];
  SelectionVector& next_at = node.subs[3];
  rows.clear();
  at.clear();
  node.flags.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (probe[i].is_null()) {
      node.flags[i] = kNullProbe;
    } else {
      rows.push_back(sel[i]);
      at.push_back(static_cast<int>(i));
    }
  }
  for (size_t k = 1; k < node.args.size() && !rows.empty(); ++k) {
    EvalNode(node.args[k], rows.data(), rows.size());
    const size_t m = Live(rows.data(), rows.size());
    const Out& item = nodes_[static_cast<size_t>(node.args[k])].out;
    next_rows.clear();
    next_at.clear();
    for (size_t j = 0; j < m; ++j) {
      const size_t i = static_cast<size_t>(at[j]);
      const Value& v = item[j];
      if (!v.is_null() && CompareValues(probe[i], v) == 0) {
        node.flags[i] |= kFound;
        continue;
      }
      if (v.is_null()) node.flags[i] |= kSawNull;
      next_rows.push_back(rows[j]);
      next_at.push_back(at[j]);
    }
    rows.swap(next_rows);
    at.swap(next_at);
  }
  n = Live(sel, n);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t f = node.flags[i];
    if ((f & kNullProbe) != 0 || ((f & kFound) == 0 && (f & kSawNull) != 0)) {
      node.u.push_back(sel[i]);
    } else if (((f & kFound) != 0) != node.negated) {
      node.t.push_back(sel[i]);
    }
  }
}

// CASE WHEN c1 THEN r1 ... ELSE e END: each condition runs on the rows no
// earlier condition took, each result on the rows its condition took.
void CompiledExpr::EvalCase(Node& node, const int* sel, size_t n) {
  const size_t arms = node.args.size() / 2;
  const bool has_else = node.args.size() % 2 == 1;
  const int* rest = sel;
  size_t rest_n = n;
  for (size_t k = 0; k < arms; ++k) {
    const int cond = node.args[2 * k];
    SelectNode(cond, rest, rest_n);
    const SelectionVector& hit = nodes_[static_cast<size_t>(cond)].t;
    EvalNode(node.args[2 * k + 1], hit.data(), hit.size());
    rest_n = Live(rest, rest_n);
    SelectionVector& next = node.subs[k];
    next.clear();
    std::set_difference(rest, rest + rest_n, hit.begin(), hit.end(),
                        std::back_inserter(next));
    rest = next.data();
    rest_n = next.size();
  }
  if (has_else) EvalNode(node.args.back(), rest, rest_n);
  n = Live(sel, n);
  node.vals.resize(n);
  // Scatters one branch's results (aligned with `rows`) to their positions.
  auto scatter = [&](const int* rows, size_t count, const Out* from) {
    size_t p = 0;
    for (size_t j = 0; j < count && rows[j] < err_row_; ++j) {
      while (sel[p] != rows[j]) ++p;
      node.vals[p] = from != nullptr ? (*from)[j] : Value::Null(node.type);
    }
  };
  for (size_t k = 0; k < arms; ++k) {
    const SelectionVector& hit = nodes_[static_cast<size_t>(node.args[2 * k])].t;
    scatter(hit.data(), hit.size(),
            &nodes_[static_cast<size_t>(node.args[2 * k + 1])].out);
  }
  scatter(rest, rest_n,
          has_else ? &nodes_[static_cast<size_t>(node.args.back())].out
                   : nullptr);
  node.out = Out{Out::kVals, nullptr, nullptr, 0, nullptr, node.vals.data()};
}

// Arithmetic. Integer +, -, * and unary minus are checked, as are
// INT64_MIN / -1 and date offsets: an overflow fails the row.
void CompiledExpr::EvalArith(Node& node, const int* sel, size_t n) {
  EvalArgs(node, sel, &n);
  node.vals.resize(n);
  node.out = Out{Out::kVals, nullptr, nullptr, 0, nullptr, node.vals.data()};
  Value* out = node.vals.data();
  const Out& a = nodes_[static_cast<size_t>(node.args[0])].out;
  if (node.op == Op::kNeg) {
    for (size_t i = 0; i < n; ++i) {
      const Value& v = a[i];
      if (v.is_null()) {
        out[i] = Value::Null(v.type());
      } else if (v.type() == DataType::kDouble) {
        out[i] = Value::Double(-v.double_value());
      } else {
        int64_t x = 0, neg = 0;
        Status st = AsInt64(v, &x);
        if (st.ok()) st = CheckedSub(0, x, &neg);
        if (!st.ok()) {
          Fail(sel[i], std::move(st));
          return;
        }
        out[i] = Value::Int64(neg);
      }
    }
    return;
  }
  const Out& b = nodes_[static_cast<size_t>(node.args[1])].out;
  const DataType type = node.type;
  auto run = [&](auto op_tag) {
    constexpr Op kOp = decltype(op_tag)::value;
    // One row: the binary operator `kOp` over (x, y) into *v.
    auto one = [type](const Value& x, const Value& y, Value* v) -> Status {
      if (x.is_null() || y.is_null()) {
        *v = Value::Null(type);
        return Status::OK();
      }
      const DataType tx = x.type(), ty = y.type();
      if constexpr (kOp == Op::kAdd || kOp == Op::kSub) {
        if (tx == DataType::kDate && ty == DataType::kInt64) {
          int64_t d = 0;
          DHQP_RETURN_NOT_OK(
              kOp == Op::kAdd
                  ? CheckedAdd(x.date_value(), y.int64_value(), &d)
                  : CheckedSub(x.date_value(), y.int64_value(), &d));
          *v = Value::Date(d);
          return Status::OK();
        }
      }
      if constexpr (kOp == Op::kSub) {
        if (tx == DataType::kDate && ty == DataType::kDate) {
          int64_t d = 0;
          DHQP_RETURN_NOT_OK(CheckedSub(x.date_value(), y.date_value(), &d));
          *v = Value::Int64(d);
          return Status::OK();
        }
      }
      if constexpr (kOp == Op::kAdd) {
        if (tx == DataType::kString && ty == DataType::kString) {
          *v = Value::String(x.string_value() + y.string_value());
          return Status::OK();
        }
      }
      if (tx == DataType::kDouble || ty == DataType::kDouble ||
          type == DataType::kDouble) {
        const double l = x.AsDouble(), r = y.AsDouble();
        if constexpr (kOp == Op::kAdd) {
          *v = Value::Double(l + r);
        } else if constexpr (kOp == Op::kSub) {
          *v = Value::Double(l - r);
        } else if constexpr (kOp == Op::kMul) {
          *v = Value::Double(l * r);
        } else {
          if (r == 0) return Status::ExecutionError("division by zero");
          *v = Value::Double(kOp == Op::kDiv ? l / r : std::fmod(l, r));
        }
        return Status::OK();
      }
      int64_t l = 0, r = 0, res = 0;
      DHQP_RETURN_NOT_OK(AsInt64(x, &l));
      DHQP_RETURN_NOT_OK(AsInt64(y, &r));
      if constexpr (kOp == Op::kAdd) {
        if (__builtin_add_overflow(l, r, &res)) return Overflow();
      } else if constexpr (kOp == Op::kSub) {
        if (__builtin_sub_overflow(l, r, &res)) return Overflow();
      } else if constexpr (kOp == Op::kMul) {
        if (__builtin_mul_overflow(l, r, &res)) return Overflow();
      } else {
        if (r == 0) return Status::ExecutionError("division by zero");
        if (r == -1) {
          // INT64_MIN / -1 overflows; every x % -1 is 0.
          if (kOp == Op::kMod) {
            res = 0;
          } else if (__builtin_sub_overflow(int64_t{0}, l, &res)) {
            return Overflow();
          }
        } else {
          res = kOp == Op::kDiv ? l / r : l % r;
        }
      }
      *v = Value::Int64(res);
      return Status::OK();
    };
    Visit(a, [&](auto x) {
      Visit(b, [&](auto y) {
        for (size_t i = 0; i < n; ++i) {
          Status st = one(x(i), y(i), &out[i]);
          if (!st.ok()) {
            Fail(sel[i], std::move(st));
            return;
          }
        }
      });
    });
  };
  switch (node.op) {
    case Op::kAdd:
      run(std::integral_constant<Op, Op::kAdd>{});
      break;
    case Op::kSub:
      run(std::integral_constant<Op, Op::kSub>{});
      break;
    case Op::kMul:
      run(std::integral_constant<Op, Op::kMul>{});
      break;
    case Op::kDiv:
      run(std::integral_constant<Op, Op::kDiv>{});
      break;
    default:
      run(std::integral_constant<Op, Op::kMod>{});
      break;
  }
}

// Scalar functions, each a loop over the selection.
void CompiledExpr::EvalFunc(Node& node, const int* sel, size_t n) {
  EvalArgs(node, sel, &n);
  node.vals.resize(n);
  node.out = Out{Out::kVals, nullptr, nullptr, 0, nullptr, node.vals.data()};
  Value* out = node.vals.data();
  const Out* a = node.args.empty()
                     ? nullptr
                     : &nodes_[static_cast<size_t>(node.args[0])].out;
  const Out* b = node.args.size() < 2
                     ? nullptr
                     : &nodes_[static_cast<size_t>(node.args[1])].out;
  for (size_t i = 0; i < n; ++i) {
    Status st;
    switch (node.op) {
      case Op::kUpper:
      case Op::kLower: {
        const Value& v = (*a)[i];
        if (v.is_null()) {
          out[i] = Value::Null(DataType::kString);
          break;
        }
        std::string s = Text(v);
        const bool upper = node.op == Op::kUpper;
        for (char& c : s) {
          const auto uc = static_cast<unsigned char>(c);
          c = static_cast<char>(upper ? std::toupper(uc) : std::tolower(uc));
        }
        out[i] = Value::String(std::move(s));
        break;
      }
      case Op::kLen: {
        const Value& v = (*a)[i];
        out[i] = v.is_null() ? Value::Null(DataType::kInt64)
                             : Value::Int64(static_cast<int64_t>(
                                   v.type() == DataType::kString
                                       ? v.string_value().size()
                                       : v.ToString().size()));
        break;
      }
      case Op::kAbs: {
        const Value& v = (*a)[i];
        if (v.is_null()) {
          out[i] = Value::Null(node.type);
        } else if (v.type() == DataType::kDouble) {
          out[i] = Value::Double(std::fabs(v.double_value()));
        } else {
          int64_t x = 0;
          st = AsInt64(v, &x);
          if (st.ok() && x == INT64_MIN) st = Overflow();
          if (st.ok()) out[i] = Value::Int64(x < 0 ? -x : x);
        }
        break;
      }
      case Op::kYear:
      case Op::kMonth:
      case Op::kDay: {
        const Value& v = (*a)[i];
        if (v.is_null()) {
          out[i] = Value::Null(DataType::kInt64);
          break;
        }
        Result<Value> d = v.CastTo(DataType::kDate);
        if (!d.ok()) {
          st = d.status();
          break;
        }
        int y = 0, m = 0, dd = 0;
        DaysToCivil(d->date_value(), &y, &m, &dd);
        out[i] = Value::Int64(node.op == Op::kYear    ? y
                              : node.op == Op::kMonth ? m
                                                      : dd);
        break;
      }
      case Op::kToday:
        out[i] = Value::Date(current_date_);
        break;
      case Op::kDateAdd: {
        const Value& d = (*a)[i];
        const Value& k = (*b)[i];
        if (d.is_null() || k.is_null()) {
          out[i] = Value::Null(DataType::kDate);
          break;
        }
        Result<Value> day = d.CastTo(DataType::kDate);
        Result<Value> add = k.CastTo(DataType::kInt64);
        st = !day.ok() ? day.status() : add.status();
        int64_t sum = 0;
        if (st.ok()) st = CheckedAdd(day->date_value(), add->int64_value(), &sum);
        if (st.ok()) out[i] = Value::Date(sum);
        break;
      }
      case Op::kContains: {
        // Direct text evaluation — the naive path when no full-text index
        // plan was chosen.
        const Value& text = (*a)[i];
        const Value& query = (*b)[i];
        out[i] = Value::Bool(!text.is_null() && !query.is_null() &&
                             fulltext::MatchesTextQuery(Text(text),
                                                        Text(query)));
        break;
      }
      default:
        st = Status::Internal("unknown scalar function node");
        break;
    }
    if (!st.ok()) {
      Fail(sel[i], std::move(st));
      return;
    }
  }
}

}  // namespace dhqp
