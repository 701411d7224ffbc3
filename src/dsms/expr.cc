#include "dsms/expr.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/int_div.h"
#include "util/simd.h"

namespace fwdecay::dsms {

namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Name lookups, run once when a node is built (case-insensitive).
ColumnId LookupColumn(const std::string& name) {
  static constexpr std::pair<const char*, ColumnId> kColumns[] = {
      {"time", ColumnId::kTime},         {"dtime", ColumnId::kDtime},
      {"srcip", ColumnId::kSrcIp},       {"destip", ColumnId::kDestIp},
      {"srcport", ColumnId::kSrcPort},   {"destport", ColumnId::kDestPort},
      {"len", ColumnId::kLen},           {"protocol", ColumnId::kProtocol}};
  const std::string lower = Lower(name);
  for (const auto& [column_name, id] : kColumns) {
    if (lower == column_name) return id;
  }
  return ColumnId::kUnknown;
}

ScalarFn LookupScalarFn(const std::string& name) {
  static constexpr std::pair<const char*, ScalarFn> kFns[] = {
      {"exp", ScalarFn::kExp},     {"ln", ScalarFn::kLn},
      {"sqrt", ScalarFn::kSqrt},   {"abs", ScalarFn::kAbs},
      {"floor", ScalarFn::kFloor}, {"pow", ScalarFn::kPow},
      {"polyweight", ScalarFn::kPolyweight},
      {"expweight", ScalarFn::kExpweight}};
  const std::string lower = Lower(name);
  for (const auto& [fn_name, fn] : kFns) {
    if (lower == fn_name) return fn;
  }
  return ScalarFn::kNone;
}

}  // namespace

std::unique_ptr<Expr> Expr::Column(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kColumn;
  e->column = LookupColumn(name);
  e->type = e->column == ColumnId::kDtime ? ExprType::kF64 : ExprType::kI64;
  e->name = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::Literal(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
  e->type = v.is_double() ? ExprType::kF64 : ExprType::kI64;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::Star() {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kStar;
  return e;
}

std::unique_ptr<Expr> Expr::AggRef(int index) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kAggRef;
  e->agg_index = index;
  return e;
}

std::unique_ptr<Expr> Expr::GroupRef(int index) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kGroupRef;
  e->group_index = index;
  return e;
}

std::unique_ptr<Expr> Expr::Binary(BinOp op, std::unique_ptr<Expr> lhs,
                                   std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->op = op;
  // Arithmetic promotes to double when either operand is one;
  // comparisons and logic yield int 0/1.
  const bool arith = op == BinOp::kAdd || op == BinOp::kSub ||
                     op == BinOp::kMul || op == BinOp::kDiv ||
                     op == BinOp::kMod;
  e->type = arith && (lhs->type == ExprType::kF64 ||
                      rhs->type == ExprType::kF64)
                ? ExprType::kF64
                : ExprType::kI64;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

std::unique_ptr<Expr> Expr::Neg(std::unique_ptr<Expr> operand) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kNeg;
  e->type = operand->type;
  e->args.push_back(std::move(operand));
  return e;
}

std::unique_ptr<Expr> Expr::Call(std::string func,
                                 std::vector<std::unique_ptr<Expr>> args) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kCall;
  e->fn = LookupScalarFn(func);
  // floor yields an int, every other scalar function a double.
  e->type = e->fn == ScalarFn::kFloor || e->fn == ScalarFn::kNone
                ? ExprType::kI64
                : ExprType::kF64;
  e->name = std::move(func);
  e->args = std::move(args);
  return e;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->name = name;
  e->literal = literal;
  e->op = op;
  e->agg_index = agg_index;
  e->group_index = group_index;
  e->column = column;
  e->fn = fn;
  e->type = type;
  e->args.reserve(args.size());
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

namespace {

const char* OpText(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "<>";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
  }
  return "?";
}

}  // namespace

bool Expr::ContainsCall(const std::vector<std::string>& agg_names) const {
  if (kind == Kind::kCall) {
    const std::string lower = Lower(name);
    for (const std::string& agg : agg_names) {
      if (lower == agg) return true;
    }
  }
  for (const auto& a : args) {
    if (a->ContainsCall(agg_names)) return true;
  }
  return false;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kColumn:
      return Lower(name);
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kStar:
      return "*";
    case Kind::kAggRef:
      return "$agg" + std::to_string(agg_index);
    case Kind::kGroupRef:
      return "$grp" + std::to_string(group_index);
    case Kind::kNeg: {
      std::string s = "(-";
      s += args[0]->ToString();
      s += ")";
      return s;
    }
    case Kind::kBinary: {
      std::string s = "(";
      s += args[0]->ToString();
      s += " ";
      s += OpText(op);
      s += " ";
      s += args[1]->ToString();
      s += ")";
      return s;
    }
    case Kind::kCall: {
      std::string s = Lower(name) + "(";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) s += ", ";
        s += args[i]->ToString();
      }
      return s + ")";
    }
  }
  return "?";
}

std::size_t ScalarFnArity(ScalarFn fn) {
  switch (fn) {
    case ScalarFn::kPow: return 2;
    case ScalarFn::kPolyweight:
    case ScalarFn::kExpweight: return 3;
    case ScalarFn::kNone: return 0;
    default: return 1;
  }
}

Value ReadColumn(ColumnId column, const Packet& p) {
  switch (column) {
    case ColumnId::kTime: return Value(SaturatingI64(p.time));
    case ColumnId::kDtime: return Value(p.time);
    case ColumnId::kSrcIp: return Value(std::int64_t{p.src_ip});
    case ColumnId::kDestIp: return Value(std::int64_t{p.dest_ip});
    case ColumnId::kSrcPort: return Value(std::int64_t{p.src_port});
    case ColumnId::kDestPort: return Value(std::int64_t{p.dest_port});
    case ColumnId::kLen: return Value(std::int64_t{p.len});
    case ColumnId::kProtocol: return Value(std::int64_t{p.protocol});
    case ColumnId::kUnknown: break;
  }
  FWDECAY_CHECK_MSG(false, "unbound column (the query was not compiled)");
  return Value();
}

namespace {

constexpr std::size_t kMaxScalarArity = 3;

// The one definition of each scalar function, over its arguments
// widened to double (x[0..ScalarFnArity(fn))). kFloor returns floor(x)
// as a double; its callers store it through SaturatingI64. Shared by the
// per-tuple, post-aggregation and batched evaluators.
double ScalarFnF64(ScalarFn fn, const double* x) {
  switch (fn) {
    case ScalarFn::kExp: return std::exp(x[0]);
    case ScalarFn::kLn: return std::log(x[0]);
    case ScalarFn::kSqrt: return std::sqrt(x[0]);
    case ScalarFn::kAbs: return std::fabs(x[0]);
    case ScalarFn::kFloor: return std::floor(x[0]);
    case ScalarFn::kPow: return std::pow(x[0], x[1]);
    // Syntactic sugar for forward-decay weights (Section IV suggests
    // exactly this kind of helper): the landmark is the start of the
    // `period`-long bucket containing t, so
    //   polyweight(time, 60, 2)  ==  (time % 60)^2
    //   expweight(time, 60, 0.1) ==  exp(0.1 * (time % 60))
    case ScalarFn::kPolyweight: return std::pow(std::fmod(x[0], x[1]), x[2]);
    case ScalarFn::kExpweight: return std::exp(x[2] * std::fmod(x[0], x[1]));
    case ScalarFn::kNone: break;
  }
  FWDECAY_CHECK_MSG(false, "unreachable scalar function");
  return 0.0;
}

// A call node's function, checked once per node evaluation (per batch
// on the batched path): Compile rejects unknown names and short calls,
// so only a hand-built, uncompiled tree can fail here.
std::size_t CheckedArity(const Expr& call) {
  const std::size_t arity = ScalarFnArity(call.fn);
  FWDECAY_CHECK_MSG(call.fn != ScalarFn::kNone && call.args.size() >= arity,
                    "unbound scalar call (the query was not compiled)");
  return arity;
}

// Predicate truth of a value: nonzero numbers and non-empty strings.
bool Truthy(const Value& v) {
  if (v.is_int()) return v.AsInt() != 0;
  if (v.is_double()) return v.AsDouble() != 0.0;
  return !v.AsString().empty();
}

// The one row evaluator behind EvalExpr and EvalPostExpr. They differ
// only in where leaves come from, so `leaf(e)` reads every kColumn,
// kStar, kAggRef and kGroupRef node (and CHECK-fails on the kinds its
// caller refuses); literals, negation, scalar calls and operators are
// evaluated here, operands left to right, through the Value operators.
template <class Leaf>
Value EvalRow(const Expr& e, const Leaf& leaf) {
  switch (e.kind) {
    case Expr::Kind::kColumn:
    case Expr::Kind::kStar:
    case Expr::Kind::kAggRef:
    case Expr::Kind::kGroupRef:
      return leaf(e);
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kNeg:
      return Value(std::int64_t{0}) - EvalRow(*e.args[0], leaf);
    case Expr::Kind::kCall: {
      const std::size_t arity = CheckedArity(e);
      double x[kMaxScalarArity];
      for (std::size_t a = 0; a < arity; ++a) {
        x[a] = EvalRow(*e.args[a], leaf).AsDouble();
      }
      const double y = ScalarFnF64(e.fn, x);
      if (e.type == ExprType::kI64) return Value(SaturatingI64(y));  // floor
      return Value(y);
    }
    case Expr::Kind::kBinary: {
      if (e.op == BinOp::kAnd) {
        return Value(std::int64_t{Truthy(EvalRow(*e.args[0], leaf)) &&
                                  Truthy(EvalRow(*e.args[1], leaf))});
      }
      if (e.op == BinOp::kOr) {
        return Value(std::int64_t{Truthy(EvalRow(*e.args[0], leaf)) ||
                                  Truthy(EvalRow(*e.args[1], leaf))});
      }
      const Value lhs = EvalRow(*e.args[0], leaf);
      const Value rhs = EvalRow(*e.args[1], leaf);
      switch (e.op) {
        case BinOp::kAdd: return lhs + rhs;
        case BinOp::kSub: return lhs - rhs;
        case BinOp::kMul: return lhs * rhs;
        case BinOp::kDiv: return lhs / rhs;
        case BinOp::kMod: return lhs % rhs;
        case BinOp::kEq: return Value(std::int64_t{lhs == rhs});
        case BinOp::kNe: return Value(std::int64_t{!(lhs == rhs)});
        case BinOp::kLt: return Value(std::int64_t{Compare(lhs, rhs) < 0});
        case BinOp::kLe: return Value(std::int64_t{Compare(lhs, rhs) <= 0});
        case BinOp::kGt: return Value(std::int64_t{Compare(lhs, rhs) > 0});
        case BinOp::kGe: return Value(std::int64_t{Compare(lhs, rhs) >= 0});
        case BinOp::kAnd:
        case BinOp::kOr:
          break;  // handled above
      }
      break;
    }
  }
  FWDECAY_CHECK_MSG(false, "unreachable expression kind");
  return Value();
}

}  // namespace

Value EvalExpr(const Expr& e, const Packet& p) {
  return EvalRow(e, [&p](const Expr& leaf) {
    if (leaf.kind == Expr::Kind::kColumn) return ReadColumn(leaf.column, p);
    if (leaf.kind == Expr::Kind::kStar) return Value(std::int64_t{1});
    FWDECAY_CHECK_MSG(false,
                      "post-aggregation placeholder evaluated per tuple — "
                      "use EvalPostExpr");
    return Value();
  });
}

bool EvalPredicate(const Expr& e, const Packet& p) {
  return Truthy(EvalExpr(e, p));
}

Value EvalPostExpr(const Expr& e, std::span<const Value> agg_values,
                   std::span<const Value> group_key) {
  return EvalRow(e, [&](const Expr& leaf) {
    if (leaf.kind == Expr::Kind::kAggRef) {
      FWDECAY_CHECK(leaf.agg_index >= 0 &&
                    static_cast<std::size_t>(leaf.agg_index) <
                        agg_values.size());
      return agg_values[static_cast<std::size_t>(leaf.agg_index)];
    }
    if (leaf.kind == Expr::Kind::kGroupRef) {
      FWDECAY_CHECK(leaf.group_index >= 0 &&
                    static_cast<std::size_t>(leaf.group_index) <
                        group_key.size());
      return group_key[static_cast<std::size_t>(leaf.group_index)];
    }
    FWDECAY_CHECK_MSG(false,
                      "post-aggregate expressions may only combine "
                      "aggregate results, group columns and literals");
    return Value();
  });
}

bool EvalPostPredicate(const Expr& e, std::span<const Value> agg_values,
                       std::span<const Value> group_key) {
  return Truthy(EvalPostExpr(e, agg_values, group_key));
}

// ---------------------------------------------------------------------------
// Batched evaluation
// ---------------------------------------------------------------------------

namespace {

template <class T>
void GatherI64(const T* src, const std::uint32_t* sel, std::size_t n,
               std::int64_t* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::int64_t>(src[sel[i]]);
  }
}

// Gathers a schema column into typed storage, exactly as ReadColumn
// reads it: every column is int64 except dtime, which is double.
void ReadColumnBatch(ColumnId col, const PacketBatch& batch,
                     const std::uint32_t* sel, std::size_t n,
                     ValueColumn* out) {
  switch (col) {
    case ColumnId::kTime: {
      const double* t = batch.time();
      std::int64_t* dst = out->AppendI64(n);
      for (std::size_t i = 0; i < n; ++i) dst[i] = SaturatingI64(t[sel[i]]);
      return;
    }
    case ColumnId::kDtime: {
      const double* t = batch.time();
      double* dst = out->AppendF64(n);
      for (std::size_t i = 0; i < n; ++i) dst[i] = t[sel[i]];
      return;
    }
    case ColumnId::kSrcIp:
      return GatherI64(batch.src_ip(), sel, n, out->AppendI64(n));
    case ColumnId::kDestIp:
      return GatherI64(batch.dest_ip(), sel, n, out->AppendI64(n));
    case ColumnId::kSrcPort:
      return GatherI64(batch.src_port(), sel, n, out->AppendI64(n));
    case ColumnId::kDestPort:
      return GatherI64(batch.dest_port(), sel, n, out->AppendI64(n));
    case ColumnId::kLen:
      return GatherI64(batch.len(), sel, n, out->AppendI64(n));
    case ColumnId::kProtocol:
      return GatherI64(batch.protocol(), sel, n, out->AppendI64(n));
    case ColumnId::kUnknown:
      break;
  }
  FWDECAY_CHECK_MSG(false, "unbound column (the query was not compiled)");
}

// RAII pool borrow, so early CHECK-aborts cannot leak pool entries on
// the normal path and the release calls cannot be forgotten.
class ScratchColumn {
 public:
  explicit ScratchColumn(BatchEvalScratch* scratch)
      : scratch_(scratch), col_(scratch->AcquireColumn()) {}
  ~ScratchColumn() { scratch_->ReleaseColumn(col_); }
  ScratchColumn(const ScratchColumn&) = delete;
  ScratchColumn& operator=(const ScratchColumn&) = delete;
  ValueColumn* get() { return col_; }
  ValueColumn* operator->() { return col_; }
  ValueColumn& operator*() { return *col_; }

 private:
  BatchEvalScratch* scratch_;
  ValueColumn* col_;
};

class ScratchIndex {
 public:
  explicit ScratchIndex(BatchEvalScratch* scratch)
      : scratch_(scratch), idx_(scratch->AcquireIndex()) {}
  ~ScratchIndex() { scratch_->ReleaseIndex(idx_); }
  ScratchIndex(const ScratchIndex&) = delete;
  ScratchIndex& operator=(const ScratchIndex&) = delete;
  std::vector<std::uint32_t>* get() { return idx_; }
  std::vector<std::uint32_t>* operator->() { return idx_; }
  std::vector<std::uint32_t>& operator*() { return *idx_; }

 private:
  BatchEvalScratch* scratch_;
  std::vector<std::uint32_t>* idx_;
};

simd::CmpOp ToCmpOp(BinOp op) {
  switch (op) {
    case BinOp::kEq: return simd::CmpOp::kEq;
    case BinOp::kNe: return simd::CmpOp::kNe;
    case BinOp::kLt: return simd::CmpOp::kLt;
    case BinOp::kLe: return simd::CmpOp::kLe;
    case BinOp::kGt: return simd::CmpOp::kGt;
    case BinOp::kGe: return simd::CmpOp::kGe;
    default:
      FWDECAY_CHECK_MSG(false, "non-comparison operator in compare kernel");
      return simd::CmpOp::kEq;
  }
}

// Double view of a typed numeric column: kF64 columns are returned in
// place; kI64 columns are widened into `conv` — the same int→double
// promotion Value arithmetic performs on mixed operands.
const double* AsF64(const ValueColumn& col, std::size_t n,
                    ValueColumn* conv) {
  if (col.rep() == ValueColumn::Rep::kF64) return col.f64_data();
  double* dst = conv->AppendF64(n);
  const std::int64_t* src = col.i64_data();
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<double>(src[i]);
  return dst;
}

}  // namespace

std::size_t EvalPredicateBatch(const Expr& e, const PacketBatch& batch,
                               std::uint32_t* sel, std::size_t n,
                               BatchEvalScratch* scratch) {
  if (e.kind == Expr::Kind::kBinary && e.op == BinOp::kAnd) {
    // Conjunction: the right operand sees only rows the left accepted —
    // the batched form of the per-tuple short-circuit.
    n = EvalPredicateBatch(*e.args[0], batch, sel, n, scratch);
    return EvalPredicateBatch(*e.args[1], batch, sel, n, scratch);
  }
  if (e.kind == Expr::Kind::kBinary && e.op == BinOp::kOr) {
    // Disjunction: rows the left operand accepted pass outright; the
    // right operand is evaluated only on the remaining rows, then the
    // two ascending accept lists are merged back into sel.
    ScratchIndex all(scratch);
    ScratchIndex rest(scratch);
    ScratchIndex merged(scratch);
    all->assign(sel, sel + n);
    const std::size_t n_lhs =
        EvalPredicateBatch(*e.args[0], batch, sel, n, scratch);
    // Ascending set difference: rows in `all` the left operand rejected.
    std::size_t a = 0;
    for (std::size_t i = 0; i < all->size(); ++i) {
      if (a < n_lhs && sel[a] == (*all)[i]) {
        ++a;
      } else {
        rest->push_back((*all)[i]);
      }
    }
    const std::size_t n_rhs = EvalPredicateBatch(
        *e.args[1], batch, rest->data(), rest->size(), scratch);
    merged->reserve(n_lhs + n_rhs);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < n_lhs || j < n_rhs) {
      if (j >= n_rhs || (i < n_lhs && sel[i] < (*rest)[j])) {
        merged->push_back(sel[i++]);
      } else {
        merged->push_back((*rest)[j++]);
      }
    }
    std::copy(merged->begin(), merged->end(), sel);
    return merged->size();
  }
  // Any other expression: evaluate as a column and keep the truthy rows
  // through the SIMD kernels (NaN is truthy, as in the scalar Truthy).
  ScratchColumn col(scratch);
  EvalExprBatch(e, batch, sel, n, scratch, col.get());
  if (col->rep() == ValueColumn::Rep::kI64) {
    return simd::CompactNonZeroI64(col->i64_data(), sel, n);
  }
  return simd::CompactNonZeroF64(col->f64_data(), sel, n);
}

void EvalExprBatch(const Expr& e, const PacketBatch& batch,
                   const std::uint32_t* sel, std::size_t n,
                   BatchEvalScratch* scratch, ValueColumn* out) {
  out->clear();
  if (n == 0) return;
  out->reserve(n);
  switch (e.kind) {
    case Expr::Kind::kColumn:
      ReadColumnBatch(e.column, batch, sel, n, out);
      return;
    case Expr::Kind::kLiteral:
      if (e.type == ExprType::kI64) {
        std::fill_n(out->AppendI64(n), n, e.literal.AsInt());
      } else {
        std::fill_n(out->AppendF64(n), n, e.literal.AsDouble());
      }
      return;
    case Expr::Kind::kStar:
      std::fill_n(out->AppendI64(n), n, std::int64_t{1});
      return;
    case Expr::Kind::kAggRef:
    case Expr::Kind::kGroupRef:
      FWDECAY_CHECK_MSG(false,
                        "post-aggregation placeholder evaluated per tuple — "
                        "use EvalPostExpr");
      return;
    case Expr::Kind::kNeg: {
      ScratchColumn operand(scratch);
      EvalExprBatch(*e.args[0], batch, sel, n, scratch, operand.get());
      if (operand->rep() == ValueColumn::Rep::kI64) {
        const std::int64_t* src = operand->i64_data();
        std::int64_t* dst = out->AppendI64(n);
        for (std::size_t i = 0; i < n; ++i) dst[i] = WrapSub(0, src[i]);
        return;
      }
      // Value(0) - Value(d) promotes the int zero: 0.0 - d, which
      // differs from -d on d == +0.0 — keep the subtraction form.
      const double* src = operand->f64_data();
      double* dst = out->AppendF64(n);
      for (std::size_t i = 0; i < n; ++i) dst[i] = 0.0 - src[i];
      return;
    }
    case Expr::Kind::kCall: {
      // Evaluate each argument the function reads as a column and widen
      // it to double once (the int->double promotion Value::AsDouble
      // performs), then apply the function row by row — scalar
      // functions are libm-bound, so they stay in stream order (the
      // bit-exactness rule in util/simd.h). The columns come from the
      // scratch pool, so steady-state evaluation allocates nothing.
      const std::size_t arity = CheckedArity(e);
      ValueColumn* held[2 * kMaxScalarArity];
      const double* cols[kMaxScalarArity];
      for (std::size_t a = 0; a < arity; ++a) {
        held[2 * a] = scratch->AcquireColumn();
        held[2 * a + 1] = scratch->AcquireColumn();
        EvalExprBatch(*e.args[a], batch, sel, n, scratch, held[2 * a]);
        cols[a] = AsF64(*held[2 * a], n, held[2 * a + 1]);
      }
      double x[kMaxScalarArity];
      if (e.type == ExprType::kI64) {  // floor
        std::int64_t* dst = out->AppendI64(n);
        for (std::size_t i = 0; i < n; ++i) {
          x[0] = cols[0][i];
          dst[i] = SaturatingI64(ScalarFnF64(e.fn, x));
        }
      } else {
        double* dst = out->AppendF64(n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t a = 0; a < arity; ++a) x[a] = cols[a][i];
          dst[i] = ScalarFnF64(e.fn, x);
        }
      }
      for (std::size_t k = 0; k < 2 * arity; ++k) {
        scratch->ReleaseColumn(held[k]);
      }
      return;
    }
    case Expr::Kind::kBinary: {
      if (e.op == BinOp::kAnd || e.op == BinOp::kOr) {
        // Logical operators in value context: run the short-circuiting
        // selection machinery on a copy of the selection, then expand
        // the surviving-row set back into a 0/1 column.
        ScratchIndex accepted(scratch);
        accepted->assign(sel, sel + n);
        const std::size_t n_true =
            EvalPredicateBatch(e, batch, accepted->data(), n, scratch);
        std::int64_t* dst = out->AppendI64(n);
        std::size_t next = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const bool hit = next < n_true && (*accepted)[next] == sel[i];
          if (hit) ++next;
          dst[i] = hit ? 1 : 0;
        }
        return;
      }
      ScratchColumn lhs(scratch);
      ScratchColumn rhs(scratch);
      EvalExprBatch(*e.args[0], batch, sel, n, scratch, lhs.get());
      const Expr& rhs_expr = *e.args[1];
      if ((e.op == BinOp::kDiv || e.op == BinOp::kMod) &&
          e.type == ExprType::kI64 && rhs_expr.kind == Expr::Kind::kLiteral) {
        // Integer division by an int literal (`time / 60`, `time % 60`):
        // the divisor is analysed once and every row takes a
        // multiply-shift instead of an idiv; the right-hand column is
        // never built.
        const ConstDivisorI64 d(rhs_expr.literal.AsInt());
        const std::int64_t* a = lhs->i64_data();
        std::int64_t* dst = out->AppendI64(n);
        if (e.op == BinOp::kDiv) {
          for (std::size_t i = 0; i < n; ++i) dst[i] = d.Div(a[i]);
        } else {
          for (std::size_t i = 0; i < n; ++i) dst[i] = d.Mod(a[i]);
        }
        return;
      }
      EvalExprBatch(rhs_expr, batch, sel, n, scratch, rhs.get());
      if (lhs->rep() == ValueColumn::Rep::kI64 &&
          rhs->rep() == ValueColumn::Rep::kI64) {
        // Integer arithmetic stays in integers (Value promotion rules),
        // total as util/int_div.h defines it.
        const std::int64_t* a = lhs->i64_data();
        const std::int64_t* b = rhs->i64_data();
        std::int64_t* dst = out->AppendI64(n);
        switch (e.op) {
          case BinOp::kAdd:
            simd::AddI64(a, b, n, dst);
            return;
          case BinOp::kSub:
            simd::SubI64(a, b, n, dst);
            return;
          case BinOp::kMul:
            for (std::size_t i = 0; i < n; ++i) dst[i] = WrapMul(a[i], b[i]);
            return;
          case BinOp::kDiv:
            for (std::size_t i = 0; i < n; ++i) dst[i] = DivI64(a[i], b[i]);
            return;
          case BinOp::kMod:
            for (std::size_t i = 0; i < n; ++i) dst[i] = ModI64(a[i], b[i]);
            return;
          case BinOp::kEq:
          case BinOp::kNe:
          case BinOp::kLt:
          case BinOp::kLe:
          case BinOp::kGt:
          case BinOp::kGe:
            simd::CmpI64(ToCmpOp(e.op), a, b, n, dst);
            return;
          case BinOp::kAnd:
          case BinOp::kOr:
            break;  // handled above
        }
        FWDECAY_CHECK_MSG(false, "unreachable integer operator");
        return;
      }
      // At least one double operand: promote both sides to double,
      // exactly as mixed-type Value arithmetic does.
      ScratchColumn lconv(scratch);
      ScratchColumn rconv(scratch);
      const double* a = AsF64(*lhs, n, lconv.get());
      const double* b = AsF64(*rhs, n, rconv.get());
      switch (e.op) {
        case BinOp::kAdd:
          simd::AddF64(a, b, n, out->AppendF64(n));
          return;
        case BinOp::kSub:
          simd::SubF64(a, b, n, out->AppendF64(n));
          return;
        case BinOp::kMul:
          simd::MulF64(a, b, n, out->AppendF64(n));
          return;
        case BinOp::kDiv:
          simd::DivF64(a, b, n, out->AppendF64(n));
          return;
        case BinOp::kMod: {
          // fmod is libm — stays scalar in stream order.
          double* dst = out->AppendF64(n);
          for (std::size_t i = 0; i < n; ++i) dst[i] = std::fmod(a[i], b[i]);
          return;
        }
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe:
          simd::CmpF64(ToCmpOp(e.op), a, b, n, out->AppendI64(n));
          return;
        case BinOp::kAnd:
        case BinOp::kOr:
          break;  // handled above
      }
      FWDECAY_CHECK_MSG(false, "unreachable double operator");
      return;
    }
  }
  FWDECAY_CHECK_MSG(false, "unreachable expression kind");
}

}  // namespace fwdecay::dsms
