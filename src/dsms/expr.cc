#include "dsms/expr.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/int_div.h"
#include "util/simd.h"

namespace fwdecay::dsms {

std::unique_ptr<Expr> Expr::Column(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kColumn;
  e->name = std::move(name);
  return e;
}

std::unique_ptr<Expr> Expr::Literal(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kLiteral;
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
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

std::unique_ptr<Expr> Expr::Neg(std::unique_ptr<Expr> operand) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kNeg;
  e->args.push_back(std::move(operand));
  return e;
}

std::unique_ptr<Expr> Expr::Call(std::string func,
                                 std::vector<std::unique_ptr<Expr>> args) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kCall;
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
  e->args.reserve(args.size());
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

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

bool IsKnownColumn(const std::string& name) {
  const std::string n = Lower(name);
  return n == "time" || n == "dtime" || n == "srcip" || n == "destip" ||
         n == "srcport" || n == "destport" || n == "len" || n == "protocol";
}

Value ReadColumn(const std::string& name, const Packet& p) {
  const std::string n = Lower(name);
  if (n == "time") return Value(static_cast<std::int64_t>(p.time));
  if (n == "dtime") return Value(p.time);
  if (n == "srcip") return Value(static_cast<std::int64_t>(p.src_ip));
  if (n == "destip") return Value(static_cast<std::int64_t>(p.dest_ip));
  if (n == "srcport") return Value(static_cast<std::int64_t>(p.src_port));
  if (n == "destport") return Value(static_cast<std::int64_t>(p.dest_port));
  if (n == "len") return Value(static_cast<std::int64_t>(p.len));
  if (n == "protocol") return Value(static_cast<std::int64_t>(p.protocol));
  FWDECAY_CHECK_MSG(false, "unknown column");
  return Value();
}

namespace {

// Built-in scalar functions, resolved from the call name once per
// expression (per batch in the batched evaluator) instead of re-matching
// the string per tuple.
enum class ScalarFn {
  kExp, kLn, kSqrt, kAbs, kFloor, kPow, kPolyweight, kExpweight,
};

// Case-insensitive match against a lowercase literal without building
// a lowered copy: the resolvers below run once per batch per expression
// node, and the batched evaluator must stay allocation-free.
bool NameIs(const std::string& name, const char* lower) {
  const char* p = lower;
  for (char c : name) {
    if (*p == '\0' ||
        std::tolower(static_cast<unsigned char>(c)) != *p) {
      return false;
    }
    ++p;
  }
  return *p == '\0';
}

ScalarFn ResolveScalarFn(const std::string& name) {
  if (NameIs(name, "exp")) return ScalarFn::kExp;
  if (NameIs(name, "ln")) return ScalarFn::kLn;
  if (NameIs(name, "sqrt")) return ScalarFn::kSqrt;
  if (NameIs(name, "abs")) return ScalarFn::kAbs;
  if (NameIs(name, "floor")) return ScalarFn::kFloor;
  if (NameIs(name, "pow")) return ScalarFn::kPow;
  if (NameIs(name, "polyweight")) return ScalarFn::kPolyweight;
  if (NameIs(name, "expweight")) return ScalarFn::kExpweight;
  FWDECAY_CHECK_MSG(false, "unknown scalar function (aggregates cannot be "
                           "evaluated per tuple)");
  return ScalarFn::kExp;
}

// Leading arguments each scalar function reads (extra ones are ignored).
constexpr std::size_t kMaxScalarArity = 3;
std::size_t ScalarFnArity(ScalarFn fn) {
  switch (fn) {
    case ScalarFn::kPow: return 2;
    case ScalarFn::kPolyweight:
    case ScalarFn::kExpweight: return 3;
    default: return 1;
  }
}

// The one definition of each scalar function, over its arguments
// widened to double (x[0..ScalarFnArity(fn))). kFloor returns floor(x)
// as a double; its callers store it through FloorToI64. Shared by the
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
  }
  FWDECAY_CHECK_MSG(false, "unreachable scalar function");
  return 0.0;
}

// Stores floor()'s double result as an int64, saturating where the
// plain conversion would be undefined: NaN -> 0, below -2^63 (or -inf)
// -> INT64_MIN, at or above 2^63 (or +inf) -> INT64_MAX. Every value in
// between is already integral and converts exactly. The per-tuple,
// post-aggregation and batched evaluators all convert through here.
// FDQUANTILE saturates the same way where an int64 has no image in its
// q-digest universe: into [0, 2^bits - 1] (udafs.cc).
std::int64_t FloorToI64(double y) {
  constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact
  if (std::isnan(y)) return 0;
  if (y < -kTwo63) return std::numeric_limits<std::int64_t>::min();
  if (y >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(y);
}

// Applies a resolved scalar function to already-evaluated arguments:
// floor yields an int, every other function a double.
Value ApplyScalarFn(ScalarFn fn, const std::vector<Value>& args) {
  const std::size_t arity = ScalarFnArity(fn);
  FWDECAY_CHECK_MSG(args.size() >= arity, "missing scalar function argument");
  double x[kMaxScalarArity];
  for (std::size_t i = 0; i < arity; ++i) x[i] = args[i].AsDouble();
  const double y = ScalarFnF64(fn, x);
  if (fn == ScalarFn::kFloor) return Value(FloorToI64(y));
  return Value(y);
}

// The one definition of each binary operator over Values, shared by the
// row evaluator and the batched evaluator's boxed fallback. Logical
// operators short-circuit, so their callers handle them first.
Value ApplyBinOp(BinOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
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
      break;
  }
  FWDECAY_CHECK_MSG(false, "unreachable logical operator");
  return Value();
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
// evaluated here, operands left to right.
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
      const ScalarFn fn = ResolveScalarFn(e.name);
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const auto& a : e.args) args.push_back(EvalRow(*a, leaf));
      return ApplyScalarFn(fn, args);
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
      return ApplyBinOp(e.op, lhs, rhs);
    }
  }
  FWDECAY_CHECK_MSG(false, "unreachable expression kind");
  return Value();
}

}  // namespace

Value EvalExpr(const Expr& e, const Packet& p) {
  return EvalRow(e, [&p](const Expr& leaf) {
    if (leaf.kind == Expr::Kind::kColumn) return ReadColumn(leaf.name, p);
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

Value EvalPostExpr(const Expr& e, const std::vector<Value>& agg_values,
                   const std::vector<Value>& group_key) {
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

bool EvalPostPredicate(const Expr& e, const std::vector<Value>& agg_values,
                       const std::vector<Value>& group_key) {
  return Truthy(EvalPostExpr(e, agg_values, group_key));
}

// ---------------------------------------------------------------------------
// Batched evaluation
// ---------------------------------------------------------------------------

namespace {

// Packet schema columns, resolved from the name once per batch. Mirrors
// ReadColumn exactly (same types, same int widening).
enum class ColumnId {
  kTime, kDtime, kSrcIp, kDestIp, kSrcPort, kDestPort, kLen, kProtocol,
};

ColumnId ResolveColumn(const std::string& name) {
  if (NameIs(name, "time")) return ColumnId::kTime;
  if (NameIs(name, "dtime")) return ColumnId::kDtime;
  if (NameIs(name, "srcip")) return ColumnId::kSrcIp;
  if (NameIs(name, "destip")) return ColumnId::kDestIp;
  if (NameIs(name, "srcport")) return ColumnId::kSrcPort;
  if (NameIs(name, "destport")) return ColumnId::kDestPort;
  if (NameIs(name, "len")) return ColumnId::kLen;
  if (NameIs(name, "protocol")) return ColumnId::kProtocol;
  FWDECAY_CHECK_MSG(false, "unknown column");
  return ColumnId::kTime;
}

// Gathers a schema column into typed storage: every column is int64
// (same widening as ReadColumn) except dtime, which is double.
void ReadColumnBatch(ColumnId col, const PacketBatch& batch,
                     const std::uint32_t* sel, std::size_t n,
                     ValueColumn* out) {
  if (col == ColumnId::kDtime) {
    double* dst = out->AppendF64(n);
    const double* t = batch.time();
    for (std::size_t i = 0; i < n; ++i) dst[i] = t[sel[i]];
    return;
  }
  std::int64_t* dst = out->AppendI64(n);
  switch (col) {
    case ColumnId::kTime: {
      const double* t = batch.time();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::int64_t>(t[sel[i]]);
      }
      return;
    }
    case ColumnId::kDtime:
      return;  // handled above
    case ColumnId::kSrcIp: {
      const std::uint32_t* c = batch.src_ip();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::int64_t>(c[sel[i]]);
      }
      return;
    }
    case ColumnId::kDestIp: {
      const std::uint32_t* c = batch.dest_ip();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::int64_t>(c[sel[i]]);
      }
      return;
    }
    case ColumnId::kSrcPort: {
      const std::uint16_t* c = batch.src_port();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::int64_t>(c[sel[i]]);
      }
      return;
    }
    case ColumnId::kDestPort: {
      const std::uint16_t* c = batch.dest_port();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::int64_t>(c[sel[i]]);
      }
      return;
    }
    case ColumnId::kLen: {
      const std::uint32_t* c = batch.len();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::int64_t>(c[sel[i]]);
      }
      return;
    }
    case ColumnId::kProtocol: {
      const std::uint8_t* c = batch.protocol();
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::int64_t>(c[sel[i]]);
      }
      return;
    }
  }
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

// Per-row Value fallback for binary operators over boxed columns (mixed
// types or strings): exactly the per-tuple operator semantics.
void EvalBinaryBoxed(BinOp op, const ValueColumn& lhs, const ValueColumn& rhs,
                     std::size_t n, ValueColumn* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out->push_back(ApplyBinOp(op, lhs[i], rhs[i]));
  }
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
  // Any other expression: evaluate as a column and keep the truthy rows.
  // Typed columns compact through the SIMD kernels (NaN is truthy, as in
  // the scalar Truthy); boxed columns fall back to the per-row test.
  ScratchColumn col(scratch);
  EvalExprBatch(e, batch, sel, n, scratch, col.get());
  switch (col->rep()) {
    case ValueColumn::Rep::kI64:
      return simd::CompactNonZeroI64(col->i64_data(), sel, n);
    case ValueColumn::Rep::kF64:
      return simd::CompactNonZeroF64(col->f64_data(), sel, n);
    case ValueColumn::Rep::kBoxed:
      break;
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (Truthy(col->boxed_at(i))) sel[kept++] = sel[i];
  }
  return kept;
}

void EvalExprBatch(const Expr& e, const PacketBatch& batch,
                   const std::uint32_t* sel, std::size_t n,
                   BatchEvalScratch* scratch, ValueColumn* out) {
  out->clear();
  out->reserve(n);
  switch (e.kind) {
    case Expr::Kind::kColumn:
      ReadColumnBatch(ResolveColumn(e.name), batch, sel, n, out);
      return;
    case Expr::Kind::kLiteral:
      // Numeric literals broadcast into typed storage. String literals,
      // and empty batches (an empty column keeps its kI64 rep), take
      // the per-row append.
      if (n > 0 && e.literal.is_int()) {
        std::fill_n(out->AppendI64(n), n, e.literal.AsInt());
      } else if (n > 0 && e.literal.is_double()) {
        std::fill_n(out->AppendF64(n), n, e.literal.AsDouble());
      } else {
        for (std::size_t i = 0; i < n; ++i) out->push_back(e.literal);
      }
      return;
    case Expr::Kind::kStar: {
      std::int64_t* dst = out->AppendI64(n);
      for (std::size_t i = 0; i < n; ++i) dst[i] = 1;
      return;
    }
    case Expr::Kind::kAggRef:
    case Expr::Kind::kGroupRef:
      FWDECAY_CHECK_MSG(false,
                        "post-aggregation placeholder evaluated per tuple — "
                        "use EvalPostExpr");
      return;
    case Expr::Kind::kNeg: {
      ScratchColumn operand(scratch);
      EvalExprBatch(*e.args[0], batch, sel, n, scratch, operand.get());
      switch (operand->rep()) {
        case ValueColumn::Rep::kI64: {
          const std::int64_t* src = operand->i64_data();
          std::int64_t* dst = out->AppendI64(n);
          for (std::size_t i = 0; i < n; ++i) dst[i] = std::int64_t{0} - src[i];
          return;
        }
        case ValueColumn::Rep::kF64: {
          // Value(0) - Value(d) promotes the int zero: 0.0 - d, which
          // differs from -d on d == +0.0 — keep the subtraction form.
          const double* src = operand->f64_data();
          double* dst = out->AppendF64(n);
          for (std::size_t i = 0; i < n; ++i) dst[i] = 0.0 - src[i];
          return;
        }
        case ValueColumn::Rep::kBoxed:
          for (std::size_t i = 0; i < n; ++i) {
            out->push_back(Value(std::int64_t{0}) - operand->boxed_at(i));
          }
          return;
      }
      return;
    }
    case Expr::Kind::kCall: {
      const ScalarFn fn = ResolveScalarFn(e.name);
      // Evaluate every argument as a column, then apply the resolved
      // function row by row — scalar functions are libm-bound, so they
      // stay in stream order (the bit-exactness rule in util/simd.h).
      // The argument columns, their widened copies and the pointer list
      // holding them come from the scratch pools, so steady-state
      // evaluation allocates nothing.
      const std::size_t arity = ScalarFnArity(fn);
      std::vector<ValueColumn*>* arg_cols = scratch->AcquireColumnList();
      arg_cols->reserve(e.args.size() + arity);
      bool typed = n > 0;
      for (const auto& a : e.args) {
        arg_cols->push_back(scratch->AcquireColumn());
        EvalExprBatch(*a, batch, sel, n, scratch, arg_cols->back());
        typed = typed && arg_cols->back()->rep() != ValueColumn::Rep::kBoxed;
      }
      if (typed) {
        // Typed arguments: widen each once (the int->double promotion
        // Value::AsDouble performs), then one double call per row.
        FWDECAY_CHECK_MSG(e.args.size() >= arity,
                          "missing scalar function argument");
        const double* cols[kMaxScalarArity];
        for (std::size_t a = 0; a < arity; ++a) {
          ValueColumn* conv = scratch->AcquireColumn();
          cols[a] = AsF64(*(*arg_cols)[a], n, conv);
          arg_cols->push_back(conv);
        }
        double x[kMaxScalarArity];
        if (fn == ScalarFn::kFloor) {
          std::int64_t* dst = out->AppendI64(n);
          for (std::size_t i = 0; i < n; ++i) {
            x[0] = cols[0][i];
            dst[i] = FloorToI64(ScalarFnF64(fn, x));
          }
        } else {
          double* dst = out->AppendF64(n);
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t a = 0; a < arity; ++a) x[a] = cols[a][i];
            dst[i] = ScalarFnF64(fn, x);
          }
        }
      } else {
        // A boxed argument (a string literal): per-row Values, with
        // ApplyScalarFn's CHECKs.
        std::vector<Value>* row_args = scratch->RowArgsBuf();
        row_args->resize(e.args.size());
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t a = 0; a < e.args.size(); ++a) {
            (*row_args)[a] = (*(*arg_cols)[a])[i];
          }
          out->push_back(ApplyScalarFn(fn, *row_args));
        }
      }
      for (ValueColumn* col : *arg_cols) scratch->ReleaseColumn(col);
      scratch->ReleaseColumnList(arg_cols);
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
          lhs->rep() == ValueColumn::Rep::kI64 &&
          rhs_expr.kind == Expr::Kind::kLiteral &&
          rhs_expr.literal.is_int() && rhs_expr.literal.AsInt() != 0) {
        // Integer division by a nonzero int literal (`time / 60`,
        // `time % 60`): the divisor is checked once and every row takes
        // a multiply-shift instead of a checked idiv; the right-hand
        // column is never built.
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
      if (lhs->rep() == ValueColumn::Rep::kBoxed ||
          rhs->rep() == ValueColumn::Rep::kBoxed) {
        EvalBinaryBoxed(e.op, *lhs, *rhs, n, out);
        return;
      }
      if (lhs->rep() == ValueColumn::Rep::kI64 &&
          rhs->rep() == ValueColumn::Rep::kI64) {
        // Integer arithmetic stays in integers (Value promotion rules).
        const std::int64_t* a = lhs->i64_data();
        const std::int64_t* b = rhs->i64_data();
        switch (e.op) {
          case BinOp::kAdd:
            simd::AddI64(a, b, n, out->AppendI64(n));
            return;
          case BinOp::kSub:
            simd::SubI64(a, b, n, out->AppendI64(n));
            return;
          case BinOp::kMul: {
            std::int64_t* dst = out->AppendI64(n);
            for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] * b[i];
            return;
          }
          case BinOp::kDiv: {
            std::int64_t* dst = out->AppendI64(n);
            for (std::size_t i = 0; i < n; ++i) {
              FWDECAY_CHECK_MSG(b[i] != 0, "integer division by zero");
              dst[i] = a[i] / b[i];
            }
            return;
          }
          case BinOp::kMod: {
            std::int64_t* dst = out->AppendI64(n);
            for (std::size_t i = 0; i < n; ++i) {
              FWDECAY_CHECK_MSG(b[i] != 0, "integer modulo by zero");
              dst[i] = a[i] % b[i];
            }
            return;
          }
          case BinOp::kEq:
          case BinOp::kNe:
          case BinOp::kLt:
          case BinOp::kLe:
          case BinOp::kGt:
          case BinOp::kGe:
            simd::CmpI64(ToCmpOp(e.op), a, b, n, out->AppendI64(n));
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
