#ifndef FWDECAY_DSMS_EXPR_H_
#define FWDECAY_DSMS_EXPR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsms/batch.h"
#include "dsms/column.h"
#include "dsms/packet.h"
#include "dsms/value.h"

namespace fwdecay::dsms {

/// Binary operators of the GSQL expression language.
enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

/// Packet schema columns. Every column reads as an int64 except dtime
/// (ReadColumn).
enum class ColumnId : std::uint8_t {
  kTime, kDtime, kSrcIp, kDestIp, kSrcPort, kDestPort, kLen, kProtocol,
  kUnknown,  // no such column; CompiledQuery::Compile rejects it
};

/// Built-in scalar functions: exp, ln, sqrt, abs, floor, pow, polyweight,
/// expweight.
enum class ScalarFn : std::uint8_t {
  kExp, kLn, kSqrt, kAbs, kFloor, kPow, kPolyweight, kExpweight,
  kNone,  // an aggregate, or no such function
};

/// Leading arguments `fn` reads; a call may pass more (they are
/// ignored), never fewer (a compile error).
std::size_t ScalarFnArity(ScalarFn fn);

/// Static type of a row expression's value: every GSQL row expression
/// is int64 or double, by the Value promotion rules (DESIGN.md §13.2),
/// and its batched column takes that representation.
using ExprType = ValueColumn::Rep;

/// Expression AST node. The same node type covers scalar expressions,
/// predicates (comparisons yield int 0/1), and function/aggregate calls;
/// the planner decides which calls are aggregates.
///
/// Nodes bind when they are built: Column() resolves the column name,
/// Call() the scalar function, and every factory records the node's
/// static type from its operands' (a string literal types as kI64 and
/// is rejected by CompiledQuery::Compile, like an unknown name). The
/// evaluators read `column`, `fn` and `type` and never look at a name.
struct Expr {
  enum class Kind {
    kColumn, kLiteral, kStar, kBinary, kNeg, kCall,
    kAggRef,   // planner-internal: finalized aggregate slot
    kGroupRef  // planner-internal: group-by key position
  };

  Kind kind = Kind::kLiteral;
  std::string name;             // column name or call function name
  Value literal;                // kLiteral payload
  BinOp op = BinOp::kAdd;       // kBinary operator
  int agg_index = -1;           // kAggRef: slot in the group's agg states
  int group_index = -1;         // kGroupRef: position in the group key
  std::vector<std::unique_ptr<Expr>> args;  // operands / call arguments
  ColumnId column = ColumnId::kUnknown;     // kColumn: the bound column
  ScalarFn fn = ScalarFn::kNone;            // kCall: the bound function
  ExprType type = ExprType::kI64;           // static type of the value

  static std::unique_ptr<Expr> Column(std::string name);
  static std::unique_ptr<Expr> Literal(Value v);
  static std::unique_ptr<Expr> Star();
  /// Planner-internal: placeholder for the finalized value of the
  /// group's agg_index-th aggregate (see engine.h).
  static std::unique_ptr<Expr> AggRef(int index);
  /// Planner-internal: placeholder for the group key's index-th value.
  static std::unique_ptr<Expr> GroupRef(int index);
  static std::unique_ptr<Expr> Binary(BinOp op, std::unique_ptr<Expr> lhs,
                                      std::unique_ptr<Expr> rhs);
  static std::unique_ptr<Expr> Neg(std::unique_ptr<Expr> operand);
  static std::unique_ptr<Expr> Call(std::string func,
                                    std::vector<std::unique_ptr<Expr>> args);

  /// Deep copy.
  std::unique_ptr<Expr> Clone() const;

  /// True if this subtree contains a call to one of `agg_names`
  /// (case-insensitive) — used by the planner to split select items into
  /// group expressions and aggregates.
  bool ContainsCall(const std::vector<std::string>& agg_names) const;

  /// Canonical text form, used to match select items against group-by
  /// expressions and for error messages.
  std::string ToString() const;
};

/// Reads a schema column from a packet. Columns (all integer-valued
/// except dtime): time (whole seconds, truncated and saturated by
/// SaturatingI64), dtime (fractional seconds), srcIP, destIP, srcPort,
/// destPort, len, protocol.
Value ReadColumn(ColumnId column, const Packet& p);

/// Evaluates a scalar expression (no aggregate calls) against a packet:
/// the per-tuple reference the batched evaluator must match bit for bit.
/// Integer arithmetic is total (util/int_div.h). floor returns an int
/// and saturates where its double has no int64 image: NaN -> 0, below
/// -2^63 -> INT64_MIN, at or above 2^63 -> INT64_MAX.
Value EvalExpr(const Expr& e, const Packet& p);

/// Evaluates a predicate: nonzero numeric result = true.
bool EvalPredicate(const Expr& e, const Packet& p);

/// Evaluates a post-aggregation expression: kAggRef nodes read from
/// `agg_values`, kGroupRef nodes from `group_key`; raw column references
/// are not allowed (the planner replaced every bindable one). Supports
/// the full operator set including comparisons and logic, so it also
/// evaluates HAVING predicates.
Value EvalPostExpr(const Expr& e, std::span<const Value> agg_values,
                   std::span<const Value> group_key);

/// Truthiness of a post-aggregation predicate (HAVING).
bool EvalPostPredicate(const Expr& e, std::span<const Value> agg_values,
                       std::span<const Value> group_key);

/// Reusable buffer pool for the batch evaluators. Intermediate value
/// columns and index vectors are acquired per expression node and
/// released on the way out, so steady-state batch evaluation performs no
/// allocation at all once the pool has warmed up. Not thread-safe: one
/// scratch per evaluating thread.
class BatchEvalScratch {
 public:
  /// Borrows an empty value column; Release() returns it to the pool.
  ValueColumn* AcquireColumn() {
    if (free_columns_.empty()) {
      // fwdecay: hotpath-cold(pool growth: once per plan expression depth until warm)
      owned_columns_.push_back(std::make_unique<ValueColumn>());
      return owned_columns_.back().get();
    }
    ValueColumn* col = free_columns_.back();
    free_columns_.pop_back();
    return col;
  }
  void ReleaseColumn(ValueColumn* col) {
    col->clear();
    free_columns_.push_back(col);
  }

  /// Borrows an empty row-index vector (for selection merging).
  std::vector<std::uint32_t>* AcquireIndex() {
    if (free_indexes_.empty()) {
      owned_indexes_.push_back(
          std::make_unique<std::vector<std::uint32_t>>());
      return owned_indexes_.back().get();
    }
    std::vector<std::uint32_t>* idx = free_indexes_.back();
    free_indexes_.pop_back();
    return idx;
  }
  void ReleaseIndex(std::vector<std::uint32_t>* idx) {
    idx->clear();
    free_indexes_.push_back(idx);
  }

 private:
  std::vector<std::unique_ptr<ValueColumn>> owned_columns_;
  std::vector<ValueColumn*> free_columns_;
  std::vector<std::unique_ptr<std::vector<std::uint32_t>>> owned_indexes_;
  std::vector<std::vector<std::uint32_t>*> free_indexes_;
};

/// Batched predicate evaluation over a selection vector. `sel[0..n)`
/// holds ascending row indices into `batch`; on return it has been
/// compacted in place to the rows where `e` is true and the new count is
/// returned. Logical AND/OR keep the per-tuple short-circuit semantics
/// (the right operand is only evaluated on rows the left operand did not
/// decide), so guarded expressions like `len > 0 and 100/len > 2` behave
/// exactly as in EvalPredicate.
std::size_t EvalPredicateBatch(const Expr& e, const PacketBatch& batch,
                               std::uint32_t* sel, std::size_t n,
                               BatchEvalScratch* scratch);

/// Batched scalar-expression evaluation: fills `*out` with one value per
/// selected row (out->size() == n, out[i] = e evaluated on row sel[i]).
/// The column's rep is e.type (an empty selection leaves it empty,
/// kI64) and it is computed through the util/simd.h
/// kernels, bit-exact with the per-tuple evaluator. `e` must be a tree
/// CompiledQuery::Compile accepts as a row expression. `out` is
/// caller-owned; its capacity is reused across calls.
void EvalExprBatch(const Expr& e, const PacketBatch& batch,
                   const std::uint32_t* sel, std::size_t n,
                   BatchEvalScratch* scratch, ValueColumn* out);

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_EXPR_H_
