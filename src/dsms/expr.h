#ifndef FWDECAY_DSMS_EXPR_H_
#define FWDECAY_DSMS_EXPR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// Expression AST node. The same node type covers scalar expressions,
/// predicates (comparisons yield int 0/1), and function/aggregate calls;
/// the planner decides which calls are aggregates.
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

/// True if the packet schema has a column of this name.
bool IsKnownColumn(const std::string& name);

/// Reads a schema column from a packet. Columns (all integer-valued
/// except dtime): time (whole seconds), dtime (fractional seconds),
/// srcIP, destIP, srcPort, destPort, len, protocol.
Value ReadColumn(const std::string& name, const Packet& p);

/// Evaluates a scalar expression (no aggregate calls) against a packet.
/// Scalar functions available: exp, ln, sqrt, abs, floor, pow. floor
/// returns an int and saturates where its double has no int64 image:
/// NaN -> 0, below -2^63 -> INT64_MIN, at or above 2^63 -> INT64_MAX.
Value EvalExpr(const Expr& e, const Packet& p);

/// Evaluates a predicate: nonzero numeric result = true.
bool EvalPredicate(const Expr& e, const Packet& p);

/// Evaluates a post-aggregation expression: kAggRef nodes read from
/// `agg_values`, kGroupRef nodes from `group_key`; raw column references
/// are not allowed (the planner replaced every bindable one). Supports
/// the full operator set including comparisons and logic, so it also
/// evaluates HAVING predicates.
Value EvalPostExpr(const Expr& e, const std::vector<Value>& agg_values,
                   const std::vector<Value>& group_key);

/// Truthiness of a post-aggregation predicate (HAVING).
bool EvalPostPredicate(const Expr& e, const std::vector<Value>& agg_values,
                       const std::vector<Value>& group_key);

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

  /// Borrows an empty column-pointer list (kCall argument columns;
  /// calls nest, so these pool like the columns themselves).
  std::vector<ValueColumn*>* AcquireColumnList() {
    if (free_column_lists_.empty()) {
      owned_column_lists_.push_back(
          std::make_unique<std::vector<ValueColumn*>>());
      return owned_column_lists_.back().get();
    }
    std::vector<ValueColumn*>* list = free_column_lists_.back();
    free_column_lists_.pop_back();
    return list;
  }
  void ReleaseColumnList(std::vector<ValueColumn*>* list) {
    list->clear();
    free_column_lists_.push_back(list);
  }

  /// Row-gather buffer for applying scalar functions over evaluated
  /// argument columns. Never nested: a kCall node's argument columns are
  /// fully evaluated (including inner calls) before its gather loop
  /// runs, so one buffer per scratch suffices.
  std::vector<Value>* RowArgsBuf() { return &row_args_; }

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
  std::vector<std::unique_ptr<std::vector<ValueColumn*>>>
      owned_column_lists_;
  std::vector<std::vector<ValueColumn*>*> free_column_lists_;
  std::vector<Value> row_args_;
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
/// Column and scalar-function names are resolved once per call, not once
/// per row; columns over int64/double rows stay in typed storage and run
/// through the util/simd.h kernels, bit-exact with the per-tuple
/// evaluator. `out` is caller-owned; its capacity is reused across calls.
void EvalExprBatch(const Expr& e, const PacketBatch& batch,
                   const std::uint32_t* sel, std::size_t n,
                   BatchEvalScratch* scratch, ValueColumn* out);

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_EXPR_H_
