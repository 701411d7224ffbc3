#ifndef FWDECAY_DSMS_PARSER_H_
#define FWDECAY_DSMS_PARSER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dsms/expr.h"

// GSQL-subset parser. The supported grammar covers the queries in the
// paper's Sections IV and VIII, e.g.:
//
//   select tb, destIP, destPort,
//          sum(len * (time % 60) * (time % 60)) / 3600
//   from TCP
//   group by time/60 as tb, destIP, destPort
//
//   select tb, PRISAMP(srcIP, exp(time % 60)) from TCP group by time/60 as tb
//
// Grammar (case-insensitive keywords):
//   query     := SELECT selitem (',' selitem)* FROM ident
//                [WHERE expr] [GROUP BY selitem (',' selitem)*]
//                [HAVING expr] [ORDER BY expr [ASC|DESC] (',' ...)*]
//                [LIMIT number]
//   selitem   := expr [AS ident]
//   expr      := or-expr with the usual precedence:
//                or < and < comparisons < +,- < *,/,% < unary- < primary
//   primary   := number | 'string' | ident | ident '(' [expr,*|*] ')' |
//                '(' expr ')'
//
// The grammar is untyped: names, arities and string literals are
// checked by CompiledQuery::Compile's type pass (DESIGN.md §13.2).

namespace fwdecay::dsms {

/// Upper bound on accepted GSQL text. ParseQuery rejects longer input
/// before the lexer allocates anything, and the server's frame decoder
/// enforces the same bound at the wire (mirroring the FWDTRC02
/// hostile-count discipline: validate declared sizes before paying for
/// them). Every query in the paper is under 200 bytes; 16 KiB leaves
/// room for generated queries while keeping a hostile registration from
/// turning the parser into an allocation amplifier.
inline constexpr std::size_t kMaxGsqlBytes = 16 * 1024;

/// One select-list or group-by entry: an expression plus optional alias.
struct SelectItem {
  std::unique_ptr<Expr> expr;
  std::string alias;  // empty when not aliased
};

/// One ORDER BY entry: an expression (resolved against the output
/// columns by the planner) plus direction.
struct OrderItem {
  std::unique_ptr<Expr> expr;
  bool descending = false;
};

/// Parsed query (unvalidated; the engine's planner binds and checks it).
struct Query {
  std::vector<SelectItem> select;
  std::string from;  // stream name, e.g. "TCP", "UDP", "PKT"
  std::unique_ptr<Expr> where;  // null when absent
  std::vector<SelectItem> group_by;
  std::unique_ptr<Expr> having;  // null when absent
  std::vector<OrderItem> order_by;
  std::optional<std::int64_t> limit;
};

/// Outcome of parsing: either a query or a diagnostic (no exceptions).
struct ParseResult {
  std::optional<Query> query;
  std::string error;  // empty on success

  bool ok() const { return query.has_value(); }
};

/// Parses GSQL text. Returns a diagnostic with position info on failure.
ParseResult ParseQuery(const std::string& text);

/// Outcome of parsing a standalone expression.
struct ExprParseResult {
  std::unique_ptr<Expr> expr;
  std::string error;  // empty on success

  bool ok() const { return expr != nullptr; }
};

/// Parses a standalone expression (used by tests and ad-hoc predicates).
ExprParseResult ParseExpressionOnly(const std::string& text);

}  // namespace fwdecay::dsms

#endif  // FWDECAY_DSMS_PARSER_H_
