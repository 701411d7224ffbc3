// Differential tests for the typed batched evaluator (DESIGN.md §13.2):
// literal broadcast, scalar calls over typed columns and integer
// division by a constant must reproduce per-row EvalExpr bit for bit —
// same Value type per row, doubles compared by bit pattern. Integer
// arithmetic is total (util/int_div.h), every double -> int64
// conversion saturates, and what the typed evaluator cannot run (a
// string, an unknown name, a short call) is a compile error.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/batch.h"
#include "dsms/column.h"
#include "dsms/engine.h"
#include "dsms/expr.h"
#include "dsms/packet.h"
#include "dsms/udafs.h"
#include "dsms/value.h"
#include "util/int_div.h"
#include "util/random.h"

namespace fwdecay::dsms {
namespace {

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

std::unique_ptr<Expr> Lit(std::int64_t v) { return Expr::Literal(Value(v)); }
std::unique_ptr<Expr> Lit(double v) { return Expr::Literal(Value(v)); }
std::unique_ptr<Expr> Col(const char* name) { return Expr::Column(name); }

std::unique_ptr<Expr> Call(const char* fn, std::unique_ptr<Expr> a,
                           std::unique_ptr<Expr> b = nullptr,
                           std::unique_ptr<Expr> c = nullptr) {
  std::vector<std::unique_ptr<Expr>> args;
  for (auto* arg : {&a, &b, &c}) {
    if (*arg != nullptr) args.push_back(std::move(*arg));
  }
  return Expr::Call(fn, std::move(args));
}

// Packets whose time column spans signs, bucket edges and fractions,
// and times with no int64 image (NaN, infinities, 1e300: a client
// packet may carry any double); the other columns vary so int arguments
// differ per row.
std::vector<Packet> Trace() {
  const double times[] = {0.0,   1.0,    -1.0,    59.0,  60.0,  61.0,
                          -59.0, -60.0,  -61.0,   0.5,   -0.5,  119.99,
                          1e12,  -1e12,  0x1p52,  -0x1p52,
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          1e300, -1e300, 0x1p63};
  std::vector<Packet> trace;
  std::uint32_t k = 0;
  for (const double t : times) {
    Packet p;
    p.time = t;
    p.src_ip = 0x0a000000u + k * 977u;
    p.dest_ip = 0xc0a80000u + k;
    p.src_port = static_cast<std::uint16_t>(1024 + 37 * k);
    p.dest_port = static_cast<std::uint16_t>(k % 3 == 0 ? 80 : 443);
    p.len = 40 + 61 * k;
    trace.push_back(p);
    ++k;
  }
  return trace;
}

// Evaluates `e` over every packet of `trace` in one batch and compares
// each row with per-row EvalExpr. Returns the column's representation.
ValueColumn::Rep ExpectBatchMatchesPerRow(const Expr& e,
                                          const std::vector<Packet>& trace) {
  PacketBatch batch(trace.size());
  for (const Packet& p : trace) batch.Append(p);
  std::vector<std::uint32_t> sel(trace.size());
  for (std::size_t i = 0; i < sel.size(); ++i) {
    sel[i] = static_cast<std::uint32_t>(i);
  }
  BatchEvalScratch scratch;
  ValueColumn out;
  EvalExprBatch(e, batch, sel.data(), sel.size(), &scratch, &out);
  EXPECT_EQ(out.size(), trace.size()) << e.ToString();
  for (std::size_t i = 0; i < trace.size() && i < out.size(); ++i) {
    const Value want = EvalExpr(e, trace[i]);
    const Value got = out[i];
    if (got.is_int() != want.is_int() ||
        got.is_double() != want.is_double()) {
      ADD_FAILURE() << e.ToString() << " row " << i << ": type differs ("
                    << got.ToString() << " vs " << want.ToString() << ")";
    } else if (want.is_int()) {
      EXPECT_EQ(got.AsInt(), want.AsInt()) << e.ToString() << " row " << i;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.AsDouble()),
                std::bit_cast<std::uint64_t>(want.AsDouble()))
          << e.ToString() << " row " << i << ": " << got.ToString()
          << " vs " << want.ToString();
    }
  }
  return out.rep();
}

// Evaluates `e` over an empty selection.
ValueColumn EvalZeroRows(const Expr& e) {
  PacketBatch batch(4);
  batch.Append(Packet{});
  BatchEvalScratch scratch;
  ValueColumn out;
  EvalExprBatch(e, batch, nullptr, 0, &scratch, &out);
  return out;
}

TEST(TypedEvalTest, LiteralsBroadcastWithTheirType) {
  const auto trace = Trace();
  EXPECT_EQ(ExpectBatchMatchesPerRow(*Lit(std::int64_t{60}), trace),
            ValueColumn::Rep::kI64);
  EXPECT_EQ(ExpectBatchMatchesPerRow(*Lit(kMin), trace),
            ValueColumn::Rep::kI64);
  EXPECT_EQ(ExpectBatchMatchesPerRow(*Lit(0.05), trace),
            ValueColumn::Rep::kF64);
  EXPECT_EQ(ExpectBatchMatchesPerRow(*Lit(-0.0), trace),
            ValueColumn::Rep::kF64);
  // Literals inside arithmetic take the typed kernels.
  EXPECT_EQ(ExpectBatchMatchesPerRow(
                *Expr::Binary(BinOp::kMul, Lit(10.0), Col("len")), trace),
            ValueColumn::Rep::kF64);
}

TEST(TypedEvalTest, DivisionAndModuloByIntLiteralMatchNative) {
  const std::int64_t divisors[] = {
      2, 60, 61, -7, 1, -1, (std::int64_t{1} << 40) + 3, kMax};
  const std::int64_t numerators[] = {0,   1,   -1,  59,   60,  61,
                                     -59, -60, -61, kMax, kMin + 1};
  const auto trace = Trace();
  for (const std::int64_t d : divisors) {
    for (const BinOp op : {BinOp::kDiv, BinOp::kMod}) {
      // A column numerator: time, len and a negated port.
      for (const char* col : {"time", "len"}) {
        EXPECT_EQ(ExpectBatchMatchesPerRow(
                      *Expr::Binary(op, Col(col), Lit(d)), trace),
                  ValueColumn::Rep::kI64);
      }
      EXPECT_EQ(ExpectBatchMatchesPerRow(
                    *Expr::Binary(op, Expr::Neg(Col("srcport")), Lit(d)),
                    trace),
                ValueColumn::Rep::kI64);
      // Literal numerators reach the int64 edges.
      for (const std::int64_t num : numerators) {
        EXPECT_EQ(ExpectBatchMatchesPerRow(
                      *Expr::Binary(op, Lit(num), Lit(d)), trace),
                  ValueColumn::Rep::kI64);
      }
    }
  }
  // A double on either side keeps double division / fmod.
  EXPECT_EQ(ExpectBatchMatchesPerRow(
                *Expr::Binary(BinOp::kMod, Col("dtime"), Lit(std::int64_t{60})),
                trace),
            ValueColumn::Rep::kF64);
  EXPECT_EQ(ExpectBatchMatchesPerRow(
                *Expr::Binary(BinOp::kDiv, Col("time"), Lit(60.0)), trace),
            ValueColumn::Rep::kF64);
}

TEST(TypedEvalTest, ScalarFunctionsOverTypedArguments) {
  const auto trace = Trace();
  // One-argument functions over kI64 (len, time) and kF64 (dtime).
  for (const char* fn : {"exp", "ln", "sqrt", "abs", "floor"}) {
    const ValueColumn::Rep want = std::string(fn) == "floor"
                                      ? ValueColumn::Rep::kI64
                                      : ValueColumn::Rep::kF64;
    for (const char* col : {"len", "time", "dtime"}) {
      EXPECT_EQ(ExpectBatchMatchesPerRow(*Call(fn, Col(col)), trace), want)
          << fn << "(" << col << ")";
    }
  }
  // exp over the fig-2 landmark offset, and a mixed int/double pow.
  ExpectBatchMatchesPerRow(
      *Call("exp", Expr::Binary(BinOp::kMod, Col("time"),
                                Lit(std::int64_t{60}))),
      trace);
  ExpectBatchMatchesPerRow(*Call("pow", Col("len"), Lit(0.5)), trace);
  ExpectBatchMatchesPerRow(*Call("pow", Col("dtime"), Lit(std::int64_t{2})),
                           trace);
  for (const char* fn : {"polyweight", "expweight"}) {
    ExpectBatchMatchesPerRow(
        *Call(fn, Col("time"), Lit(std::int64_t{60}), Lit(0.1)), trace);
    ExpectBatchMatchesPerRow(
        *Call(fn, Col("dtime"), Lit(60.0), Lit(std::int64_t{2})), trace);
  }
  // Nested calls, and extra arguments beyond a function's arity.
  ExpectBatchMatchesPerRow(*Call("floor", Call("sqrt", Col("len"))), trace);
  ExpectBatchMatchesPerRow(*Call("exp", Lit(1.0), Col("len")), trace);
}

// floor() of a value with no int64 image saturates, identically per
// tuple and batched: NaN -> 0, -inf and anything below -2^63 ->
// INT64_MIN, +inf and anything at or above 2^63 -> INT64_MAX.
TEST(TypedEvalTest, FloorSaturatesNaNInfinitiesAndOutOfRange) {
  const auto trace = Trace();
  const auto sub = [](std::unique_ptr<Expr> a, std::unique_ptr<Expr> b) {
    return Expr::Binary(BinOp::kSub, std::move(a), std::move(b));
  };
  const auto ln_zero = [&] { return Call("ln", sub(Col("len"), Col("len"))); };
  const auto two63 = [] { return Call("pow", Lit(2.0), Lit(63.0)); };
  struct Case {
    std::unique_ptr<Expr> e;
    std::int64_t want;  // every row
  };
  std::vector<Case> cases;
  cases.push_back({Call("floor", ln_zero()), kMin});                  // -inf
  cases.push_back({Call("floor", sub(Lit(0.0), ln_zero())), kMax});   // +inf
  cases.push_back({Call("floor", Call("sqrt", sub(Lit(0.0), Col("len")))),
                   0});                                               // NaN
  cases.push_back({Call("floor", two63()), kMax});                    // 2^63
  cases.push_back({Call("floor", sub(Lit(0.0), two63())), kMin});     // -2^63
  cases.push_back({Call("floor", sub(two63(), Lit(1024.0))),
                   kMax - 1023});  // largest double below 2^63
  cases.push_back({Call("floor", sub(sub(Lit(0.0), two63()), Lit(4096.0))),
                   kMin});  // first double below -2^63
  for (const Case& c : cases) {
    EXPECT_EQ(ExpectBatchMatchesPerRow(*c.e, trace), ValueColumn::Rep::kI64)
        << c.e->ToString();
    for (const Packet& p : trace) {
      EXPECT_EQ(EvalExpr(*c.e, p).AsInt(), c.want) << c.e->ToString();
    }
  }
  // Per-row out-of-range magnitudes (dtime spans +-1e12): 1e19 rows
  // saturate, the rest convert exactly.
  const auto scaled = Call(
      "floor", Expr::Binary(BinOp::kMul, Col("dtime"), Lit(1e7)));
  ExpectBatchMatchesPerRow(*scaled, trace);
  for (const Packet& p : trace) {
    const double y = std::floor(p.time * 1e7);
    const std::int64_t want = std::isnan(y)   ? 0
                              : y >= 0x1p63  ? kMax
                              : y < -0x1p63 ? kMin
                                            : static_cast<std::int64_t>(y);
    EXPECT_EQ(EvalExpr(*scaled, p).AsInt(), want) << p.time;
  }
}

TEST(TypedEvalTest, ZeroRowBatchesKeepTheEmptyColumnRep) {
  std::vector<std::unique_ptr<Expr>> exprs;
  exprs.push_back(Lit(std::int64_t{60}));
  exprs.push_back(Lit(0.05));
  exprs.push_back(Call("exp", Col("dtime")));
  exprs.push_back(Call("expweight", Col("time"), Lit(std::int64_t{60}),
                       Lit(0.1)));
  exprs.push_back(
      Expr::Binary(BinOp::kDiv, Col("time"), Lit(std::int64_t{60})));
  exprs.push_back(
      Expr::Binary(BinOp::kMod, Col("len"), Lit(std::int64_t{0})));
  for (const auto& e : exprs) {
    const ValueColumn out = EvalZeroRows(*e);
    EXPECT_EQ(out.size(), 0u) << e->ToString();
    EXPECT_EQ(out.rep(), ValueColumn::Rep::kI64) << e->ToString();
  }
}

TEST(TypedEvalTest, ConstDivisorMatchesNativeDivision) {
  Rng rng(0x5eed17);
  std::vector<std::int64_t> divisors = {
      2,        3, 7,  60, 61, -2, -7, -60, kMax, kMin,
      kMin + 1, 1, -1, 0, (std::int64_t{1} << 40) + 3, std::int64_t{1} << 62};
  for (int k = 0; k < 500; ++k) {
    // Random magnitudes across every bit length, both signs.
    const auto d =
        static_cast<std::int64_t>(rng.Next64() >> (rng.Next64() % 64));
    if (d != 0) divisors.push_back(rng.Next64() % 2 == 0 ? d : -d);
  }
  for (const std::int64_t d : divisors) {
    const ConstDivisorI64 div(d);
    const auto check = [&](std::int64_t n) {
      ASSERT_EQ(div.Div(n), DivI64(n, d)) << n << " / " << d;
      ASSERT_EQ(div.Mod(n), ModI64(n, d)) << n << " % " << d;
      // The total operators are the native ones wherever those are
      // defined, and keep (n / d) * d + n % d == n everywhere.
      if (d != 0 && !(n == kMin && d == -1)) {
        ASSERT_EQ(DivI64(n, d), n / d) << n << " / " << d;
        ASSERT_EQ(ModI64(n, d), n % d) << n << " % " << d;
      }
      ASSERT_EQ(WrapAdd(WrapMul(DivI64(n, d), d), ModI64(n, d)), n);
    };
    for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1},
                                 std::int64_t{-1}, kMax, kMin, kMin + 1}) {
      check(n);
    }
    // Around multiples of d, where truncation changes.
    for (std::int64_t m = -2; m <= 2; ++m) {
      const __int128 base = static_cast<__int128>(d) * m;
      for (int e = -1; e <= 1; ++e) {
        const __int128 n = base + e;
        if (n >= kMin && n <= kMax) check(static_cast<std::int64_t>(n));
      }
    }
    for (int k = 0; k < 200; ++k) {
      check(static_cast<std::int64_t>(rng.Next64() >> (rng.Next64() % 64)) *
            (k % 2 == 0 ? 1 : -1));
    }
  }
}

// Integer arithmetic is total and identical per tuple and batched:
// x / 0 == 0, x % 0 == x, INT64_MIN / -1 == INT64_MIN, INT64_MIN % -1
// == 0, and + - * and negation wrap. Divisors are literals (the
// ConstDivisorI64 path) and columns (the per-row loop).
TEST(TypedEvalTest, IntegerArithmeticIsTotal) {
  const auto trace = Trace();
  const auto bin = [](BinOp op, std::unique_ptr<Expr> a,
                      std::unique_ptr<Expr> b) {
    return Expr::Binary(op, std::move(a), std::move(b));
  };
  const auto zero_col = [&] { return bin(BinOp::kSub, Col("len"), Col("len")); };
  const auto min_col = [&] {  // INT64_MIN in every row
    return bin(BinOp::kSub, bin(BinOp::kMul, zero_col(), Col("len")),
               bin(BinOp::kAdd, Lit(kMax), Lit(std::int64_t{1})));
  };
  const auto neg_one_col = [&] {
    return bin(BinOp::kSub, zero_col(), Lit(std::int64_t{1}));
  };
  for (const Packet& p : trace) {
    const std::int64_t len = p.len;
    struct Case {
      std::unique_ptr<Expr> e;
      std::int64_t want;
    };
    std::vector<Case> cases;
    cases.push_back({bin(BinOp::kDiv, Col("len"), Lit(std::int64_t{0})), 0});
    cases.push_back({bin(BinOp::kMod, Col("len"), Lit(std::int64_t{0})), len});
    cases.push_back({bin(BinOp::kDiv, Col("len"), zero_col()), 0});
    cases.push_back({bin(BinOp::kMod, Col("len"), zero_col()), len});
    cases.push_back({bin(BinOp::kDiv, min_col(), Lit(std::int64_t{-1})), kMin});
    cases.push_back({bin(BinOp::kMod, min_col(), Lit(std::int64_t{-1})), 0});
    cases.push_back({bin(BinOp::kDiv, min_col(), neg_one_col()), kMin});
    cases.push_back({bin(BinOp::kMod, min_col(), neg_one_col()), 0});
    cases.push_back({bin(BinOp::kAdd, Lit(kMax), Col("len")),
                     kMin + len - 1});
    cases.push_back({Expr::Neg(min_col()), kMin});
    cases.push_back({bin(BinOp::kMul, min_col(), neg_one_col()), kMin});
    for (const Case& c : cases) {
      EXPECT_EQ(EvalExpr(*c.e, p).AsInt(), c.want) << c.e->ToString();
    }
  }
  for (const auto& e :
       {bin(BinOp::kDiv, Col("time"), Lit(std::int64_t{0})),
        bin(BinOp::kMod, Col("time"), Lit(std::int64_t{0})),
        bin(BinOp::kDiv, Col("srcport"), zero_col()),
        bin(BinOp::kMod, Col("time"), zero_col()),
        bin(BinOp::kDiv, min_col(), neg_one_col()),
        bin(BinOp::kMod, min_col(), neg_one_col()),
        bin(BinOp::kDiv, Col("time"), Lit(std::int64_t{-1})),
        bin(BinOp::kAdd, Lit(kMax), Col("len")),
        bin(BinOp::kSub, min_col(), Col("len")),
        bin(BinOp::kMul, Col("time"), Col("time")),
        Expr::Neg(Col("time"))}) {
    EXPECT_EQ(ExpectBatchMatchesPerRow(*e, trace), ValueColumn::Rep::kI64)
        << e->ToString();
  }
}

// Every double -> int64 conversion truncates and saturates: the time
// column, Value::AsInt and a typed column row's AsInt (which feeds the
// FDHH, FDQUANTILE, FDDISTINCT and EHDSUM keys).
TEST(TypedEvalTest, DoubleToIntConversionsSaturate) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, std::int64_t> cases[] = {
      {nan, 0},        {inf, kMax},  {-inf, kMin}, {1e300, kMax},
      {-1e300, kMin},  {0x1p63, kMax}, {-0x1p63, kMin}, {-2.5, -2},
      {0x1p62, std::int64_t{1} << 62}};
  for (const auto& [x, want] : cases) {
    EXPECT_EQ(Value(x).AsInt(), want) << x;
    ValueColumn col;
    col.push_back(Value(x));
    EXPECT_EQ(col[0].AsInt(), want) << x;
    Packet p;
    p.time = x;
    EXPECT_EQ(ReadColumn(ColumnId::kTime, p).AsInt(), want) << x;
  }
  // The key an FDHH over an out-of-range double reports is the
  // saturated one.
  RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select FDHH(dtime * 1e300, 1) from TCP", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  Packet p;
  p.time = 5.0;
  p.protocol = kProtoTcp;
  exec->Consume(p);
  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsString().rfind("9223372036854775807:", 0), 0u)
      << rs.rows[0][0].AsString();
}

// What the typed evaluator cannot run does not compile, and the error
// names the offending column, function, aggregate or literal.
TEST(TypedEvalTest, CompileRejectsWhatTheTypedEvaluatorCannotRun) {
  RegisterPaperUdafs();
  const std::pair<const char*, const char*> rejected[] = {
      {"select foo, count(*) from TCP group by foo", "'foo'"},
      {"select count(*) from TCP where count(*) > 1", "'count'"},
      {"select log(len), count(*) from TCP group by log(len)", "'log'"},
      {"select sum(pow(len)) from TCP", "'pow'"},
      {"select sum(sum(len)) from TCP", "'sum'"},
      {"select sum('x') from TCP", "'x'"},
      {"select count(*) from TCP where -'a'", "'a'"},
      {"select destPort, max(len) from TCP group by destPort "
       "having max(len) > 'x'",
       "'x'"},
      {"select tb, PRISAMP(srcIP, 1, 8) + 1 from TCP group by time/60 as tb",
       "PRISAMP"},
      {"select destPort, foo(destPort) from TCP group by destPort", "'foo'"},
      {"select sum(exp('x')) from TCP", "'x'"},
      {"select * from TCP", "'*'"},
      {"select tb, count(*) from TCP group by time/60 as tb "
       "having FDHH(destIP, 1) = 0",
       "FDHH"},
  };
  for (const auto& [gsql, name] : rejected) {
    std::string error;
    EXPECT_EQ(CompiledQuery::Compile(gsql, &error), nullptr) << gsql;
    EXPECT_NE(error.find(name), std::string::npos) << gsql << ": " << error;
  }
  CompiledQuery::Options two_level;
  two_level.two_level = true;
  for (const char* gsql :
       {"select srcIP, UNARYHH(destIP, 0.05) from TCP group by srcIP",
        "select srcIP, SWHH(dtime, destIP) from TCP group by srcIP",
        "select srcIP, EHDSUM(dtime, len) from TCP group by srcIP"}) {
    std::string error;
    EXPECT_EQ(CompiledQuery::Compile(gsql, &error, two_level), nullptr)
        << gsql;
    EXPECT_NE(error.find("two-level"), std::string::npos) << error;
    // One-level, the same query compiles.
    EXPECT_NE(CompiledQuery::Compile(gsql, &error), nullptr) << error;
  }
}

// A query of the total operators compiles, runs and gives its defined
// values, the same from the per-tuple entry point and batched, one- and
// two-level.
TEST(TypedEvalTest, TotalArithmeticQueriesRunPerTupleAndBatched) {
  const char* gsql =
      "select destPort, sum(len / 0), sum(len % 0), sum(len), "
      "min((0 - 9223372036854775807 - 1) / -1), "
      "max((0 - 9223372036854775807 - 1) % -1), "
      "min(9223372036854775807 + len), min(len), "
      "sum(len) / min(len - len) "
      "from TCP group by destPort having sum(len) / min(len - len) >= 0";
  const auto trace = Trace();
  for (const bool two : {false, true}) {
    CompiledQuery::Options options;
    options.two_level = two;
    options.low_level_slots = 2;
    std::string error;
    auto plan = CompiledQuery::Compile(gsql, &error, options);
    ASSERT_NE(plan, nullptr) << error;
    auto per_tuple = plan->NewExecution();
    for (const Packet& p : trace) per_tuple->Consume(p);
    PacketBatch batch(trace.size());
    for (const Packet& p : trace) batch.Append(p);
    auto batched = plan->NewExecution();
    batched->Consume(batch);
    const ResultSet want = per_tuple->Finish();
    const ResultSet got = batched->Finish();
    ASSERT_EQ(got.ToString(), want.ToString());
    ASSERT_EQ(want.rows.size(), 2u);  // destPort 80 and 443
    for (const auto& row : want.rows) {
      EXPECT_EQ(row[1].AsInt(), 0);                   // sum(len / 0)
      EXPECT_EQ(row[2].AsInt(), row[3].AsInt());      // sum(len % 0)
      EXPECT_EQ(row[4].AsInt(), kMin);                // INT64_MIN / -1
      EXPECT_EQ(row[5].AsInt(), 0);                   // INT64_MIN % -1
      EXPECT_EQ(row[6].AsInt(), kMin + row[7].AsInt() - 1);  // wraps
      EXPECT_EQ(row[8].AsInt(), 0);                   // x / 0 after agg
    }
  }
}

}  // namespace
}  // namespace fwdecay::dsms
