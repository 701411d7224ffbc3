// Differential tests for the typed batched evaluator (DESIGN.md §13.2):
// literal broadcast, scalar calls over typed columns and integer
// division by a constant must reproduce per-row EvalExpr bit for bit —
// same Value type per row, doubles compared by bit pattern — and keep
// the per-row CHECKs (division by zero, strings used as numbers).

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
#include "dsms/expr.h"
#include "dsms/packet.h"
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

// Packets whose time column spans signs, bucket edges and fractions;
// the other columns vary so int arguments differ per row.
std::vector<Packet> Trace() {
  const double times[] = {0.0,   1.0,    -1.0,    59.0,  60.0,  61.0,
                          -59.0, -60.0,  -61.0,   0.5,   -0.5,  119.99,
                          1e12,  -1e12,  0x1p52,  -0x1p52};
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
    } else if (want.is_double()) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.AsDouble()),
                std::bit_cast<std::uint64_t>(want.AsDouble()))
          << e.ToString() << " row " << i << ": " << got.ToString()
          << " vs " << want.ToString();
    } else {
      EXPECT_EQ(got.AsString(), want.AsString()) << e.ToString();
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
  EXPECT_EQ(ExpectBatchMatchesPerRow(*Expr::Literal(Value("tcp")), trace),
            ValueColumn::Rep::kBoxed);
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
    const std::int64_t want = y >= 0x1p63    ? kMax
                              : y < -0x1p63 ? kMin
                                            : static_cast<std::int64_t>(y);
    EXPECT_EQ(EvalExpr(*scaled, p).AsInt(), want) << p.time;
  }
}

TEST(TypedEvalTest, ZeroRowBatchesKeepTheEmptyColumnRep) {
  std::vector<std::unique_ptr<Expr>> exprs;
  exprs.push_back(Lit(std::int64_t{60}));
  exprs.push_back(Lit(0.05));
  exprs.push_back(Expr::Literal(Value("x")));
  exprs.push_back(Call("exp", Col("dtime")));
  exprs.push_back(Call("expweight", Col("time"), Lit(std::int64_t{60}),
                       Lit(0.1)));
  exprs.push_back(Call("exp", Expr::Literal(Value("x"))));
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
      kMin + 1, 1, -1, (std::int64_t{1} << 40) + 3, std::int64_t{1} << 62};
  for (int k = 0; k < 500; ++k) {
    // Random magnitudes across every bit length, both signs.
    const auto d =
        static_cast<std::int64_t>(rng.Next64() >> (rng.Next64() % 64));
    if (d != 0) divisors.push_back(rng.Next64() % 2 == 0 ? d : -d);
  }
  for (const std::int64_t d : divisors) {
    const ConstDivisorI64 div(d);
    const auto check = [&](std::int64_t n) {
      if (n == kMin && d == -1) return;  // overflows natively too
      ASSERT_EQ(div.Div(n), n / d) << n << " / " << d;
      ASSERT_EQ(div.Mod(n), n % d) << n << " % " << d;
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

TEST(TypedEvalDeathTest, DivisionByZeroLiteralStillChecks) {
  const auto trace = Trace();
  for (const BinOp op : {BinOp::kDiv, BinOp::kMod}) {
    const auto e = Expr::Binary(op, Col("time"), Lit(std::int64_t{0}));
    EXPECT_DEATH(ExpectBatchMatchesPerRow(*e, trace), "by zero");
    EXPECT_DEATH((void)EvalExpr(*e, trace[0]), "by zero");
  }
  EXPECT_DEATH((void)ConstDivisorI64(0), "by zero");
}

TEST(TypedEvalDeathTest, BoxedScalarArgumentsKeepTheirChecks) {
  // A string argument boxes the column; the per-row path CHECK-fails
  // exactly as per-tuple evaluation does.
  const auto trace = Trace();
  const auto e = Call("exp", Expr::Literal(Value("x")));
  EXPECT_DEATH(ExpectBatchMatchesPerRow(*e, trace), "string value used as");
  EXPECT_DEATH((void)EvalExpr(*e, trace[0]), "string value used as");
  const auto missing = Call("pow", Col("len"));
  EXPECT_DEATH(ExpectBatchMatchesPerRow(*missing, trace),
               "missing scalar function argument");
}

}  // namespace
}  // namespace fwdecay::dsms
