// Tests for the mini-DSMS substrate: Value semantics, expression
// evaluation, the GSQL parser, the trace generator, and the query engine
// (including the two-level aggregation split and the paper's queries).

#include <cmath>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "dsms/engine.h"
#include "dsms/expr.h"
#include "dsms/netgen.h"
#include "dsms/packet.h"
#include "dsms/parser.h"
#include "dsms/udafs.h"
#include "dsms/value.h"

namespace fwdecay::dsms {
namespace {

Packet MakePacket(double time, std::uint32_t dest_ip, std::uint16_t dest_port,
                  std::uint32_t len, std::uint8_t proto = kProtoTcp) {
  Packet p;
  p.time = time;
  p.dest_ip = dest_ip;
  p.dest_port = dest_port;
  p.len = len;
  p.protocol = proto;
  return p;
}

// --- Value ------------------------------------------------------------------

TEST(ValueTest, IntegerArithmeticStaysIntegral) {
  const Value a(std::int64_t{125});
  const Value b(std::int64_t{60});
  EXPECT_TRUE((a / b).is_int());
  EXPECT_EQ((a / b).AsInt(), 2);  // time-bucket truncation
  EXPECT_EQ((a % b).AsInt(), 5);
  EXPECT_EQ((a + b).AsInt(), 185);
  EXPECT_EQ((a * b).AsInt(), 7500);
}

TEST(ValueTest, MixedArithmeticPromotesToDouble) {
  const Value a(std::int64_t{3});
  const Value b(2.5);
  EXPECT_TRUE((a + b).is_double());
  EXPECT_DOUBLE_EQ((a + b).AsDouble(), 5.5);
  EXPECT_DOUBLE_EQ((a % b).AsDouble(), 0.5);
}

TEST(ValueTest, CompareAcrossNumericTypes) {
  EXPECT_LT(Compare(Value(std::int64_t{2}), Value(3.0)), 0);
  EXPECT_EQ(Compare(Value(std::int64_t{2}), Value(2.0)), 0);
  EXPECT_GT(Compare(Value(std::string("b")), Value(std::string("a"))), 0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(std::int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(std::string("x")).ToString(), "x");
}

TEST(ValueTest, HashDistinguishesTypesAndValues) {
  EXPECT_NE(Value(std::int64_t{1}).Hash(), Value(std::int64_t{2}).Hash());
  EXPECT_EQ(Value(std::int64_t{7}).Hash(), Value(std::int64_t{7}).Hash());
}

// --- Expressions ------------------------------------------------------------

TEST(ExprTest, EvaluatesPaperDecayWeightExpression) {
  // The quadratic forward-decay weight of the Section IV query:
  // (time % 60) * (time % 60).
  auto parsed = ParseExpressionOnly("(time % 60) * (time % 60)");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Packet p = MakePacket(125.7, 1, 80, 100);
  // time = 125 (whole seconds), 125 % 60 = 5, weight 25.
  EXPECT_EQ(EvalExpr(*parsed.expr, p).AsInt(), 25);
}

TEST(ExprTest, EvaluatesExponentialWeight) {
  auto parsed = ParseExpressionOnly("exp(time % 60)");
  ASSERT_TRUE(parsed.ok());
  const Packet p = MakePacket(63.2, 1, 80, 100);
  EXPECT_NEAR(EvalExpr(*parsed.expr, p).AsDouble(), std::exp(3.0), 1e-12);
}

TEST(ExprTest, ColumnAccessAndPrecedence) {
  auto parsed = ParseExpressionOnly("len + 2 * 3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(EvalExpr(*parsed.expr, MakePacket(0, 1, 80, 10)).AsInt(), 16);
  parsed = ParseExpressionOnly("(len + 2) * 3");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(EvalExpr(*parsed.expr, MakePacket(0, 1, 80, 10)).AsInt(), 36);
}

TEST(ExprTest, PredicatesAndLogic) {
  auto parsed =
      ParseExpressionOnly("protocol = 6 and (destPort = 80 or destPort = 443)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(EvalPredicate(*parsed.expr, MakePacket(0, 1, 80, 10)));
  EXPECT_FALSE(
      EvalPredicate(*parsed.expr, MakePacket(0, 1, 80, 10, kProtoUdp)));
  EXPECT_FALSE(EvalPredicate(*parsed.expr, MakePacket(0, 1, 8080, 10)));
}

TEST(ExprTest, UnaryMinusAndComparisons) {
  auto parsed = ParseExpressionOnly("-len < -5");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(EvalPredicate(*parsed.expr, MakePacket(0, 1, 80, 10)));
  EXPECT_FALSE(EvalPredicate(*parsed.expr, MakePacket(0, 1, 80, 3)));
}

TEST(ExprTest, ToStringRoundTripsStructure) {
  auto parsed = ParseExpressionOnly("sum(len * (time % 60)) / 3600");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.expr->ToString(),
            "(sum((len * (time % 60))) / 3600)");
}

TEST(ExprTest, CloneProducesEqualTree) {
  auto parsed = ParseExpressionOnly("exp(time % 60) * len");
  ASSERT_TRUE(parsed.ok());
  auto clone = parsed.expr->Clone();
  EXPECT_EQ(parsed.expr->ToString(), clone->ToString());
}

TEST(ExprTest, ScalarFunctions) {
  const Packet p = MakePacket(100.0, 1, 80, 16);
  auto check = [&](const std::string& text, double expected) {
    auto parsed = ParseExpressionOnly(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_NEAR(EvalExpr(*parsed.expr, p).AsDouble(), expected, 1e-9) << text;
  };
  check("sqrt(len)", 4.0);
  check("ln(exp(2))", 2.0);
  check("pow(2, 10)", 1024.0);
  check("abs(0 - 5)", 5.0);
  check("floor(3.7)", 3.0);
}

// --- Parser -----------------------------------------------------------------

TEST(ParserTest, ParsesThePaperCountQuery) {
  const auto result = ParseQuery(
      "select tb, destIP, destPort, count(*) from TCP "
      "group by time/60 as tb, destIP, destPort");
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.query->select.size(), 4u);
  EXPECT_EQ(result.query->from, "TCP");
  EXPECT_EQ(result.query->group_by.size(), 3u);
  EXPECT_EQ(result.query->group_by[0].alias, "tb");
}

TEST(ParserTest, ParsesThePaperDecayedSumQuery) {
  const auto result = ParseQuery(
      "select tb, destIP, destPort, "
      "sum(len*(time % 60)*(time % 60))/3600 from TCP "
      "group by time/60 as tb, destIP, destPort");
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST(ParserTest, ParsesThePaperSamplingQuery) {
  const auto result = ParseQuery(
      "select tb, PRISAMP(srcIP, exp(time % 60)) from TCP "
      "group by time/60 as tb");
  ASSERT_TRUE(result.ok()) << result.error;
}

TEST(ParserTest, WhereClause) {
  const auto result = ParseQuery(
      "select tb, count(*) from PKT where destPort = 80 and len > 100 "
      "group by time/60 as tb");
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_NE(result.query->where, nullptr);
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("select from TCP").ok());
  EXPECT_FALSE(ParseQuery("count(*) from TCP").ok());
  EXPECT_FALSE(ParseQuery("select count(* from TCP").ok());
  EXPECT_FALSE(ParseQuery("select count(*) from TCP group time").ok());
  EXPECT_FALSE(ParseQuery("select count(*) from TCP extra tokens").ok());
  EXPECT_FALSE(ParseQuery("select 1 + from TCP").ok());
}

TEST(ParserTest, ReportsErrorPositions) {
  const auto result = ParseQuery("select # from TCP");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error.find("offset"), std::string::npos);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  EXPECT_TRUE(
      ParseQuery("SELECT tb, COUNT(*) FROM tcp GROUP BY time/60 AS tb").ok());
}

// --- Trace generator ---------------------------------------------------------

TEST(NetgenTest, DeterministicForSeed) {
  TraceConfig cfg;
  cfg.seed = 7;
  PacketGenerator g1(cfg);
  PacketGenerator g2(cfg);
  for (int i = 0; i < 1000; ++i) {
    const Packet a = g1.Next();
    const Packet b = g2.Next();
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.dest_ip, b.dest_ip);
    EXPECT_EQ(a.len, b.len);
  }
}

TEST(NetgenTest, RateControlsTimestampDensity) {
  TraceConfig cfg;
  cfg.rate_pps = 50000.0;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(100000);
  const double span = packets.back().time - packets.front().time;
  EXPECT_NEAR(span, 2.0, 0.2);  // 100k packets at 50k pps ~ 2 seconds
}

TEST(NetgenTest, TimestampsOrderedWithoutJitter) {
  TraceConfig cfg;
  PacketGenerator gen(cfg);
  double prev = -1.0;
  for (int i = 0; i < 10000; ++i) {
    const Packet p = gen.Next();
    EXPECT_GE(p.time, prev);
    prev = p.time;
  }
}

TEST(NetgenTest, JitterProducesOutOfOrderDelivery) {
  TraceConfig cfg;
  cfg.reorder_jitter = 0.01;
  PacketGenerator gen(cfg);
  int inversions = 0;
  double prev = -1.0;
  for (int i = 0; i < 10000; ++i) {
    const Packet p = gen.Next();
    if (p.time < prev) ++inversions;
    prev = p.time;
  }
  EXPECT_GT(inversions, 100);
}

TEST(NetgenTest, ProtocolMixMatchesConfig) {
  TraceConfig cfg;
  cfg.tcp_fraction = 0.7;
  PacketGenerator gen(cfg);
  int tcp = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) tcp += (gen.Next().protocol == kProtoTcp);
  EXPECT_NEAR(static_cast<double>(tcp) / n, 0.7, 0.02);
}

TEST(NetgenTest, DestinationsAreSkewed) {
  TraceConfig cfg;
  cfg.num_servers = 10000;
  cfg.server_skew = 1.1;
  PacketGenerator gen(cfg);
  std::map<std::uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[gen.Next().dest_ip];
  int max_count = 0;
  for (const auto& [ip, c] : counts) max_count = std::max(max_count, c);
  // Zipf 1.1 over 10k servers: the top server gets a large share.
  EXPECT_GT(max_count, n / 50);
  EXPECT_GT(counts.size(), 1000u);
}

TEST(NetgenTest, FlowStructuredTrafficRepeatsFiveTuples) {
  TraceConfig cfg;
  cfg.flow_structured = true;
  cfg.mean_flow_len = 20.0;
  cfg.target_active_flows = 200;
  cfg.seed = 9;
  PacketGenerator gen(cfg);
  std::map<std::tuple<std::uint32_t, std::uint16_t, std::uint32_t,
                      std::uint16_t>,
           int>
      tuples;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const Packet p = gen.Next();
    ++tuples[{p.src_ip, p.src_port, p.dest_ip, p.dest_port}];
  }
  // Distinct 5-tuples ~ n/mean + open pool; far fewer than one per
  // packet (the non-flow generator would give ~n distinct tuples).
  EXPECT_LT(tuples.size(), static_cast<std::size_t>(n / 10));
  EXPECT_GT(tuples.size(), static_cast<std::size_t>(n / 50));
  // Average flow length near the configured mean.
  double total = 0.0;
  for (const auto& [key, c] : tuples) total += c;
  EXPECT_NEAR(total / static_cast<double>(tuples.size()), 20.0, 6.0);
}

TEST(NetgenTest, FlowStructuredKeepsDestinationSkew) {
  TraceConfig cfg;
  cfg.flow_structured = true;
  cfg.num_servers = 5000;
  cfg.server_skew = 1.2;
  cfg.seed = 10;
  PacketGenerator gen(cfg);
  std::map<std::uint32_t, int> per_dest;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++per_dest[gen.Next().dest_ip];
  int max_count = 0;
  for (const auto& [ip, c] : per_dest) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, n / 100);  // head server still dominates
}

// --- Engine -----------------------------------------------------------------

TEST(EngineTest, CountPerGroup) {
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destPort, count(*) from TCP group by destPort", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  exec->Consume(MakePacket(1.0, 1, 80, 100));
  exec->Consume(MakePacket(2.0, 1, 80, 100));
  exec->Consume(MakePacket(3.0, 1, 443, 100));
  exec->Consume(MakePacket(4.0, 1, 80, 100, kProtoUdp));  // filtered out
  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 80);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 2);
  EXPECT_EQ(rs.rows[1][0].AsInt(), 443);
  EXPECT_EQ(rs.rows[1][1].AsInt(), 1);
}

TEST(EngineTest, TimeBucketGrouping) {
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select tb, count(*) from PKT group by time/60 as tb", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (double t : {1.0, 30.0, 59.9, 60.1, 100.0}) {
    exec->Consume(MakePacket(t, 1, 80, 100));
  }
  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 3);  // bucket 0
  EXPECT_EQ(rs.rows[1][1].AsInt(), 2);  // bucket 1
}

TEST(EngineTest, PaperForwardDecayedSumInPureGsql) {
  // The Section IV query: quadratic forward decay expressed entirely in
  // the query language. Validate the decayed sum against a hand
  // computation.
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select tb, destPort, sum(len*(time % 60)*(time % 60))/3600.0 "
      "from TCP group by time/60 as tb, destPort",
      &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  // One bucket (tb=1), one port: packets at offsets 5, 20, 45 within the
  // minute starting at t=60.
  exec->Consume(MakePacket(65.0, 1, 80, 100));
  exec->Consume(MakePacket(80.0, 1, 80, 200));
  exec->Consume(MakePacket(105.0, 1, 80, 50));
  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 1u);
  const double expected =
      (100.0 * 25 + 200.0 * 400 + 50.0 * 2025) / 3600.0;
  EXPECT_NEAR(rs.rows[0][2].AsDouble(), expected, 1e-9);
}

TEST(EngineTest, SumMinMaxAvgBuiltins) {
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destPort, sum(len), min(len), max(len), avg(len) "
      "from TCP group by destPort",
      &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (std::uint32_t len : {10u, 30u, 20u}) {
    exec->Consume(MakePacket(1.0, 1, 80, len));
  }
  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 60);
  EXPECT_EQ(rs.rows[0][2].AsInt(), 10);
  EXPECT_EQ(rs.rows[0][3].AsInt(), 30);
  EXPECT_NEAR(rs.rows[0][4].AsDouble(), 20.0, 1e-12);
}

TEST(EngineTest, WhereClauseFilters) {
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destPort, count(*) from PKT where len >= 100 group by destPort",
      &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  exec->Consume(MakePacket(1.0, 1, 80, 99));
  exec->Consume(MakePacket(1.0, 1, 80, 100));
  exec->Consume(MakePacket(1.0, 1, 80, 101, kProtoUdp));  // PKT: kept
  const ResultSet rs = exec->Finish();
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].AsInt(), 2);
}

TEST(EngineTest, TwoLevelMatchesOneLevel) {
  // Figure 2(a)/(b): both aggregation modes must produce identical
  // results; only the cost profile differs.
  TraceConfig cfg;
  cfg.num_servers = 500;
  PacketGenerator gen(cfg);
  const auto packets = gen.Generate(50000);

  const std::string gsql =
      "select destIP, count(*), sum(len) from TCP group by destIP";
  std::string error;
  auto one_level = CompiledQuery::Compile(gsql, &error);
  ASSERT_NE(one_level, nullptr) << error;
  CompiledQuery::Options two_opts;
  two_opts.two_level = true;
  two_opts.low_level_slots = 256;
  auto two_level = CompiledQuery::Compile(gsql, &error, two_opts);
  ASSERT_NE(two_level, nullptr) << error;

  auto e1 = one_level->NewExecution();
  auto e2 = two_level->NewExecution();
  for (const Packet& p : packets) {
    e1->Consume(p);
    e2->Consume(p);
  }
  const ResultSet r1 = e1->Finish();
  const ResultSet r2 = e2->Finish();
  ASSERT_EQ(r1.rows.size(), r2.rows.size());
  EXPECT_GT(e2->low_level_evictions(), 0u);
  for (std::size_t i = 0; i < r1.rows.size(); ++i) {
    EXPECT_TRUE(r1.rows[i][0] == r2.rows[i][0]);
    EXPECT_TRUE(r1.rows[i][1] == r2.rows[i][1]);
    EXPECT_TRUE(r1.rows[i][2] == r2.rows[i][2]);
  }
}

TEST(EngineTest, CompileErrorsAreDiagnosed) {
  std::string error;
  // Select item that is neither aggregate nor group-by expression.
  EXPECT_EQ(CompiledQuery::Compile(
                "select len, count(*) from TCP group by destPort", &error),
            nullptr);
  EXPECT_FALSE(error.empty());
  // Unknown aggregate treated as scalar call -> error at eval... caught
  // at compile time because no aggregate is present in the item.
  error.clear();
  EXPECT_EQ(CompiledQuery::Compile(
                "select nosuchagg(len) from TCP group by destPort", &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

// Each aggregate's signature is checked when the plan compiles: a call
// with the wrong arity, a non-literal parameter, or a parameter outside
// what its sketch's constructor CHECKs and Deserialize accepts is a
// compile error naming the aggregate, never an abort at the first tuple.
TEST(EngineTest, AggregateSignaturesAreCheckedAtCompile) {
  RegisterPaperUdafs();
  const std::pair<const char*, const char*> rejected[] = {
      {"select FDHH(destIP) from TCP", "FDHH"},
      {"select sum() from TCP", "sum"},
      {"select avg(len, len) from TCP", "avg"},
      {"select count(len, len) from TCP", "count"},
      {"select PRISAMP(srcIP, 1, 0) from TCP", "PRISAMP"},
      {"select PRISAMP(srcIP, 1, 67108864) from TCP", "PRISAMP"},
      {"select PRISAMP(srcIP, 1, len) from TCP", "PRISAMP"},
      {"select FDHH(destIP, 1, 0.05, 0) from TCP", "FDHH"},
      {"select FDHH(destIP, 1, 0.05, 1e-12) from TCP", "FDHH"},
      {"select FDHH(destIP, 1, 'x') from TCP", "FDHH"},
      {"select FDHH(destIP, 1, 0.05, 0.01, 7) from TCP", "FDHH"},
      {"select FDQUANTILE(len, 1) from TCP", "FDQUANTILE"},
      {"select FDQUANTILE(len, 1, 2.0) from TCP", "FDQUANTILE"},
      {"select FDQUANTILE(len, 1, 0.5, 70) from TCP", "FDQUANTILE"},
      {"select FDQUANTILE(len, 1, 0.5, 16, 1) from TCP", "FDQUANTILE"},
      {"select RESSAMP(srcIP, 1000000000000) from TCP", "RESSAMP"},
      {"select SWHH(time, destIP, 0.05, 1) from TCP", "SWHH"},
      {"select FDDISTINCT(destIP, 1, 2) from TCP", "FDDISTINCT"},
      {"select tb, sum(len) from TCP group by time/60 as tb "
       "having UNARYHH(destIP, 0.05, 0) = ''", "UNARYHH"},
  };
  for (const auto& [gsql, name] : rejected) {
    std::string error;
    EXPECT_EQ(CompiledQuery::Compile(gsql, &error), nullptr) << gsql;
    EXPECT_NE(error.find(name), std::string::npos) << gsql << ": " << error;
  }
  // The bounds themselves compile.
  for (const char* gsql : {
           "select count(), count(*) from TCP",
           "select PRISAMP(srcIP, 1, 67108863), WRSAMP(srcIP, 1, 67108864) "
           "from TCP",
           "select FDHH(destIP, 1, 0, 1), FDHH(destIP, 1, 1.0, 0.5) from TCP",
           "select FDQUANTILE(len, 1, 0, 1), FDQUANTILE(len, 1, 1, 62, 0.5) "
           "from TCP",
           "select FDDISTINCT(destIP, 1, 3), EHDSUM(dtime, len, 1) from TCP",
       }) {
    std::string error;
    EXPECT_NE(CompiledQuery::Compile(gsql, &error), nullptr)
        << gsql << ": " << error;
  }
}

TEST(EngineTest, UdafPrisampRunsInsideQuery) {
  RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select tb, PRISAMP(srcIP, exp(time % 60), 8) from TCP "
      "group by time/60 as tb",
      &error);
  ASSERT_NE(plan, nullptr) << error;
  TraceConfig cfg;
  PacketGenerator gen(cfg);
  auto exec = plan->NewExecution();
  for (const Packet& p : gen.Generate(20000)) exec->Consume(p);
  const ResultSet rs = exec->Finish();
  ASSERT_FALSE(rs.rows.empty());
  // The sample column is a non-empty comma-joined list.
  EXPECT_FALSE(rs.rows[0][1].AsString().empty());
}

TEST(EngineTest, UdafFdhhFindsSkewedDestinations) {
  RegisterPaperUdafs();
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select tb, FDHH(destIP, (time % 60) * (time % 60), 0.05, 0.01) "
      "from TCP group by time/60 as tb",
      &error);
  ASSERT_NE(plan, nullptr) << error;
  TraceConfig cfg;
  cfg.num_servers = 100;
  cfg.server_skew = 1.5;
  cfg.rate_pps = 1000.0;  // 30k packets span ~30 s, so (time % 60) > 0
  PacketGenerator gen(cfg);
  auto exec = plan->NewExecution();
  for (const Packet& p : gen.Generate(30000)) exec->Consume(p);
  const ResultSet rs = exec->Finish();
  ASSERT_FALSE(rs.rows.empty());
  EXPECT_NE(rs.rows[0][1].AsString().find(':'), std::string::npos);
}

TEST(EngineTest, GroupCountTracksDistinctGroups) {
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destPort, count(*) from PKT group by destPort", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  for (std::uint16_t port = 0; port < 100; ++port) {
    exec->Consume(MakePacket(1.0, 1, port, 64));
  }
  EXPECT_EQ(exec->GroupCount(), 100u);
  EXPECT_EQ(exec->tuples_aggregated(), 100u);
}

TEST(ResultSetTest, ToStringContainsHeaderAndRows) {
  std::string error;
  auto plan = CompiledQuery::Compile(
      "select destPort, count(*) from PKT group by destPort", &error);
  ASSERT_NE(plan, nullptr) << error;
  auto exec = plan->NewExecution();
  exec->Consume(MakePacket(1.0, 1, 80, 64));
  const std::string text = exec->Finish().ToString();
  EXPECT_NE(text.find("destport"), std::string::npos);
  EXPECT_NE(text.find("80"), std::string::npos);
}

}  // namespace
}  // namespace fwdecay::dsms
