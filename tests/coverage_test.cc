// Coverage for paths the focused suites leave untouched: TablePrinter's
// rendered output, deterministic arrival spacing in the generator, a
// UDAF query beside a built-in one, EhSum value bounds, and the
// Cohen–Strauss grid contract.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/udafs.h"
#include "sketch/backward_sum.h"
#include "sketch/exp_histogram.h"
#include "util/table_printer.h"

namespace fwdecay {
namespace {

std::string CaptureTable(const TablePrinter& table, bool csv) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  if (csv) {
    table.PrintCsv(f);
  } else {
    table.Print(f);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out(static_cast<std::size_t>(size), '\0');
  EXPECT_EQ(std::fread(out.data(), 1, out.size(), f), out.size());
  std::fclose(f);
  return out;
}

TEST(TablePrinterTest, AlignedOutputContainsPaddedColumns) {
  TablePrinter t({"rate", "load"});
  t.AddRow({"100000", "3.5"});
  t.AddRow({"400000", "18.3"});
  const std::string out = CaptureTable(t, /*csv=*/false);
  // Header, separator, two rows.
  EXPECT_NE(out.find("rate    load"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
  EXPECT_NE(out.find("100000  3.5"), std::string::npos);
  EXPECT_NE(out.find("400000  18.3"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "x"});
  const std::string out = CaptureTable(t, /*csv=*/true);
  EXPECT_EQ(out, "a,b\n1,x\n");
}

TEST(TablePrinterTest, ArityMismatchIsContractViolation) {
  TablePrinter t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "arity");
}

TEST(NetgenTest, DeterministicArrivalSpacing) {
  dsms::TraceConfig cfg;
  cfg.poisson_arrivals = false;
  cfg.rate_pps = 1000.0;
  dsms::PacketGenerator gen(cfg);
  double prev = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const dsms::Packet p = gen.Next();
    EXPECT_NEAR(p.time - prev, 0.001, 1e-9);
    prev = p.time;
  }
}

// A built-in and a UDAF query run side by side over one trace, each as
// its own single-thread execution.
TEST(MultiQueryTest, UdafAndBuiltinSideBySide) {
  dsms::RegisterPaperUdafs();
  dsms::TraceConfig cfg;
  cfg.rate_pps = 2000.0;
  cfg.seed = 22;
  dsms::PacketGenerator gen(cfg);

  std::string error;
  auto counts = dsms::CompiledQuery::Compile(
      "select destPort, count(*) from TCP group by destPort", &error);
  ASSERT_NE(counts, nullptr) << error;
  auto heavy = dsms::CompiledQuery::Compile(
      "select tb, FDHH(destIP, (time % 60)*(time % 60) + 1, 0.1, 0.02) "
      "from TCP group by time/60 as tb",
      &error);
  ASSERT_NE(heavy, nullptr) << error;
  auto counts_exec = counts->NewExecution();
  auto heavy_exec = heavy->NewExecution();
  for (const auto& p : gen.Generate(20000)) {
    counts_exec->Consume(p);
    heavy_exec->Consume(p);
  }
  EXPECT_FALSE(counts_exec->Finish().rows.empty());
  const dsms::ResultSet heavy_rows = heavy_exec->Finish();
  ASSERT_FALSE(heavy_rows.rows.empty());
  // FDHH renders its heavy hitters as key:weight pairs.
  EXPECT_NE(heavy_rows.rows[0][1].AsString().find(':'), std::string::npos);
}

TEST(EhSumTest, ValueAtBitBoundary) {
  EhSum eh(0.1, /*value_bits=*/4);
  eh.Insert(1.0, 15);  // max representable
  EXPECT_DOUBLE_EQ(eh.TotalSum(), 15.0);
  EXPECT_DEATH(eh.Insert(2.0, 16), "value_bits");
}

TEST(BackwardDecayedAggregatorTest, GridSizeContract) {
  EXPECT_DEATH(BackwardDecayedAggregator(0.1, 8, /*grid_size=*/1),
               "grid");
}

TEST(CombineWindowQueriesTest, MonotoneWindowFunctionYieldsPositive) {
  // W(a) increasing, f decreasing: result between f(horizon)*W(horizon)
  // and W(horizon).
  const double horizon = 100.0;
  auto window = [](double a) { return a * 10.0; };
  auto f = [](double age) { return 1.0 / (1.0 + age); };
  const double result = CombineWindowQueries(horizon, f, 48, window);
  EXPECT_GT(result, f(horizon) * window(horizon));
  EXPECT_LT(result, window(horizon));
}

}  // namespace
}  // namespace fwdecay
