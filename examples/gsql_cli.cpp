// gsql_cli — command-line front end for the mini DSMS: run a GSQL query
// over a synthetic trace (or a recorded trace file) and print the result
// table or CSV. The closest thing in this repo to "using the product".
//
// Usage:
//   gsql_cli [options] "<gsql query>"
//
// Options:
//   --rate <pps>        synthetic trace rate (default 50000)
//   --seconds <s>       synthetic trace duration (default 60)
//   --servers <n>       distinct destination hosts (default 5000)
//   --skew <z>          Zipf skew of destinations (default 1.1)
//   --seed <n>          generator seed (default 42)
//   --jitter <s>        out-of-order delivery jitter (default 0)
//   --trace <path>      replay a recorded trace instead of generating
//   --save-trace <path> save the generated trace for later replay
//   --two-level         enable the GS-style low/high aggregation split
//   --bucket <s>        tumbling emission every s seconds (default: one
//                       result table over the whole input)
//   --csv               print CSV instead of the aligned table
//
// Expressions are numeric: every column, literal and scalar call is an
// int64 or a double, and a query that compiles runs to completion. A
// string literal, an unknown column or function, an aggregate inside
// WHERE / GROUP BY / another aggregate, and a string-valued aggregate
// (the samplers and heavy hitters) used anywhere but as a whole SELECT
// item are query errors, as are UNARYHH, SWHH and EHDSUM with
// --two-level. Integer arithmetic is total: + - * wrap in two's
// complement, x / 0 = 0, x % 0 = x, and INT64_MIN / -1 = INT64_MIN.
// A double converted to an integer truncates and saturates (NaN -> 0).
// GROUP BY keys are equal when their bits are: a double key groups
// every NaN of one bit pattern together and keeps -0 and +0 apart, and
// rows come out in key order, doubles in IEEE totalOrder (-0 before +0).
//
// Examples:
//   gsql_cli "select tb, destIP, count(*) from TCP
//             group by time/60 as tb, destIP order by 3 desc limit 10"
//   gsql_cli --bucket 60 "select tb, PRISAMP(srcIP, expweight(time,60,1))
//             from TCP group by time/60 as tb"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dsms/engine.h"
#include "dsms/netgen.h"
#include "dsms/trace_io.h"
#include "dsms/tumbling.h"
#include "dsms/udafs.h"

namespace {

using namespace fwdecay::dsms;

struct CliOptions {
  TraceConfig trace;
  double seconds = 60.0;
  std::string trace_path;
  std::string save_trace_path;
  bool two_level = false;
  double bucket_seconds = 0.0;
  bool csv = false;
  std::string query;
};

[[noreturn]] void Usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: gsql_cli [--rate N] [--seconds S] [--servers N] "
               "[--skew Z] [--seed N] [--jitter S] [--trace PATH] "
               "[--save-trace PATH] [--two-level] [--bucket S] [--csv] "
               "\"<gsql>\"\n");
  std::exit(2);
}

double NumArg(int argc, char** argv, int* i) {
  if (*i + 1 >= argc) Usage("missing option value");
  return std::strtod(argv[++*i], nullptr);
}

CliOptions Parse(int argc, char** argv) {
  CliOptions opts;
  opts.trace.rate_pps = 50000.0;
  opts.trace.num_servers = 5000;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--rate") == 0) {
      opts.trace.rate_pps = NumArg(argc, argv, &i);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      opts.seconds = NumArg(argc, argv, &i);
    } else if (std::strcmp(arg, "--servers") == 0) {
      opts.trace.num_servers =
          static_cast<std::uint32_t>(NumArg(argc, argv, &i));
    } else if (std::strcmp(arg, "--skew") == 0) {
      opts.trace.server_skew = NumArg(argc, argv, &i);
    } else if (std::strcmp(arg, "--seed") == 0) {
      opts.trace.seed = static_cast<std::uint64_t>(NumArg(argc, argv, &i));
    } else if (std::strcmp(arg, "--jitter") == 0) {
      opts.trace.reorder_jitter = NumArg(argc, argv, &i);
    } else if (std::strcmp(arg, "--trace") == 0) {
      if (i + 1 >= argc) Usage("missing --trace path");
      opts.trace_path = argv[++i];
    } else if (std::strcmp(arg, "--save-trace") == 0) {
      if (i + 1 >= argc) Usage("missing --save-trace path");
      opts.save_trace_path = argv[++i];
    } else if (std::strcmp(arg, "--two-level") == 0) {
      opts.two_level = true;
    } else if (std::strcmp(arg, "--bucket") == 0) {
      opts.bucket_seconds = NumArg(argc, argv, &i);
    } else if (std::strcmp(arg, "--csv") == 0) {
      opts.csv = true;
    } else if (arg[0] == '-') {
      Usage("unknown option");
    } else if (opts.query.empty()) {
      opts.query = arg;
    } else {
      Usage("multiple queries given");
    }
  }
  if (opts.query.empty()) Usage("no query given");
  return opts;
}

void PrintResult(const ResultSet& rs, bool csv) {
  if (!csv) {
    std::fputs(rs.ToString().c_str(), stdout);
    return;
  }
  for (std::size_t c = 0; c < rs.columns.size(); ++c) {
    std::printf("%s%s", c == 0 ? "" : ",", rs.columns[c].c_str());
  }
  std::printf("\n");
  for (const auto& row : rs.rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      std::printf("%s%s", c == 0 ? "" : ",", row[c].ToString().c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  RegisterPaperUdafs();
  const CliOptions opts = Parse(argc, argv);

  std::string error;
  CompiledQuery::Options plan_opts;
  plan_opts.two_level = opts.two_level;
  auto plan = CompiledQuery::Compile(opts.query, &error, plan_opts);
  if (plan == nullptr) {
    std::fprintf(stderr, "query error: %s\n", error.c_str());
    return 1;
  }

  std::vector<Packet> packets;
  if (!opts.trace_path.empty()) {
    auto loaded = ReadTrace(opts.trace_path, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "trace error: %s\n", error.c_str());
      return 1;
    }
    packets = *std::move(loaded);
  } else {
    PacketGenerator gen(opts.trace);
    packets = gen.Generate(
        static_cast<std::size_t>(opts.trace.rate_pps * opts.seconds));
  }
  if (!opts.save_trace_path.empty()) {
    if (!WriteTrace(opts.save_trace_path, packets, &error)) {
      std::fprintf(stderr, "trace error: %s\n", error.c_str());
      return 1;
    }
  }

  if (opts.bucket_seconds > 0.0) {
    TumblingRunner runner(plan.get(), opts.bucket_seconds,
                          [&](std::int64_t bucket, ResultSet rs) {
                            std::printf("-- bucket %lld --\n",
                                        static_cast<long long>(bucket));
                            PrintResult(rs, opts.csv);
                          });
    for (const Packet& p : packets) runner.Consume(p);
    runner.Flush();
  } else {
    auto exec = plan->NewExecution();
    for (const Packet& p : packets) exec->Consume(p);
    PrintResult(exec->Finish(), opts.csv);
    std::fprintf(stderr, "%llu tuples aggregated, %zu groups\n",
                 static_cast<unsigned long long>(exec->tuples_aggregated()),
                 exec->GroupCount());
  }
  return 0;
}
