// GSQL texts the benchmark runs: the paper's query set (Figs 2-5) and the
// subtraction ladder that attributes engine time to its stages.
#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

#include <string>

#include "dsms/engine.h"

namespace perfbench {

// Fig. 2 undecayed count/sum, grouped by (tb, destIP, destPort).
inline constexpr const char* kCountSum =
    "select tb, destIP, destPort, count(*), sum(len) from TCP "
    "group by time/60 as tb, destIP, destPort";
// Fig. 2 forward-exponential decay.
inline constexpr const char* kForwardExp =
    "select tb, destIP, destPort, sum(exp(time%60)), sum(len*exp(time%60)) "
    "from TCP group by time/60 as tb, destIP, destPort";
// Figs 4-5 heavy hitters, Fig. 3 priority sampling, decayed quantile.
inline constexpr const char* kFdhh =
    "select tb, FDHH(destIP, exp((time % 60) / 10.0), 0.05, 0.01) from TCP "
    "group by time/60 as tb";
inline constexpr const char* kPrisamp =
    "select tb, PRISAMP(srcIP, exp((time % 60) / 10.0), 8) from TCP "
    "group by time/60 as tb";
inline constexpr const char* kFdquantile =
    "select tb, FDQUANTILE(len, (time % 60)*(time % 60) + 1, 0.5, 11) "
    "from TCP group by time/60 as tb";

// Ladder rungs: each adds one stage to the previous one.
inline constexpr const char* kLadderFilter = "select count(*) from TCP";
inline constexpr const char* kLadderGroup =
    "select tb, destIP, destPort from TCP "
    "group by time/60 as tb, destIP, destPort";
// UDAF rungs share a per-bucket base so the UDAF is the only difference.
inline constexpr const char* kLadderTbBase =
    "select tb, count(*), sum(len) from TCP group by time/60 as tb";
inline constexpr const char* kLadderTbFdhh =
    "select tb, count(*), sum(len), "
    "FDHH(destIP, exp((time % 60) / 10.0), 0.05, 0.01) "
    "from TCP group by time/60 as tb";
inline constexpr const char* kLadderTbPrisamp =
    "select tb, count(*), sum(len), PRISAMP(srcIP, exp((time % 60) / 10.0), 8) "
    "from TCP group by time/60 as tb";
inline constexpr const char* kLadderTbFdquantile =
    "select tb, count(*), sum(len), "
    "FDQUANTILE(len, (time % 60)*(time % 60) + 1, 0.5, 11) "
    "from TCP group by time/60 as tb";

// serve_state's over-budget plan (also the in-process shedding probe).
inline constexpr const char* kByDest =
    "select destIP, count(*), sum(len) from PKT group by destIP";
inline constexpr const char* kBySource =
    "select srcIP, count(*), sum(len) from PKT group by srcIP";
inline constexpr std::size_t kStateGroupBudget = 16000;
// fwdecayd's default tenant decay parameters (TenantSpec).
inline constexpr double kTenantAlpha = 0.05;

// A plan as a workload registers it: text, aggregation split, and the
// shedding policy its tenant imposes (max_groups 0 = none).
struct PlanSpec {
  std::string tenant;
  std::string name;
  std::string gsql;
  bool two_level = false;
  fwdecay::dsms::OverloadPolicy policy;
};

// Compiles or aborts with the compiler's message (the texts are fixed).
std::unique_ptr<fwdecay::dsms::CompiledQuery> MustCompile(
    const std::string& gsql, bool two_level);

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
