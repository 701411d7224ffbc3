// Correctness gates. Each returns "" when the observed output matches
// its reference, else a description of the first mismatch. The selftest
// (perfbench --selftest) feeds every gate a corrupted reference and checks
// that it trips.
#ifndef PERFBENCH_GATES_H_
#define PERFBENCH_GATES_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dsms/batch.h"
#include "dsms/engine.h"
#include "queries.h"

namespace perfbench {

// Exact (count, sum(len)) per (time/60, destIP, destPort) over TCP
// packets: the reference for the fig-2 count/sum plans.
using CountSumKey = std::tuple<std::int64_t, std::int64_t, std::int64_t>;
using ExactCountSum =
    std::map<CountSumKey, std::pair<std::int64_t, std::int64_t>>;
ExactCountSum BuildExactCountSum(
    const std::vector<fwdecay::dsms::PacketBatch>& batches);

// Rows (tb, destIP, destPort, count, sum) equal the exact map.
std::string CheckCountSum(const fwdecay::dsms::ResultSet& rs,
                          const ExactCountSum& ref);

// Same shape, and every integer cell of `got` equals `ref`'s.
std::string CheckIntColumns(const fwdecay::dsms::ResultSet& got,
                            const fwdecay::dsms::ResultSet& ref);

// Per-bucket count/sum results, summed over buckets, equal the
// unwindowed count/sum result (both keyed on the first three columns).
std::string CheckBucketsSum(
    const std::vector<std::pair<std::int64_t, fwdecay::dsms::ResultSet>>&
        buckets,
    const fwdecay::dsms::ResultSet& total);

// Bit-identical result tables (doubles compared by bit pattern).
std::string CheckSame(const fwdecay::dsms::ResultSet& got,
                      const fwdecay::dsms::ResultSet& ref);

// As CheckSame, except that column `sample_col` holds a rendered random
// sample ("v1,v2,..."): there only the number of sampled items must
// match. Sampler UDAFs seed each new state from a process-wide counter,
// so two executions of one plan draw different (equally valid) samples.
std::string CheckSameSampleSize(const fwdecay::dsms::ResultSet& got,
                                const fwdecay::dsms::ResultSet& ref,
                                std::size_t sample_col);

// One batch fwdecayd acknowledged: its apply order and which pool batch
// it was.
struct AckedBatch {
  std::uint64_t global_seq;
  std::uint32_t pool_index;
};

// The serve reference: in-process executions of `queries` (with their
// tenants' shedding policies) fed the acked batches in global_seq
// order, i.e. the state the daemon's single apply thread must reach.
std::vector<fwdecay::dsms::ResultSet> ReferenceFromAcks(
    const std::vector<PlanSpec>& queries, std::vector<AckedBatch> acks,
    const std::vector<fwdecay::dsms::PacketBatch>& pool);

}  // namespace perfbench

#endif  // PERFBENCH_GATES_H_
