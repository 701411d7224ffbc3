#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "queries.h"

namespace perfbench {

// engine_paper / engine_wide: the paper's query set in process, no
// daemon, over a flow-structured or a per-packet-endpoint trace.
void RunEnginePaper(const Args& args, Report* report);

// serve_ingest and serve_state: fwdecayd as a child process.
void RunServe(const Args& args, Report* report);

// Traced-run helper for workloads without a daemon of their own: serves
// `plans` (built-in aggregates only) from a short-lived fwdecayd over
// `batches` and sets the daemon-side per-layer metrics (net.*,
// journal.fsyncs_per_batch, daemon.apply_us / queue_* ,
// recovery.replayed_batches).
void RunDaemonLayerProbe(const Args& args,
                         const std::vector<fwdecay::dsms::PacketBatch>& batches,
                         const std::vector<PlanSpec>& plans, Report* report);

// Feeds every gate a corrupted reference; true when each one trips and
// passes on the true reference.
bool RunSelftest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
