// Per-layer probes for the traced run: each times calls into one layer's
// public functions from the benchmark's own code, over the workload's
// own batches and plans, and records a span around every call.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "common.h"
#include "queries.h"

namespace perfbench {

struct LayerInputs {
  const std::vector<fwdecay::dsms::PacketBatch>* batches = nullptr;
  // The plans the workload keeps state in (replicated in process for
  // the finish / snapshot / fan-out / encode-result probes).
  std::vector<PlanSpec> state_plans;
  // Directory on the workload's data filesystem (journal probe).
  std::string work_dir;
};

// Sets compile.*, engine.*, udaf.*, sketch.*, sampling.*, windows.*,
// pipeline.*, frame.*, journal.append_fsync_us, daemon.fanout_us_per_batch,
// daemon.checkpoint_ms and snapshot.* metrics on `report`.
void RunLayerProbes(const LayerInputs& in, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
