#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <unordered_set>

#include "core/decay.h"
#include "core/forward_decay.h"
#include "dsms/tumbling.h"
#include "dsms/udafs.h"
#include "sampling/priority_sampling.h"
#include "server/frame.h"
#include "server/journal.h"
#include "server/snapshot.h"
#include "sketch/qdigest.h"
#include "sketch/space_saving.h"
#include "util/random.h"

namespace perfbench {

using fwdecay::dsms::CompiledQuery;
using fwdecay::dsms::OverloadPolicy;
using fwdecay::dsms::PacketBatch;
using fwdecay::dsms::QueryExecution;
using fwdecay::dsms::ResultSet;

namespace {

// Repetitions of every probe; reps of different probes are interleaved
// so a host speed phase hits all of them alike, and each probe reports
// its median.
constexpr int kReps = 5;

double TimedNs(const char* span, const std::function<void()>& fn) {
  Span s(span);
  const std::int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0);
}

struct RungRun {
  double consume_ns = 0;
  double finish_ns = 0;
  std::uint64_t evictions = 0;
  std::uint64_t groups_shed = 0;
};

RungRun RunRung(const CompiledQuery& plan,
                const std::vector<PacketBatch>& batches, const char* span,
                const OverloadPolicy* policy) {
  auto exec = plan.NewExecution();
  if (policy != nullptr) exec->SetOverloadPolicy(*policy);
  RungRun r;
  r.consume_ns = TimedNs(span, [&] {
    for (const auto& b : batches) exec->Consume(b);
  });
  r.evictions = exec->low_level_evictions();
  r.groups_shed = exec->groups_shed();
  r.finish_ns = TimedNs("engine.finish", [&] { (void)exec->Finish(); });
  return r;
}

struct Rung {
  const char* span;
  std::unique_ptr<CompiledQuery> plan;
  const OverloadPolicy* policy = nullptr;
  std::vector<double> consume_ns;
  std::vector<double> total_ns;
  RungRun last;
};

double Med(const std::vector<double>& v) { return Median(v); }

}  // namespace

void RunLayerProbes(const LayerInputs& in, Report* report) {
  fwdecay::dsms::RegisterPaperUdafs();  // the UDAF rungs
  const auto& batches = *in.batches;
  double n = 0;
  for (const auto& b : batches) n += static_cast<double>(b.size());
  const double kpkt = n / 1000.0;

  // --- compile --------------------------------------------------------
  {
    std::vector<double> us;
    for (int rep = 0; rep < 10; ++rep) {
      for (const auto& spec : in.state_plans) {
        us.push_back(TimedNs("compile.plan", [&] {
                       (void)MustCompile(spec.gsql, spec.two_level);
                     }) /
                     1e3);
      }
    }
    report->Set("compile.plan_us", Med(us), "us");
  }

  // --- engine ladder, shedding, UDAF rungs ----------------------------
  // The shedding probe's budget is 7/8 of the input's distinct
  // destinations (serve_state's 16000 of ~18.5k), so it sheds on every
  // workload's batches.
  std::unordered_set<std::uint32_t> dests;
  for (const auto& b : batches) dests.insert(b.dest_ip(), b.dest_ip() + b.size());
  OverloadPolicy shed_policy;
  shed_policy.max_groups = std::max<std::size_t>(1, dests.size() * 7 / 8);
  shed_policy.decay_alpha = kTenantAlpha;
  std::vector<Rung> rungs;
  auto add = [&](const char* span, const char* gsql, bool two_level,
                 const OverloadPolicy* policy = nullptr) {
    Rung r;
    r.span = span;
    r.plan = MustCompile(gsql, two_level);
    r.policy = policy;
    rungs.push_back(std::move(r));
    return rungs.size() - 1;
  };
  const std::size_t filter = add("ladder.filter", kLadderFilter, false);
  const std::size_t group = add("ladder.group", kLadderGroup, false);
  const std::size_t agg = add("ladder.agg", kCountSum, false);
  const std::size_t agg2 = add("ladder.agg_two_level", kCountSum, true);
  const std::size_t expd = add("ladder.expdecay", kForwardExp, false);
  const std::size_t tb = add("ladder.tb_base", kLadderTbBase, false);
  const std::size_t fdhh = add("ladder.fdhh", kLadderTbFdhh, false);
  const std::size_t prisamp = add("ladder.prisamp", kLadderTbPrisamp, false);
  const std::size_t fdq = add("ladder.fdquantile", kLadderTbFdquantile, false);
  const std::size_t noshed = add("shed.without_policy", kByDest, false);
  const std::size_t shed =
      add("shed.with_policy", kByDest, false, &shed_policy);

  // Tumbling, pipeline, sketches and frame encoding join the same
  // interleaved repetition loop.
  std::vector<double> tumbling_ns, route_ns, drain_ns, merge_ns;
  std::vector<double> ss_ns, qd_ns, ps_ns, encode_ns;
  std::vector<std::uint64_t> keys, srcs, lens;
  std::vector<double> times, weights;
  for (const auto& b : batches) {
    for (std::size_t i = 0; i < b.size(); ++i) {
      keys.push_back(b.dest_ip()[i]);
      srcs.push_back(b.src_ip()[i]);
      lens.push_back(std::min<std::uint64_t>(b.len()[i], 2047));
      times.push_back(b.time()[i]);
      weights.push_back(
          std::exp(static_cast<double>(static_cast<std::int64_t>(b.time()[i]) %
                                       60) /
                   10.0));
    }
  }
  const double updates = static_cast<double>(keys.size());

  for (int rep = 0; rep < kReps; ++rep) {
    for (auto& r : rungs) {
      r.last = RunRung(*r.plan, batches, r.span, r.policy);
      r.consume_ns.push_back(r.last.consume_ns);
      r.total_ns.push_back(r.last.consume_ns + r.last.finish_ns);
    }
    {
      fwdecay::dsms::TumblingRunner runner(
          rungs[agg2].plan.get(), 0.5,
          [](std::int64_t, ResultSet) {});
      tumbling_ns.push_back(TimedNs("windows.tumbling_consume", [&] {
        for (const auto& b : batches) {
          for (std::size_t i = 0; i < b.size(); ++i) runner.Consume(b.Get(i));
        }
      }));
      runner.Flush();
    }
    {
      fwdecay::dsms::PipelinedQueryExecution::Options opts;
      opts.num_shards = 2;
      fwdecay::dsms::PipelinedQueryExecution pipe(*rungs[agg].plan, opts);
      route_ns.push_back(TimedNs("pipeline.consume", [&] {
        for (const auto& b : batches) pipe.Consume(b);
      }));
      drain_ns.push_back(TimedNs("pipeline.quiesce", [&] { pipe.Quiesce(); }));
      merge_ns.push_back(
          TimedNs("pipeline.finish", [&] { (void)pipe.Finish(); }));
    }
    {
      fwdecay::WeightedSpaceSaving ss(100);
      ss_ns.push_back(TimedNs("sketch.space_saving_update", [&] {
        for (std::size_t i = 0; i < keys.size(); ++i) {
          ss.Update(keys[i], weights[i]);
        }
      }));
      fwdecay::QDigest qd(11, 0.01);
      qd_ns.push_back(TimedNs("sketch.qdigest_update", [&] {
        for (std::size_t i = 0; i < lens.size(); ++i) {
          qd.Update(lens[i], weights[i]);
        }
      }));
      fwdecay::PrioritySampler<std::uint64_t, fwdecay::ExponentialG> ps(
          fwdecay::ForwardDecay<fwdecay::ExponentialG>(
              fwdecay::ExponentialG(0.1), 0.0),
          8);
      fwdecay::Rng rng(static_cast<std::uint64_t>(rep) + 1);
      ps_ns.push_back(TimedNs("sampling.priority_update", [&] {
        for (std::size_t i = 0; i < srcs.size(); ++i) {
          ps.Add(times[i], srcs[i], rng);
        }
      }));
    }
    encode_ns.push_back(TimedNs("frame.encode_ingest", [&] {
      std::uint64_t seq = 0;
      for (const auto& b : batches) {
        (void)fwdecay::server::EncodeIngest(++seq, b);
      }
    }));
  }

  auto per_pkt = [&](std::size_t i) { return Med(rungs[i].consume_ns) / n; };
  report->Set("engine.filter_ns_per_pkt", per_pkt(filter), "ns");
  report->Set("engine.group_ns_per_pkt", per_pkt(group) - per_pkt(filter),
              "ns");
  report->Set("engine.agg_ns_per_pkt", per_pkt(agg) - per_pkt(group), "ns");
  report->Set("engine.two_level_ns_per_pkt", per_pkt(agg2) - per_pkt(agg),
              "ns");
  report->Set("engine.expdecay_ns_per_pkt", per_pkt(expd) - per_pkt(agg),
              "ns");
  report->Set("engine.low_evictions_per_kpkt",
              static_cast<double>(rungs[agg2].last.evictions) / kpkt, "count");
  report->Set("engine.shed_ns_per_pkt", per_pkt(shed) - per_pkt(noshed), "ns");
  report->Set("engine.groups_shed_per_kpkt",
              static_cast<double>(rungs[shed].last.groups_shed) / kpkt,
              "count");
  report->Set("udaf.fdhh_ns_per_pkt", per_pkt(fdhh) - per_pkt(tb), "ns");
  report->Set("udaf.prisamp_ns_per_pkt", per_pkt(prisamp) - per_pkt(tb), "ns");
  report->Set("udaf.fdquantile_ns_per_pkt", per_pkt(fdq) - per_pkt(tb), "ns");
  report->Set("sketch.space_saving_update_ns", Med(ss_ns) / updates, "ns");
  report->Set("sketch.qdigest_update_ns", Med(qd_ns) / updates, "ns");
  report->Set("sampling.priority_update_ns", Med(ps_ns) / updates, "ns");
  report->Set("windows.tumbling_ns_per_pkt",
              Med(tumbling_ns) / n - per_pkt(agg2), "ns");
  report->Set("pipeline.route_ns_per_pkt", Med(route_ns) / n, "ns");
  report->Set("pipeline.drain_ms", Med(drain_ns) / 1e6, "ms");
  report->Set("pipeline.merge_ms", Med(merge_ns) / 1e6, "ms");
  {
    std::vector<double> pipe_total;
    for (int i = 0; i < kReps; ++i) {
      pipe_total.push_back(route_ns[i] + drain_ns[i] + merge_ns[i]);
    }
    report->Set("pipeline.speedup_vs_single",
                Med(rungs[agg].total_ns) / Med(pipe_total), "ratio");
  }
  report->Set("frame.encode_ingest_ns_per_pkt", Med(encode_ns) / n, "ns");

  // --- journal append + fsync on the workload's filesystem -------------
  {
    const std::string dir = in.work_dir + "/journal-probe";
    std::filesystem::create_directories(dir);
    fwdecay::server::JournalWriter writer(dir + "/journal-1.fwj");
    std::vector<double> us;
    std::string error;
    for (std::size_t i = 0; i < 64; ++i) {
      const auto record = fwdecay::server::EncodeBatchRecord(
          i + 1, batches[i % batches.size()]);
      us.push_back(TimedNs("journal.append", [&] {
                     if (!writer.Append(record, &error)) {
                       report->Fail("journal-probe", error);
                     }
                   }) /
                   1e3);
    }
    report->Set("journal.append_fsync_us", Med(us), "us");
    RemoveTree(dir);
  }

  // --- the workload's own plans, replicated in process ----------------
  struct Replica {
    std::unique_ptr<CompiledQuery> plan;
    std::unique_ptr<QueryExecution> exec;
  };
  std::vector<Replica> replicas;
  for (const auto& spec : in.state_plans) {
    Replica r;
    r.plan = MustCompile(spec.gsql, spec.two_level);
    r.exec = r.plan->NewExecution();
    if (spec.policy.max_groups > 0) r.exec->SetOverloadPolicy(spec.policy);
    replicas.push_back(std::move(r));
  }
  std::vector<double> fanout_us;
  for (const auto& b : batches) {
    fanout_us.push_back(TimedNs("daemon.fanout", [&] {
                          for (auto& r : replicas) r.exec->Consume(b);
                        }) /
                        1e3);
  }
  report->Set("daemon.fanout_us_per_batch", Med(fanout_us), "us");
  double groups = 0;
  for (const auto& r : replicas) groups += static_cast<double>(r.exec->GroupCount());
  report->Set("engine.groups", groups, "count");

  std::vector<double> ckpt_ms, restore_ms, finish_ms, encode_ms, publish_ms;
  double image_bytes = 0;
  const std::string snap_dir = in.work_dir + "/snapshot-probe";
  std::filesystem::create_directories(snap_dir);
  fwdecay::server::SnapshotManager snaps(snap_dir, 2);
  fwdecay::server::Manifest manifest;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::vector<std::uint8_t>> images(replicas.size());
    std::string error;
    ckpt_ms.push_back(TimedNs("snapshot.checkpoint_bytes", [&] {
                        for (std::size_t i = 0; i < replicas.size(); ++i) {
                          if (!replicas[i].exec->CheckpointBytes(&images[i],
                                                                 &error)) {
                            report->Fail("checkpoint-bytes", error);
                          }
                        }
                      }) /
                      1e6);
    std::vector<std::uint8_t> server_image;
    for (const auto& img : images) {
      server_image.insert(server_image.end(), img.begin(), img.end());
    }
    image_bytes = static_cast<double>(server_image.size());
    publish_ms.push_back(TimedNs("snapshot.publish", [&] {
                           manifest.active += 1;
                           if (!snaps.WriteManifest(manifest, &error) ||
                               !snaps.PublishSnapshot(manifest.active,
                                                      server_image, &manifest,
                                                      &error)) {
                             report->Fail("snapshot-publish", error);
                           }
                         }) /
                         1e6);
    std::vector<std::unique_ptr<QueryExecution>> clones(replicas.size());
    restore_ms.push_back(TimedNs("snapshot.restore_bytes", [&] {
                           for (std::size_t i = 0; i < replicas.size(); ++i) {
                             clones[i] = replicas[i].plan->NewExecution();
                             if (!clones[i]->RestoreBytes(images[i].data(),
                                                          images[i].size(),
                                                          &error)) {
                               report->Fail("restore-bytes", error);
                             }
                           }
                         }) /
                         1e6);
    std::vector<ResultSet> results(replicas.size());
    finish_ms.push_back(TimedNs("engine.finish", [&] {
                          for (std::size_t i = 0; i < clones.size(); ++i) {
                            results[i] = clones[i]->Finish();
                          }
                        }) /
                        1e6);
    encode_ms.push_back(TimedNs("frame.encode_result", [&] {
                          for (const auto& rs : results) {
                            (void)fwdecay::server::EncodeResult(rs);
                          }
                        }) /
                        1e6);
  }
  RemoveTree(snap_dir);
  report->Set("snapshot.checkpoint_bytes_ms", Med(ckpt_ms), "ms");
  report->Set("snapshot.restore_bytes_ms", Med(restore_ms), "ms");
  report->Set("snapshot.image_mb", image_bytes / (1024.0 * 1024.0), "MiB");
  report->Set("engine.finish_ms", Med(finish_ms), "ms");
  report->Set("frame.encode_result_ms", Med(encode_ms), "ms");
  report->Set("daemon.checkpoint_ms", Med(ckpt_ms) + Med(publish_ms), "ms");
}

}  // namespace perfbench
