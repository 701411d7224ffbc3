// serve_ingest and serve_state: the real fwdecayd binary as a child
// process, driven through server::Client from this process only.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dsms/engine.h"
#include "gates.h"
#include "layers.h"
#include "server/client.h"
#include "workloads.h"

namespace perfbench {

using fwdecay::dsms::PacketBatch;
using fwdecay::dsms::ResultSet;
using fwdecay::server::Client;

namespace {

constexpr double kWarmupS = 1.0;           // applied + gated, not timed
constexpr double kTraceWindowS = 1.0;      // traced / untraced alternation
constexpr double kCpuSampleS = 0.5;       // daemon CPU sampling interval
constexpr int kSetupTrials = 11;
constexpr int kKillCycles = 9;

struct ServeConfig {
  std::vector<PlanSpec> queries;
  std::size_t pool_batches = 256;  // cycled by the ingest clients
  std::size_t batch_packets = 1024;
  std::size_t ack_window = 128;    // acks per statistics window
  std::size_t batches_per_kill = 16;  // ingested before each SIGKILL
  // Open-loop poll schedule, kept well below poll capacity in the host's
  // slow phase (an overloaded open loop measures its own backlog).
  double poll_hz = 10.0;
  std::size_t poll_window = 25;     // polls per statistics window
  // Replays every acked batch in process after the run; off where the
  // replay would cost more than the run itself (serve_state's shedding).
  bool reference_gate = true;
  std::size_t max_groups = 4096;
  fwdecay::dsms::TraceConfig trace;
  std::vector<std::string> flags;
};

PlanSpec Q(const char* tenant, const char* name, const char* gsql,
           bool two_level, std::size_t max_groups) {
  PlanSpec s;
  s.tenant = tenant;
  s.name = name;
  s.gsql = gsql;
  s.two_level = two_level;
  s.policy.max_groups = max_groups;
  s.policy.decay_alpha = kTenantAlpha;
  return s;
}

std::vector<std::string> DaemonFlags(std::size_t max_groups,
                                     double checkpoint_s) {
  return {"--max-groups",          std::to_string(max_groups),
          "--checkpoint-interval", std::to_string(checkpoint_s),
          "--retain",              "2",
          "--queue-capacity",      "64"};
}

// Two tenants, three small-state queries each; in each tenant two
// queries share WHERE and GROUP BY, so shared scan has room to show.
// One writer sending 8192-packet batches: with two writers of 1024-packet
// batches the fsync dominated each ack and its queueing amplified the
// host's disk phases until ack_p90_us spread 0.57-0.62 (IQR/median)
// over ten seeds (perfbench/README.md).
ServeConfig IngestConfig(std::uint64_t seed) {
  ServeConfig c;
  const std::size_t budget = 4096;
  c.queries = {
      Q("ta", "ta_proto_cs",
        "select tb, proto, count(*), sum(len) from PKT where len >= 64 "
        "group by time/60 as tb, protocol as proto",
        false, budget),
      Q("ta", "ta_proto_decay",
        "select tb, proto, sum(exp((time % 60) / 10.0)), max(len) from PKT "
        "where len >= 64 group by time/60 as tb, protocol as proto",
        false, budget),
      Q("ta", "ta_port",
        "select dp, count(*), avg(len) from TCP group by destPort % 256 as dp",
        true, budget),
      Q("tb", "tb_sport_cs",
        "select tb, sp, count(*), sum(len) from UDP "
        "group by time/60 as tb, srcPort % 128 as sp",
        false, budget),
      Q("tb", "tb_sport_decay",
        "select tb, sp, sum(len * exp((time % 60) / 10.0)), min(len) from UDP "
        "group by time/60 as tb, srcPort % 128 as sp",
        false, budget),
      Q("tb", "tb_dst",
        "select dh, count(*), sum(len) from TCP group by destIP % 1024 as dh",
        true, budget),
  };
  c.max_groups = budget;
  c.pool_batches = 32;
  c.batch_packets = 8192;
  c.ack_window = 64;
  c.batches_per_kill = 4;
  c.trace.flow_structured = true;
  c.trace.seed = seed;
  // Checkpoints keep the journal bounded; state is small, so they are
  // cheap here.
  c.flags = DaemonFlags(budget, 2.0);
  return c;
}

// One tenant whose two queries hold tens of thousands of groups. The
// pool's ~18.5k distinct destinations exceed the tenant budget of 16000,
// so the by-destination query sheds on the ~0.5% of packets that reach
// the Zipf tail; its 15000 sources keep the other query within budget.
ServeConfig StateConfig(std::uint64_t seed) {
  ServeConfig c;
  c.queries = {
      Q("sa", "sa_dst", kByDest, false, kStateGroupBudget),
      Q("sa", "sa_src", kBySource, false, kStateGroupBudget),
  };
  // 8192-packet batches (the frame limit) keep the per-batch engine work
  // well above the fsync it shares the ack with.
  c.pool_batches = 64;
  c.batch_packets = 8192;
  c.ack_window = 32;
  c.batches_per_kill = 4;
  // A poll of these results takes 60-100 ms, more in the slow phase.
  c.poll_hz = 4.0;
  c.poll_window = 20;
  c.reference_gate = false;
  c.max_groups = kStateGroupBudget;
  c.trace.flow_structured = false;  // every packet draws fresh endpoints
  c.trace.num_servers = 20000;
  c.trace.num_clients = 15000;
  c.trace.seed = seed;
  c.flags = DaemonFlags(kStateGroupBudget, 2.0);
  return c;
}

struct AckRec {
  std::uint64_t global_seq;
  std::uint32_t pool_index;
  std::int64_t sent_ns;
  std::int64_t ack_ns;
  bool traced;
};

bool RegisterAll(std::uint16_t port, const std::vector<PlanSpec>& queries,
                 std::vector<std::uint64_t>* ids, std::string* error) {
  ids->assign(queries.size(), 0);
  std::vector<std::string> tenants;
  for (const auto& q : queries) {
    if (std::find(tenants.begin(), tenants.end(), q.tenant) == tenants.end()) {
      tenants.push_back(q.tenant);
    }
  }
  for (const auto& tenant : tenants) {
    Client c;
    if (!c.Connect(port, error) || !c.Hello(tenant, error)) return false;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].tenant != tenant) continue;
      fwdecay::server::ErrCode code = fwdecay::server::ErrCode::kNone;
      if (!c.RegisterQuery(queries[i].name, queries[i].gsql,
                           queries[i].two_level, &(*ids)[i], &code, error)) {
        return false;
      }
    }
  }
  return true;
}

bool PollAll(Client* c, const std::vector<std::uint64_t>& ids,
             std::vector<ResultSet>* out, std::string* error) {
  out->assign(ids.size(), ResultSet{});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    fwdecay::server::ErrCode code = fwdecay::server::ErrCode::kNone;
    Span s("client.poll");
    if (!c->PollResult(ids[i], &(*out)[i], &code, error)) return false;
  }
  return true;
}

std::string MakeDir(const std::string& root, const std::string& name) {
  const std::string dir = root + "/" + name;
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct DaemonMetrics {
  double fsync_count = 0;
  double batches_acked = 0;
  double apply_p50_ns = 0;
  double replayed = 0;
};

DaemonMetrics Scrape(const DaemonProc& d) {
  std::map<std::string, double> m;
  std::string error;
  DaemonMetrics out;
  if (!ScrapeMetrics(d.metrics_port(), &m, &error)) return out;
  out.fsync_count = MetricOr(m, "fwdecay_faultfs_fsync_ns_count", 0);
  out.batches_acked = MetricOr(m, "fwdecay_server_batches_acked_total", 0);
  out.apply_p50_ns =
      MetricOr(m, "fwdecay_server_apply_ns{quantile=\"0.5\"}", 0);
  out.replayed = MetricOr(m, "fwdecay_server_replayed_batches_total", 0);
  return out;
}

// Median Client::Stats() round trip on an idle daemon: the network and
// framing share of an ack, without waiting for the daemon mutex.
double IdleStatsRttUs(std::uint16_t port) {
  Client c;
  std::string error;
  std::vector<double> rtt_us;
  if (!c.Connect(port, &error)) return 0.0;
  for (int i = 0; i < 200; ++i) {
    fwdecay::server::WireStats stats;
    const std::int64_t t0 = NowNs();
    Span s("client.stats");
    if (!c.Stats(&stats, &error)) break;
    rtt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(rtt_us);
}

// Stats() sampled every 50 ms under load (traced runs): the ingest
// queue depth the daemon reports.
struct StatsProbe {
  std::vector<double> queue_depth;
  void Run(std::uint16_t port, const std::atomic<bool>& stop) {
    Client c;
    std::string error;
    if (!c.Connect(port, &error)) return;
    while (!stop.load()) {
      fwdecay::server::WireStats stats;
      if (!c.Stats(&stats, &error)) return;
      queue_depth.push_back(stats.queue_depth);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
};

void SetDaemonLayerMetrics(double rtt, const StatsProbe& probe,
                           const DaemonMetrics& before,
                           const DaemonMetrics& after, double ack_p50_us,
                           Report* report) {
  const double apply_us = after.apply_p50_ns / 1e3;
  const double batches = after.batches_acked - before.batches_acked;
  report->Set("net.stats_rtt_us", rtt, "us");
  report->Set("daemon.apply_us", apply_us, "us");
  report->Set("daemon.queue_depth_mean", Mean(probe.queue_depth), "count");
  report->Set("daemon.queue_wait_us", ack_p50_us - apply_us - rtt, "us");
  report->Set("journal.fsyncs_per_batch",
              batches > 0 ? (after.fsync_count - before.fsync_count) / batches
                          : 0.0,
              "count");
}

}  // namespace

void RunServe(const Args& args, Report* report) {
  const bool state = args.workload == "serve_state";
  const ServeConfig cfg = state ? StateConfig(args.seed) : IngestConfig(args.seed);
  const std::vector<PacketBatch> pool =
      GenerateBatches(cfg.trace, cfg.pool_batches, cfg.batch_packets);
  const std::string bin = args.bindir + "/fwdecayd";
  std::string error;

  // --- set-up: spawn, banner, Hello, every query registered ------------
  std::vector<double> setup_s;
  std::unique_ptr<DaemonProc> daemon;
  std::vector<std::uint64_t> ids;
  std::string dir;
  for (int trial = 0; trial < kSetupTrials; ++trial) {
    dir = MakeDir(args.workdir, args.workload + "-" + std::to_string(trial));
    daemon = std::make_unique<DaemonProc>();
    const std::int64_t t0 = NowNs();
    report->Attempt();
    if (!daemon->Start(bin, dir, cfg.flags, &error) ||
        !RegisterAll(daemon->port(), cfg.queries, &ids, &error)) {
      report->FailOp();
      report->Fail("setup", error);
      return;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (trial + 1 < kSetupTrials) {
      daemon->Kill();
      RemoveTree(dir);
    }
  }

  const double idle_rtt_us = args.trace ? IdleStatsRttUs(daemon->port()) : 0.0;

  // --- measured phase ----------------------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ingest_failures{0};
  std::vector<AckRec> all;  // every acked batch, in send order
  const double start = NowSec();
  const double timed_from = start + kWarmupS;
  const double deadline = timed_from + args.seconds;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Client c;
    std::string err;
    if (!c.Connect(daemon->port(), &err)) {
      ingest_failures.fetch_add(1);
      return;
    }
    all.reserve(1 << 16);
    for (std::uint64_t i = 0; NowSec() < deadline; ++i) {
      const auto index = static_cast<std::uint32_t>(i % pool.size());
      fwdecay::server::IngestReply reply;
      const bool traced = Tracer::Get().active();
      const std::int64_t sent = NowNs();
      bool ok;
      {
        Span s("client.ingest");
        ok = c.Ingest(i + 1, pool[index], &reply, &err);
      }
      const std::int64_t acked = NowNs();
      if (!ok || !reply.ok) {
        ingest_failures.fetch_add(1);
        if (!ok) return;
        continue;
      }
      all.push_back({reply.global_seq, index, sent, acked, traced});
    }
  });
  struct PollRec {
    double due;
    double latency_ms;
    double late_ms;
  };
  std::vector<PollRec> polls;
  std::atomic<std::uint64_t> poll_failures{0};
  std::uint64_t polls_attempted = 0;
  threads.emplace_back([&] {
    Client c;
    std::string err;
    if (!c.Connect(daemon->port(), &err)) {
      poll_failures.fetch_add(1);
      return;
    }
    for (std::uint64_t k = 0;; ++k) {
      const double due = start + static_cast<double>(k) / cfg.poll_hz;
      if (due >= deadline) break;
      const double now = NowSec();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      }
      const double sent = NowSec();
      ResultSet rs;
      fwdecay::server::ErrCode code = fwdecay::server::ErrCode::kNone;
      bool ok;
      {
        Span s("client.poll");
        ok = c.PollResult(ids[k % ids.size()], &rs, &code, &err);
      }
      const double done = NowSec();
      ++polls_attempted;
      if (!ok) {
        std::fprintf(stderr, "perfbench: poll failed: %s\n", err.c_str());
        poll_failures.fetch_add(1);
        continue;
      }
      polls.push_back({due, (done - due) * 1e3, (sent - due) * 1e3});
    }
  });
  StatsProbe probe;
  if (args.trace) {
    threads.emplace_back([&] { probe.Run(daemon->port(), stop); });
  }
  // Warm-up, then the timed window; the daemon's CPU time is sampled
  // every kCpuSampleS for the per-window CPU cost.
  while (NowSec() < timed_from) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::vector<std::pair<double, double>> cpu_samples;  // (time, cpu s)
  cpu_samples.emplace_back(NowSec(), ProcCpuSec(daemon->pid()));
  const DaemonMetrics before = args.trace ? Scrape(*daemon) : DaemonMetrics{};
  while (NowSec() < deadline) {
    if (args.trace) {
      const auto window = static_cast<long>((NowSec() - timed_from) / kTraceWindowS);
      Tracer::Get().SetActive(window % 2 == 1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (NowSec() - cpu_samples.back().first >= kCpuSampleS) {
      cpu_samples.emplace_back(NowSec(), ProcCpuSec(daemon->pid()));
    }
  }
  Tracer::Get().SetActive(false);
  const double timed_end = NowSec();
  const DaemonMetrics after = args.trace ? Scrape(*daemon) : DaemonMetrics{};
  stop.store(true);
  for (auto& t : threads) t.join();
  threads.clear();
  const double peak_rss = ProcStatusMiB(daemon->pid(), "VmHWM:");

  report->Attempt(all.size() + ingest_failures.load());
  report->FailOp(ingest_failures.load());
  report->Attempt(polls_attempted);
  report->FailOp(poll_failures.load());

  // Timed acks: sent and acked inside the window.
  const auto from_ns = static_cast<std::int64_t>(timed_from * 1e9);
  const auto to_ns = static_cast<std::int64_t>(timed_end * 1e9);
  std::vector<AckRec> timed;
  double untraced_pkts = 0, traced_pkts = 0;
  for (const auto& a : all) {
    if (a.sent_ns < from_ns || a.ack_ns > to_ns) continue;
    const double pkts = static_cast<double>(pool[a.pool_index].size());
    (a.traced ? traced_pkts : untraced_pkts) += pkts;
    timed.push_back(a);
  }
  std::sort(timed.begin(), timed.end(), [](const AckRec& a, const AckRec& b) {
    return a.sent_ns < b.sent_ns;
  });
  std::vector<double> ack_us;
  for (const auto& a : timed) {
    ack_us.push_back(static_cast<double>(a.ack_ns - a.sent_ns) / 1e3);
  }
  std::sort(timed.begin(), timed.end(), [](const AckRec& a, const AckRec& b) {
    return a.ack_ns < b.ack_ns;
  });
  // Passes: cfg.ack_window consecutive acks, timed from the ack before.
  std::vector<double> pass_pps;
  for (std::size_t i = cfg.ack_window; i < timed.size(); i += cfg.ack_window) {
    const double dt =
        static_cast<double>(timed[i].ack_ns - timed[i - cfg.ack_window].ack_ns) / 1e9;
    double pkts = 0;
    for (std::size_t j = i - cfg.ack_window + 1; j <= i; ++j) {
      pkts += static_cast<double>(pool[timed[j].pool_index].size());
    }
    if (dt > 0) pass_pps.push_back(pkts / dt);
  }
  // Daemon CPU seconds per million packets acked, per sampling interval.
  std::vector<double> cpu_per_mpkt;
  {
    std::size_t j = 0;
    for (std::size_t i = 1; i < cpu_samples.size(); ++i) {
      const auto end_ns = static_cast<std::int64_t>(cpu_samples[i].first * 1e9);
      double pkts = 0;
      for (; j < timed.size() && timed[j].ack_ns <= end_ns; ++j) {
        pkts += static_cast<double>(pool[timed[j].pool_index].size());
      }
      if (pkts > 0) {
        cpu_per_mpkt.push_back((cpu_samples[i].second - cpu_samples[i - 1].second) /
                               (pkts / 1e6));
      }
    }
  }

  // --- final polls, each checked against the in-process reference -------
  Client pc;
  std::vector<ResultSet> round0;
  if (!pc.Connect(daemon->port(), &error)) {
    report->Fail("final-poll", error);
  }
  for (int round = 0; round < 3; ++round) {
    for (std::size_t q = 0; q < ids.size(); ++q) {
      report->Attempt();
      ResultSet rs;
      fwdecay::server::ErrCode code = fwdecay::server::ErrCode::kNone;
      if (!pc.PollResult(ids[q], &rs, &code, &error)) {
        report->FailOp();
        report->Fail("final-poll", error);
        continue;
      }
      if (round == 0) {
        round0.push_back(std::move(rs));
      } else if (q < round0.size()) {
        const std::string m = CheckSame(rs, round0[q]);
        if (!m.empty()) {
          report->FailOp();
          report->Fail("poll-repeatable", m);
        }
      }
    }
  }
  pc.Close();
  if (round0.size() != cfg.queries.size()) {
    report->Fail("final-poll", "missing final polls");
  }
  if (cfg.reference_gate) {
    std::vector<AckedBatch> acked;
    for (const auto& a : all) acked.push_back({a.global_seq, a.pool_index});
    const std::vector<ResultSet> ref =
        ReferenceFromAcks(cfg.queries, acked, pool);
    for (std::size_t q = 0; q < round0.size() && q < ref.size(); ++q) {
      const std::string m = CheckSame(round0[q], ref[q]);
      if (!m.empty()) {
        report->FailOp();
        report->Fail("poll-vs-reference " + cfg.queries[q].name, m);
      }
    }
  }

  // --- recovery: SIGKILL + restart cycles --------------------------------
  // Every cycle starts from a graceful restart (SIGTERM drains and writes
  // a clean checkpoint) without periodic checkpoints, ingests
  // batches_per_kill batches, polls, and is killed: each restart then
  // restores the same snapshot and replays exactly those batches, so the
  // cycles are repeated trials of the same recovery work.
  std::vector<double> recovery_s, replayed;
  const std::vector<std::string> recovery_flags =
      DaemonFlags(cfg.max_groups, 0.0);
  std::uint64_t next_index = 0;
  for (int cycle = 0; cycle < kKillCycles; ++cycle) {
    report->Attempt();
    Client c;
    std::vector<ResultSet> pre, post;
    bool ok = daemon->Terminate(30.0) &&
              daemon->Start(bin, dir, recovery_flags, &error) &&
              c.Connect(daemon->port(), &error);
    for (std::size_t i = 0; ok && i < cfg.batches_per_kill; ++i) {
      fwdecay::server::IngestReply reply;
      ok = c.Ingest(i + 1, pool[next_index++ % pool.size()], &reply, &error) &&
           reply.ok;
    }
    ok = ok && PollAll(&c, ids, &pre, &error);
    c.Close();
    if (!ok) {
      report->FailOp();
      report->Fail("recovery-cycle", error);
      break;
    }
    const std::int64_t t0 = NowNs();
    daemon->Kill();
    Client rc;
    ok = daemon->Start(bin, dir, recovery_flags, &error) &&
         rc.Connect(daemon->port(), &error) && PollAll(&rc, ids, &post, &error);
    const std::int64_t t1 = NowNs();
    if (!ok) {
      report->FailOp();
      report->Fail("recovery-restart", error);
      break;
    }
    bool same = true;
    for (std::size_t q = 0; q < pre.size(); ++q) {
      const std::string m = CheckSame(post[q], pre[q]);
      if (!m.empty()) {
        report->Fail("recovered-vs-never-crashed " + cfg.queries[q].name, m);
        same = false;
      }
    }
    if (!same) {
      report->FailOp();
      continue;
    }
    recovery_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (args.trace) replayed.push_back(Scrape(*daemon).replayed);
  }
  daemon->Kill();
  RemoveTree(dir);

  // --- metrics: medians over windows (README "Statistics") ------------
  std::vector<double> poll_ms;
  std::vector<double> late_ms;
  for (const auto& p : polls) {
    if (p.due < timed_from) continue;
    poll_ms.push_back(p.latency_ms);
    late_ms.push_back(p.late_ms);
  }
  NoteSeries("ingest_pps", pass_pps);
  NoteSeries("cpu_s_per_mpkt", cpu_per_mpkt);
  NoteSeries("ack_p50_us", WindowQuantiles(ack_us, cfg.ack_window, 0.5));
  NoteSeries("ack_p90_us", WindowQuantiles(ack_us, cfg.ack_window, 0.9));
  NoteSeries("poll_p50_ms", WindowQuantiles(poll_ms, cfg.poll_window, 0.5));
  NoteSeries("poll_p90_ms", WindowQuantiles(poll_ms, cfg.poll_window, 0.9));
  NoteSeries("recovery_s", recovery_s);
  NoteSeries("setup_s", setup_s);
  report->Set("ingest_pps", Median(pass_pps), "1/s");
  report->Set("cpu_s_per_mpkt", Median(cpu_per_mpkt), "s");
  report->Set("ack_p50_us", Median(WindowQuantiles(ack_us, cfg.ack_window, 0.5)),
              "us");
  report->Set("ack_p90_us", Median(WindowQuantiles(ack_us, cfg.ack_window, 0.9)),
              "us");
  report->Set("poll_p50_ms",
              Median(WindowQuantiles(poll_ms, cfg.poll_window, 0.5)), "ms");
  report->Set("poll_p90_ms",
              Median(WindowQuantiles(poll_ms, cfg.poll_window, 0.9)), "ms");
  report->Set("recovery_s", Median(recovery_s), "s");
  report->Set("setup_s", Median(setup_s), "s");
  report->Set("peak_rss_mb", peak_rss, "MiB");
  report->Note("%s: %zu timed acks (%zu per window), %zu polls "
               "(open loop at %.0f/s, %zu per window), %zu recovery cycles, "
               "%zu set-ups, %zu acked batches in total; raw ack p50 %.1f us "
               "p90 %.1f us",
               args.workload.c_str(), ack_us.size(),
               cfg.ack_window, poll_ms.size(), cfg.poll_hz, cfg.poll_window,
               recovery_s.size(), setup_s.size(), all.size(),
               Quantile(ack_us, 0.5), Quantile(ack_us, 0.9));
  report->Note("poll generator lateness: p50 %.3f ms, p90 %.3f ms, max %.3f ms",
               Quantile(late_ms, 0.5), Quantile(late_ms, 0.9),
               Quantile(late_ms, 1.0));
  ReportPassDiagnostics(pass_pps, args.trace, report);

  if (!args.trace) return;
  // Traced and untraced windows alternate, so each covers half the run.
  report->Set("trace.overhead_frac", 1.0 - traced_pkts / untraced_pkts,
              "ratio");
  report->Set("recovery.replayed_batches", Median(replayed), "count");
  SetDaemonLayerMetrics(idle_rtt_us, probe, before, after,
                        report->Get("ack_p50_us"), report);
  LayerInputs in;
  in.batches = &pool;
  in.state_plans = cfg.queries;
  in.work_dir = args.workdir;
  RunLayerProbes(in, report);

  // Blocking steps of one ack: the client-visible round trip, waiting
  // in the ingest queue, the journal append + fsync, and the fan-out to
  // every registered plan.
  const double ack = report->Get("ack_p50_us");
  const double net = report->Get("net.stats_rtt_us");
  const double queue = report->Get("daemon.queue_wait_us");
  const double journal = report->Get("journal.append_fsync_us");
  const double fanout = report->Get("daemon.fanout_us_per_batch");
  report->Note("ack_p50_us %.1f = net %.1f (%.0f%%) + queue wait %.1f (%.0f%%) "
               "+ apply %.1f [journal %.1f (%.0f%%) + fan-out %.1f (%.0f%%) + "
               "rest]",
               ack, net, 100 * net / ack, queue, 100 * queue / ack,
               report->Get("daemon.apply_us"), journal, 100 * journal / ack,
               fanout, 100 * fanout / ack);
}

void RunDaemonLayerProbe(const Args& args, const std::vector<PacketBatch>& batches,
                         const std::vector<PlanSpec>& plans, Report* report) {
  std::vector<PlanSpec> served = plans;
  for (auto& p : served) p.tenant = "paper";
  const std::string dir = MakeDir(args.workdir, "daemon-probe");
  const std::string bin = args.bindir + "/fwdecayd";
  DaemonProc daemon;
  std::vector<std::uint64_t> ids;
  std::string error;
  if (!daemon.Start(bin, dir, DaemonFlags(4096, 0.5), &error) ||
      !RegisterAll(daemon.port(), served, &ids, &error)) {
    report->Fail("daemon-probe", error);
    return;
  }
  const double idle_rtt_us = IdleStatsRttUs(daemon.port());
  std::atomic<bool> stop{false};
  StatsProbe probe;
  std::thread stats([&] { probe.Run(daemon.port(), stop); });
  const DaemonMetrics before = Scrape(daemon);
  Client c;
  std::vector<double> ack_us;
  if (c.Connect(daemon.port(), &error)) {
    for (std::size_t i = 0; i < batches.size(); ++i) {
      fwdecay::server::IngestReply reply;
      const std::int64_t t0 = NowNs();
      if (!c.Ingest(i + 1, batches[i], &reply, &error) || !reply.ok) break;
      ack_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }
  const DaemonMetrics after = Scrape(daemon);
  stop.store(true);
  stats.join();
  SetDaemonLayerMetrics(idle_rtt_us, probe, before, after, Median(ack_us),
                        report);
  c.Close();
  daemon.Kill();
  if (daemon.Start(bin, dir, DaemonFlags(4096, 0.0), &error)) {
    report->Set("recovery.replayed_batches", Scrape(daemon).replayed, "count");
  }
  daemon.Kill();
  RemoveTree(dir);
}

}  // namespace perfbench
