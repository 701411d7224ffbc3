// Shared pieces of the fwdecay benchmark: statistics, the result
// report, span tracing, /proc readers and the fwdecayd child process.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsms/batch.h"
#include "dsms/netgen.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // per-run working dir (data dirs, journal probes)
  std::string bindir;   // holds the fwdecayd binary
  std::string trace_out;  // span dump written at exit (trace mode)
};

// Monotonic clock readings.
double NowSec();
std::int64_t NowNs();
// CPU seconds of this process (all threads).
double SelfCpuSec();

// q in [0, 1], linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Mean(const std::vector<double>& v);

// Prints the quartiles and 5th/95th percentiles of the per-pass or
// per-window series behind `metric`'s median: they show which host
// phase a run fell in.
void NoteSeries(const char* metric, const std::vector<double>& series);

// Splits time-ordered samples into consecutive windows of `window` and
// returns each full window's q-quantile.
std::vector<double> WindowQuantiles(const std::vector<double>& samples,
                                    std::size_t window, double q);

// Collects metrics, counts operations and failed correctness gates, and
// prints the one-line JSON result.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  // Prints a human-readable diagnostic line to stdout.
  void Note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  // Records a failed correctness gate; the caller counts the failed
  // operation with FailOp().
  void Fail(const std::string& gate, const std::string& detail);
  void Attempt(std::uint64_t n = 1) { attempted_ += n; }
  void FailOp(std::uint64_t n = 1) { failed_ += n; }
  bool correct() const { return gate_failures_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  // The result object, restricted to `names` (in that order).
  std::string Json(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t gate_failures_ = 0;
};

// Host-phase diagnostics over a per-pass throughput series: printed in
// every run, and reported as bench.pass_* in the traced run.
void ReportPassDiagnostics(const std::vector<double>& pass_pps, bool traced,
                           Report* report);

// In-memory span recorder. Spans are kept per thread (no locking on the
// record path) and written out once at exit. A layer's self time is its
// span's duration minus the time its child spans cover.
class Tracer {
 public:
  struct SpanRec {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t child_ns;  // time covered by direct children
    std::int32_t parent;    // index in the same thread buffer, -1 = root
  };

  static Tracer& Get();
  void Configure(bool enabled, std::uint64_t run_id);
  // Gates recording at runtime (alternating traced/untraced windows).
  void SetActive(bool active);
  bool active() const;

  std::int32_t Begin(const char* name);
  void End(std::int32_t index);

  // Aggregates over every thread: total and self time, and span count.
  struct Totals {
    double total_ns = 0;
    double self_ns = 0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const;
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<SpanRec> spans;
    std::vector<std::int32_t> stack;
    std::uint32_t thread_index = 0;
  };
  Buffer* ThisThread();

  bool enabled_ = false;
  std::uint64_t run_id_ = 0;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span; free when tracing is off or inactive.
class Span {
 public:
  explicit Span(const char* name)
      : index_(Tracer::Get().active() ? Tracer::Get().Begin(name) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

// /proc readers for a process (pid 0 = self).
double ProcCpuSec(pid_t pid);                  // utime + stime
double ProcStatusMiB(pid_t pid, const char* field);  // e.g. "VmHWM:"

// Generates `count` batches of `batch_packets` from a seeded netgen trace.
std::vector<fwdecay::dsms::PacketBatch> GenerateBatches(
    const fwdecay::dsms::TraceConfig& config, std::size_t count,
    std::size_t batch_packets = fwdecay::dsms::PacketBatch::kDefaultCapacity);

// Removes a directory tree; never throws.
void RemoveTree(const std::string& path);

// Installs SIGTERM/SIGINT/SIGHUP handlers that SIGKILL and reap every
// live child, then exit; and ignores SIGPIPE.
void InstallSignalHandlers();

// fwdecayd as a child process on ephemeral ports.
class DaemonProc {
 public:
  DaemonProc() = default;
  ~DaemonProc() { Kill(); }
  DaemonProc(const DaemonProc&) = delete;
  DaemonProc& operator=(const DaemonProc&) = delete;

  // Spawns `bin --data-dir dir <flags>` and waits for its listening
  // banner. The child dies with this process (PR_SET_PDEATHSIG).
  bool Start(const std::string& bin, const std::string& data_dir,
             const std::vector<std::string>& flags, std::string* error);
  // SIGKILL + reap. Idempotent.
  void Kill();
  // SIGTERM (drain + final checkpoint) + reap; SIGKILL after timeout.
  bool Terminate(double timeout_s);

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }
  std::uint16_t metrics_port() const { return metrics_port_; }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;
};

// GET /metrics from a daemon; keys are the full series names including
// labels (e.g. `fwdecay_server_apply_ns{quantile="0.5"}`).
bool ScrapeMetrics(std::uint16_t port, std::map<std::string, double>* out,
                   std::string* error);
double MetricOr(const std::map<std::string, double>& m, const std::string& key,
                double fallback);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
