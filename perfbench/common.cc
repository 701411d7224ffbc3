#include "common.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double NowSec() { return static_cast<double>(NowNs()) * 1e-9; }

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SelfCpuSec() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> WindowQuantiles(const std::vector<double>& samples,
                                    std::size_t window, double q) {
  std::vector<double> out;
  for (std::size_t i = 0; i + window <= samples.size(); i += window) {
    out.push_back(Quantile(std::vector<double>(samples.begin() + i,
                                               samples.begin() + i + window),
                           q));
  }
  return out;
}

void NoteSeries(const char* metric, const std::vector<double>& series) {
  std::printf("series %-16s n %4zu p5 %.6g p25 %.6g p50 %.6g p75 %.6g p95 %.6g\n",
              metric, series.size(), Quantile(series, 0.05),
              Quantile(series, 0.25), Quantile(series, 0.5),
              Quantile(series, 0.75), Quantile(series, 0.95));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- Report -------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

bool Report::Has(const std::string& name) const {
  return metrics_.count(name) != 0;
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Note(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

void Report::Fail(const std::string& gate, const std::string& detail) {
  ++gate_failures_;
  std::fprintf(stderr, "perfbench: GATE FAILED [%s]: %s\n", gate.c_str(),
               detail.c_str());
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    double v = it->second.value;
    if (!std::isfinite(v)) v = 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << it->second.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void ReportPassDiagnostics(const std::vector<double>& pass_pps, bool traced,
                           Report* report) {
  const double p10 = Quantile(pass_pps, 0.1);
  const double p50 = Quantile(pass_pps, 0.5);
  const double p90 = Quantile(pass_pps, 0.9);
  report->Note("bench.pass_pps p10 %.6g p50 %.6g p90 %.6g over %zu passes "
               "(p90/p10 %.3f: a ratio near 1.7 means the run straddled the "
               "host's slow and fast phases)",
               p10, p50, p90, pass_pps.size(), p10 > 0 ? p90 / p10 : 0.0);
  if (!traced) return;
  report->Set("bench.pass_pps_p10", p10, "1/s");
  report->Set("bench.pass_pps_p50", p50, "1/s");
  report->Set("bench.pass_count", static_cast<double>(pass_pps.size()),
              "count");
}

// --- Tracer ------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

namespace {
std::atomic<bool> g_trace_active{false};
thread_local void* t_buffer = nullptr;
}  // namespace

void Tracer::Configure(bool enabled, std::uint64_t run_id) {
  enabled_ = enabled;
  run_id_ = run_id;
  g_trace_active.store(enabled);
}

void Tracer::SetActive(bool active) {
  g_trace_active.store(enabled_ && active, std::memory_order_relaxed);
}

bool Tracer::active() const {
  return g_trace_active.load(std::memory_order_relaxed);
}

Tracer::Buffer* Tracer::ThisThread() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread_index =
        static_cast<std::uint32_t>(buffers_.size() - 1);
    buffers_.back()->spans.reserve(1 << 16);
    t_buffer = buffers_.back().get();
  }
  return static_cast<Buffer*>(t_buffer);
}

std::int32_t Tracer::Begin(const char* name) {
  Buffer* b = ThisThread();
  SpanRec rec{name, NowNs(), 0, 0,
              b->stack.empty() ? -1 : b->stack.back()};
  b->spans.push_back(rec);
  const auto index = static_cast<std::int32_t>(b->spans.size() - 1);
  b->stack.push_back(index);
  return index;
}

void Tracer::End(std::int32_t index) {
  Buffer* b = ThisThread();
  SpanRec& rec = b->spans[static_cast<std::size_t>(index)];
  rec.end_ns = NowNs();
  if (!b->stack.empty() && b->stack.back() == index) b->stack.pop_back();
  if (rec.parent >= 0) {
    b->spans[static_cast<std::size_t>(rec.parent)].child_ns +=
        rec.end_ns - rec.start_ns;
  }
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Totals> out;
  for (const auto& b : buffers_) {
    for (const auto& s : b->spans) {
      if (s.end_ns == 0) continue;
      Totals& t = out[s.name];
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      t.total_ns += d;
      t.self_ns += d - static_cast<double>(s.child_ns);
      t.count += 1;
    }
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& b : buffers_) {
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRec& s = b->spans[i];
      if (s.end_ns == 0) continue;
      std::fprintf(f,
                   "{\"run\": %llu, \"thread\": %u, \"id\": %zu, \"name\": "
                   "\"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %d}\n",
                   static_cast<unsigned long long>(run_id_), b->thread_index,
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
  }
  return std::fclose(f) == 0;
}

// --- /proc ------------------------------------------------------------

double ProcCpuSec(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/stat" : "/proc/" + std::to_string(pid) + "/stat";
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcStatusMiB(pid_t pid, const char* field) {
  const std::string path = pid == 0 ? "/proc/self/status"
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::atof(line.c_str() + n) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::vector<fwdecay::dsms::PacketBatch> GenerateBatches(
    const fwdecay::dsms::TraceConfig& config, std::size_t count,
    std::size_t batch_packets) {
  fwdecay::dsms::PacketGenerator gen(config);
  std::vector<fwdecay::dsms::PacketBatch> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.emplace_back(batch_packets);
    gen.NextBatch(&out.back(), batch_packets);
  }
  return out;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// --- child processes ---------------------------------------------------

namespace {

constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void TrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
}

void UntrackChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void KillChildrenAndExit(int signo) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) {
      kill(pid, SIGKILL);
      int status = 0;
      waitpid(pid, &status, 0);
    }
  }
  _exit(128 + signo);
}

}  // namespace

void InstallSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = KillChildrenAndExit;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGHUP, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);
}

bool DaemonProc::Start(const std::string& bin, const std::string& data_dir,
                       const std::vector<std::string>& flags,
                       std::string* error) {
  Kill();
  int out_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> argv_s = {bin, "--data-dir", data_dir, "--port",
                                     "0", "--metrics-port", "0"};
  argv_s.insert(argv_s.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(out_pipe[0]);
    close(out_pipe[1]);
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out_pipe[1], STDOUT_FILENO);
    signal(SIGPIPE, SIG_DFL);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out_pipe[1]);
  pid_ = pid;
  TrackChild(pid);
  // Pid ledger beside the data dirs, so a later run can reap a daemon
  // this process could not (run.py reads it).
  const std::string ledger =
      std::filesystem::path(data_dir).parent_path().string() + "/daemons.pid";
  if (std::FILE* f = std::fopen(ledger.c_str(), "a")) {
    std::fprintf(f, "%d\n", static_cast<int>(pid));
    std::fclose(f);
  }

  // Banner: "fwdecayd listening on 127.0.0.1:<p>" then the metrics line.
  std::string text;
  const double deadline = NowSec() + 20.0;
  bool have_both = false;
  while (!have_both && NowSec() < deadline) {
    pollfd pfd{out_pipe[0], POLLIN, 0};
    const int rc = poll(&pfd, 1, 100);
    if (rc <= 0) continue;
    char buf[512];
    const ssize_t n = read(out_pipe[0], buf, sizeof(buf));
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
    const auto a = text.find("listening on 127.0.0.1:");
    const auto b = text.find("/metrics");
    have_both = a != std::string::npos && b != std::string::npos;
  }
  close(out_pipe[0]);
  if (!have_both) {
    *error = "fwdecayd did not print its banner: " + text;
    Kill();
    return false;
  }
  port_ = static_cast<std::uint16_t>(std::atoi(
      text.c_str() + text.find("listening on 127.0.0.1:") + 23));
  const auto m = text.find("http://127.0.0.1:");
  metrics_port_ =
      static_cast<std::uint16_t>(std::atoi(text.c_str() + m + 17));
  return true;
}

void DaemonProc::Kill() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  UntrackChild(pid_);
  pid_ = -1;
}

bool DaemonProc::Terminate(double timeout_s) {
  if (pid_ <= 0) return true;
  kill(pid_, SIGTERM);
  const double deadline = NowSec() + timeout_s;
  while (NowSec() < deadline) {
    int status = 0;
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      UntrackChild(pid_);
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    usleep(2000);
  }
  Kill();
  return false;
}

// --- /metrics scrape ---------------------------------------------------

bool ScrapeMetrics(std::uint16_t port, std::map<std::string, double>* out,
                   std::string* error) {
  out->clear();
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = "socket failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval tv{5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    close(fd);
    return false;
  }
  const char req[] = "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (send(fd, req, sizeof(req) - 1, 0) !=
      static_cast<ssize_t>(sizeof(req) - 1)) {
    *error = "send failed";
    close(fd);
    return false;
  }
  std::string body;
  char buf[16384];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    body.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  const auto start = body.find("\r\n\r\n");
  if (start == std::string::npos) {
    *error = "no HTTP body";
    return false;
  }
  std::istringstream lines(body.substr(start + 4));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    (*out)[line.substr(0, sp)] = std::atof(line.c_str() + sp + 1);
  }
  return !out->empty();
}

double MetricOr(const std::map<std::string, double>& m, const std::string& key,
                double fallback) {
  auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

}  // namespace perfbench
