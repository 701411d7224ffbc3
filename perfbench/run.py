#!/usr/bin/env python3
"""fwdecay benchmark: builds the benchmark binary and fwdecayd, runs one workload.

    python3 perfbench/run.py --workload engine_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Build outputs go to .bench_build/ (or
$CARGO_TARGET_DIR); each run's data directories live under
.bench_build/run/<pid>/ and are removed on every exit path. The last line
of stdout is the JSON result; build output goes to stderr. See
perfbench/README.md for the workloads, metrics and statistics.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
RUN_ROOT = os.path.join(BUILD, "run")
TRACE_ROOT = os.path.join(BUILD, "traces")
BINARY = os.path.join(BUILD, "perfbench")
DAEMON_DIR = os.path.join(BUILD, "fwdecay", "src", "server")
WORKLOADS = ("engine_paper", "engine_wide", "serve_ingest", "serve_state")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures, then brings the benchmark binary and fwdecayd up to date."""
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no fwdecay sources in %s (missing %s)" % (ROOT, required))
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "fwdecayd"]]
        for step in steps:
            if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
                fail("build step failed: " + " ".join(step))


def pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def clean_stale_runs():
    """Removes run dirs (and kills daemons) left by runs that died."""
    if not os.path.isdir(RUN_ROOT):
        return
    for name in os.listdir(RUN_ROOT):
        path = os.path.join(RUN_ROOT, name)
        if name.isdigit() and pid_alive(int(name)):
            continue
        kill_daemons_under(path)
        shutil.rmtree(path, ignore_errors=True)


def kill_daemons_under(path):
    """SIGKILLs daemons listed in the run's pid ledger that still run."""
    ledger = os.path.join(path, "daemons.pid")
    if not os.path.isfile(ledger):
        return
    with open(ledger) as f:
        pids = [int(line) for line in f if line.strip().isdigit()]
    for pid in pids:
        try:
            with open("/proc/%d/cmdline" % pid, "rb") as f:
                argv = f.read().split(b"\0")
        except OSError:
            continue
        # Only a fwdecayd serving a data dir of this run (pids get reused).
        if argv and argv[0].endswith(b"fwdecayd") and any(
                arg.startswith(path.encode()) for arg in argv):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that every correctness gate trips on a "
                             "corrupted reference")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.call([BINARY, "--selftest"]))

    clean_stale_runs()
    workdir = os.path.join(RUN_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(TRACE_ROOT, exist_ok=True)
    trace_out = os.path.join(TRACE_ROOT, args.workload + ".jsonl")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--bindir", DAEMON_DIR,
           "--trace-out", trace_out]
    child = subprocess.Popen(cmd)

    def forward(signo, _frame):
        # The benchmark binary SIGKILLs and reaps its daemons before it exits.
        child.send_signal(signo)

    for signo in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signo, forward)
    try:
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        kill_daemons_under(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code if code >= 0 else 128 - code)


if __name__ == "__main__":
    main()
