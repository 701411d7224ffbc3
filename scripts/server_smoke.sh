#!/usr/bin/env bash
# End-to-end fwdecayd smoke: start the daemon, register + ingest + poll
# through examples/serving_quickstart, scrape /metrics, SIGKILL the
# process mid-life, restart it on the same data dir, and verify every
# acknowledged batch survived. Then a SIGTERM drain must exit 0.
#
# This is the crash-recovery contract of DESIGN.md §11.3 exercised
# against the real binary from the outside — the in-tree twin of
# tests/server_crash_test.cc, run by CI (natively in build-test, under
# ASan/UBSan in asan-ubsan) and by `FWDECAY_SERVER=ON scripts/reproduce.sh`.
#
# Environment knobs:
#   BUILD_DIR   build tree holding fwdecayd + serving_quickstart
#               [default: build]
#   PORT_BASE   ingest port; metrics is PORT_BASE+1  [default: derived
#               from PID so parallel CI jobs do not collide]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
PORT_BASE="${PORT_BASE:-$((20000 + ($$ % 20000)))}"
METRICS_PORT=$((PORT_BASE + 1))

DAEMON="${BUILD_DIR}/src/server/fwdecayd"
CLIENT="${BUILD_DIR}/examples/serving_quickstart"
for bin in "${DAEMON}" "${CLIENT}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "server_smoke: missing ${bin} (build first)" >&2
    exit 1
  fi
done

DATA_DIR="$(mktemp -d)"
LOG="${DATA_DIR}/fwdecayd.log"
DAEMON_PID=""
cleanup() {
  [[ -n "${DAEMON_PID}" ]] && kill -9 "${DAEMON_PID}" 2>/dev/null || true
  rm -rf "${DATA_DIR}"
}
trap cleanup EXIT

start_daemon() {
  "${DAEMON}" --data-dir "${DATA_DIR}" --port "${PORT_BASE}" \
      --metrics-port "${METRICS_PORT}" --checkpoint-interval 2 \
      >>"${LOG}" 2>&1 &
  DAEMON_PID=$!
  # The banner is the readiness signal: both listeners are bound (and,
  # on restart, recovery has already completed) once it prints.
  for _ in $(seq 1 100); do
    grep -q "fwdecayd metrics on" "${LOG}" && return 0
    kill -0 "${DAEMON_PID}" 2>/dev/null || break
    sleep 0.1
  done
  echo "server_smoke: daemon failed to start; log follows" >&2
  cat "${LOG}" >&2
  exit 1
}

scrape() {  # scrape <metric-name-regex>
  python3 - "${METRICS_PORT}" "$1" <<'EOF'
import re, sys, urllib.request
port, pattern = sys.argv[1], sys.argv[2]
body = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
hits = [l for l in body.splitlines()
        if re.match(pattern, l) and not l.startswith("#")]
if not hits:
    sys.exit(f"metric {pattern!r} missing from /metrics scrape")
print("\n".join(hits))
EOF
}

echo "== start (data dir ${DATA_DIR}, ports ${PORT_BASE}/${METRICS_PORT})"
start_daemon

echo "== register + ingest 5 batches + poll"
"${CLIENT}" "${PORT_BASE}" --batches 5

echo "== scrape /metrics"
scrape 'fwdecay_server_batches_acked_total 5(\.0+)?$'
scrape 'fwdecay_server_registered_queries'

echo "== SIGKILL mid-life"
kill -9 "${DAEMON_PID}"
wait "${DAEMON_PID}" 2>/dev/null || true
: >"${LOG}"

echo "== restart on the same data dir"
start_daemon

echo "== verify: recovered query answers, all 5 acked batches survived"
"${CLIENT}" "${PORT_BASE}" --no-register --min-acked 5 \
    --batches 2 --seq-start 6
# Counters are per-process: the restarted daemon acked exactly the two
# post-restart batches (the five recovered ones live in WireStats /
# the snapshot watermark, which --min-acked just checked).
scrape 'fwdecay_server_recoveries_total 1(\.0+)?$'
scrape 'fwdecay_server_batches_acked_total 2(\.0+)?$'

echo "== SIGTERM drain must exit 0"
kill -TERM "${DAEMON_PID}"
wait "${DAEMON_PID}"
DAEMON_PID=""
grep -q "clean shutdown" "${LOG}"

echo "server_smoke: OK"
