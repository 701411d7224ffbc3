#!/usr/bin/env bash
# Full reproduction run: build, test, and regenerate every figure of the
# paper's evaluation plus the ablation suite. Outputs land in
# test_output.txt and bench_output.txt at the repo root.
#
# Environment knobs:
#   BUILD_DIR         build tree to (re)use            [default: build]
#   CMAKE_BUILD_TYPE  forwarded to cmake               [default: Release]
#   FWDECAY_AUDIT     ON enables the invariant-contract layer: the fuzz
#                     and property suites then run a full CheckInvariants
#                     audit after every mutating op   [default: OFF]
#   FWDECAY_METRICS   OFF compiles the self-instrumentation layer to
#                     no-ops (DESIGN.md §9)               [default: ON]
#   FWDECAY_SIMD      on | force-scalar (DESIGN.md §13.4):
#                     `force-scalar` exports FWDECAY_FORCE_SCALAR=1 so
#                     dispatch pins to the scalar arms at
#                     startup                            [default: on]
#   FWDECAY_SCHED     ON routes fwdecay::Mutex and sched::Atomic through
#                     the schedule-exploring model checker (DESIGN.md
#                     §10): tests/sched_test.cc then explores real
#                     library interleavings under weak-memory
#                     simulation. Use a dedicated BUILD_DIR — the flag
#                     changes the primitives library-wide [default: OFF]
#   FWDECAY_SCHED_SEED    passed through to the test environment: seeds
#                     the model checker's random-walk exploration so a
#                     CI failure reproduces locally (the failing
#                     schedule also prints an FWSCHED1 replay token).
#   FWDECAY_SCHED_REPLAY  passed through likewise: an FWSCHED1 token
#                     makes sched_test re-run exactly that schedule.
#   FWDECAY_SERVER    ON appends the fwdecayd serving smoke (DESIGN.md
#                     §11): scripts/server_smoke.sh starts the daemon,
#                     ingests, polls, scrapes /metrics, SIGKILLs it,
#                     restarts on the same data dir, and verifies every
#                     acknowledged batch survived       [default: OFF]
#   CMAKE_GENERATOR   only applied when BUILD_DIR is fresh; an existing
#                     tree keeps whatever generator configured it (cmake
#                     hard-errors on a generator mismatch otherwise).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
CMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}"
FWDECAY_AUDIT="${FWDECAY_AUDIT:-OFF}"
FWDECAY_METRICS="${FWDECAY_METRICS:-ON}"
FWDECAY_SIMD="${FWDECAY_SIMD:-on}"
FWDECAY_SCHED="${FWDECAY_SCHED:-OFF}"
FWDECAY_SERVER="${FWDECAY_SERVER:-OFF}"
# FWDECAY_SCHED_SEED / FWDECAY_SCHED_REPLAY are read by sched_test and
# pipeline_test at runtime; being exported here is all the passthrough
# they need.
export FWDECAY_SCHED_SEED="${FWDECAY_SCHED_SEED:-}"
export FWDECAY_SCHED_REPLAY="${FWDECAY_SCHED_REPLAY:-}"

case "${FWDECAY_SIMD}" in
  on|ON) ;;
  force-scalar) export FWDECAY_FORCE_SCALAR=1 ;;
  *) echo "FWDECAY_SIMD must be on or force-scalar" >&2; exit 2 ;;
esac

CMAKE_ARGS=(-B "${BUILD_DIR}" -S . "-DCMAKE_BUILD_TYPE=${CMAKE_BUILD_TYPE}"
            "-DFWDECAY_AUDIT=${FWDECAY_AUDIT}"
            "-DFWDECAY_METRICS=${FWDECAY_METRICS}"
            "-DFWDECAY_SCHED=${FWDECAY_SCHED}")
if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  # Fresh tree: prefer Ninja when available, else CMake's default
  # (Makefiles — what README and the tier-1 line use).
  if [[ -n "${CMAKE_GENERATOR:-}" ]]; then
    CMAKE_ARGS+=(-G "${CMAKE_GENERATOR}")
  elif command -v ninja >/dev/null 2>&1; then
    CMAKE_ARGS+=(-G Ninja)
  fi
fi

cmake "${CMAKE_ARGS[@]}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"

ctest --test-dir "${BUILD_DIR}" --output-on-failure 2>&1 | tee test_output.txt

{
  for b in "${BUILD_DIR}"/bench/bench_fig*; do "$b"; done
  "./${BUILD_DIR}/bench/bench_micro"
} 2>&1 | tee bench_output.txt

if [[ "${FWDECAY_SERVER}" == "ON" ]]; then
  BUILD_DIR="${BUILD_DIR}" scripts/server_smoke.sh 2>&1 \
    | tee server_smoke_output.txt
fi
