#!/usr/bin/env python3
"""Bench-smoke regression gate for the batched ingest path.

`bench_ingest` appends one JSON object per line to BENCH_ingest.json,
and the file is committed — so after a CI run the file is the committed
baseline rows followed by the rows this run just measured. This gate
compares each *fresh* `"mode":"batched"` or `"mode":"pipeline"` row
against the most recent *committed* row measured under the same
conditions — same mode, same `"shards"` count, same `"simd"` dispatch
arm, same `"metrics"` setting, same `"pipeline"` generation (a
generation switch is a rewrite, not a regression), and same `"nproc"`
(a 2-shard run on a 1-core box and on an 8-core box measure different
machines, not a regression) — and fails when ns/packet regressed by
more than --max-regression (default 10%). Committed `"mode":"sharded"`
rows ("router-v1", the retired mutex router) stay in the file as
history; no fresh row can match them.

Rows without a `"simd"` field (measured before the dispatch layer
existed) are never used as baselines: the gate arms itself the first
time post-SIMD rows are committed. A fresh row with no
matching-condition baseline passes vacuously, loudly.

Usage: scripts/check_bench.py [--json BENCH_ingest.json] [--ref HEAD]
                              [--max-regression 0.10]
Exit status 0 when within budget (or no baseline), 1 on regression.
"""

import argparse
import json
import pathlib
import subprocess
import sys


def parse_rows(text):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if row.get("bench") == "ingest":
            rows.append(row)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default="BENCH_ingest.json")
    ap.add_argument("--ref", default="HEAD",
                    help="git ref holding the committed baseline file")
    ap.add_argument("--max-regression", type=float, default=0.10)
    args = ap.parse_args()

    path = pathlib.Path(args.json)
    current = parse_rows(path.read_text(encoding="utf-8"))

    show = subprocess.run(
        ["git", "show", f"{args.ref}:{args.json}"],
        capture_output=True, text=True)
    committed = parse_rows(show.stdout) if show.returncode == 0 else []

    fresh = current[len(committed):]
    gated_modes = ("batched", "pipeline")
    fresh_gated = [r for r in fresh if r.get("mode") in gated_modes]
    if not fresh_gated:
        print("check_bench.py: no fresh gated rows to gate [OK]")
        return 0

    def conditions(row):
        # Baseline key: a comparison is only meaningful between rows
        # that measured the same code path on the same machine shape.
        return (row.get("mode"), row.get("shards"), row.get("simd"),
                row.get("metrics"), row.get("pipeline"),
                row.get("nproc"))

    failures = 0
    for row in fresh_gated:
        if row.get("simd") is None:
            print(f"check_bench.py: fresh row has no simd field, skipping: "
                  f"{row}")
            continue
        key = conditions(row)
        baseline = None
        for cand in committed:
            if conditions(cand) == key:
                baseline = cand  # last match wins: most recent commit
        label = (f"{row['mode']} shards={row.get('shards')} "
                 f"simd={row.get('simd')} metrics={row.get('metrics')} "
                 f"pipeline={row.get('pipeline')} nproc={row.get('nproc')}")
        if baseline is None:
            print(f"check_bench.py: no committed baseline for {label} — "
                  f"passing vacuously "
                  f"(fresh: {row['ns_per_packet']:.2f} ns/packet)")
            continue
        limit = baseline["ns_per_packet"] * (1.0 + args.max_regression)
        verdict = "OK" if row["ns_per_packet"] <= limit else "REGRESSION"
        print(f"check_bench.py: {label}: "
              f"{row['ns_per_packet']:.2f} ns/packet vs baseline "
              f"{baseline['ns_per_packet']:.2f} "
              f"(limit {limit:.2f}) [{verdict}]")
        if verdict != "OK":
            failures += 1

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
