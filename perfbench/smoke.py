"""Smoke tests of the benchmark itself: every workload, briefly.

Each run measures for 2 s; most of its 15-40 s goes into building the
report stream from the paper datasets and, for the ingest workloads,
into the 20 timed server launches.

Run from the checkout root::

    python3 perfbench/smoke.py

For every workload, listed in BENCHMARK.json or not, it runs ``run.py``
briefly with tracing off and on, and checks that every correctness gate
passed and the run exited 0, that the JSON line carries exactly the
BENCHMARK.json metrics with their units, and that the tables name every
metric and stage of the workload.  ``sweep-paper`` may fail only its
known byte-identity gate (see README.md).  Last, it checks that the
benchmark refuses to run without the sources.  Exits non-zero on the
first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import common

#: Names each workload's tables must print, untraced (0) and traced
#: (1): the metric names the README documents and the traced stage
#: (span) names.
NAMED = {
    "ingest-batched": {
        0: ["setup_s", "reports_per_s", "server_cpu_us_per_report",
            "ack_p50_ms", "ack_p", "peak_rss_mb"],
        1: ["serve.wire.decode_payload", "serve.wire.report_from_wire",
            "core.validation.validate", "geo.zones.zone_id_for",
            "core.controller.ingest", "serve.wal.append_many",
            "serve.wal.sync", "serve.wire.encode_frame",
            "serve.server transport (residual)"],
    },
    "store-live": {
        0: ["setup_s", "store_ingest_reports_per_s", "refresh_p50_ms",
            "refresh_p90_ms", "peak_rss_mb"],
        1: ["store.writers.ingest_reports", "store.queries.replay_snapshot",
            "store.queries.coverage", "store.queries.slo_attainment"],
    },
    "sweep-paper": {
        0: ["setup_s", "sweep_wall_s", "sweep_cpu_s", "peak_rss_mb"],
        1: ["sweep.scenarios.prewarm_shared_landscapes",
            "sweep.runner.run_cell", "sweep.reduce.merge_cells",
            "sweep.runner.worker_idle_frac"],
    },
}
NAMED["ingest-single"] = NAMED["ingest-batched"]
#: Gates known to fail at this commit, per workload (see README.md).
KNOWN_FAILURES = {
    "sweep-paper": ("2-worker merged artifacts == 1-worker run",),
}
SECONDS = "2"


def _run(cwd: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check(workload: str, trace: int, spec: dict) -> None:
    proc = _run(common.ROOT, workload, trace)
    out = proc.stdout
    where = f"{workload} --trace {trace}"
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{where}: no JSON result line\n{out}\n"
                         f"{proc.stderr}")
    failed = [line.split("]", 1)[1].strip() for line in out.splitlines()
              if line.strip().startswith("[FAIL]")]
    known = KNOWN_FAILURES.get(workload, ())
    unknown = [g for g in failed if not any(g.startswith(k) for k in known)]
    if unknown:
        raise SystemExit(f"{where}: failing gates {unknown}\n{proc.stderr}")
    if not failed and (proc.returncode != 0 or not result["correct"]):
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"{where}: metrics {sorted(got)} != "
                         f"BENCHMARK.json {sorted(want)}")
    for name in want:
        if f"  {name} " not in out:
            raise SystemExit(f"{where}: table lacks {name}")
    for name in NAMED[workload][trace]:
        if name not in out:
            raise SystemExit(f"{where}: output never names {name}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise SystemExit(f"{where}: bad attempted {result['attempted']}")
    status = "ok" if not failed else "known failing gate"
    print(f"  {where}: {status} (attempted={result['attempted']}, "
          f"failed={result['failed']})")


def check_without_sources() -> None:
    """In a directory with only BENCHMARK.json and perfbench/, fail."""
    bare = os.path.join(common.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(common.ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "ingest-batched", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("without sources the benchmark must fail "
                             "without printing a result")
        print(f"  without sources: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in NAMED:
        for trace in (0, 1):
            check(workload, trace, spec)
    check_without_sources()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
