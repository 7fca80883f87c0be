"""sweep-paper: a fixed grid of paper cells through ``SweepRunner``.

The grid is the multi-network driving comparison of paper §4.2 (five
multi-SIM strategies and two MAR schedulers) plus the budgeted-vs-greedy
scheduler ablation, on the world of the workload seed.  It runs with
``WORKERS`` worker processes and is merged, again and again until
``--seconds`` have passed; the metrics are medians over those sweeps.
``radio``, ``network.channel``, ``clients``, ``core.controller`` and
``apps`` do the work; serve and store are idle.

Gate: every sweep's merged ``summary.jsonl`` and ``metrics.json`` are
byte-identical to those of a 1-worker run of the same grid and seed.
With ``--trace 1`` that 1-worker reference is the traced in-process
run: ``run_cell`` for each cell in order, then ``merge_cells``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import time
from typing import Dict, List, Tuple

from common import (
    Result,
    Tracer,
    median,
    save_spans,
    span_cost_s,
    work_dir,
)

from repro.sweep import SweepGrid, SweepRunner
from repro.sweep import scenarios
from repro.sweep.reduce import merge_cells
from repro.sweep.runner import run_cell

WORKERS = 2
#: Sweep runner set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: The merged artifacts the gate compares byte for byte.
MERGED = ("summary.jsonl", "metrics.json")

E2E_LABELS = {
    "setup_s": "setup_s: runner start + landscape prewarm",
    "ops_per_s": "cells / sweep_wall_s (first dispatch -> merged on disk)",
    "cpu_us_per_op": "sweep_cpu_s per cell: parent + reaped workers",
    "p50_ms": "median cell wall time inside the workers",
    "tail_ms": "slowest cell of a sweep (it sets the tail on 2 workers)",
    "peak_rss_mb": "peak_rss_mb: VmHWM of the largest sweep worker",
}


class PaperGrid(SweepGrid):
    """The driving grid and the scheduler ablation as one sweep."""

    def __init__(self, seed: int):
        super().__init__("perfbench-paper", ["driving"], seeds=[seed])
        self.parts = [
            SweepGrid(
                "driving", ["driving"], seeds=[seed],
                cells=(
                    [{"mode": "multisim", "strategy": s}
                     for s in scenarios.MULTISIM_STRATEGIES]
                    + [{"mode": "mar", "strategy": s}
                       for s in ("round-robin", "wiscape")]
                ),
                base={"survey_days": 1},
            ),
            SweepGrid(
                "ablation-scheduler", ["ablation_scheduler"], seeds=[seed],
                matrix={"policy": ["budgeted", "greedy"]},
                base={"hours": 2.0, "n_buses": 3},
            ),
        ]

    def cells(self):
        return [c for part in self.parts for c in part.cells()]

    def __len__(self) -> int:
        return sum(len(p) for p in self.parts)

    def to_dict(self) -> dict:
        return {"name": self.name,
                "parts": [p.to_dict() for p in self.parts]}


def _cpu_s() -> float:
    """CPU of this process plus every worker it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _merged_bytes(out_dir: str) -> Dict[str, bytes]:
    out = {}
    for name in MERGED:
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        res: Result) -> List[Tuple[str, List[List[str]]]]:
    grid = PaperGrid(seed)
    n_cells = len(grid)
    root = work_dir(workload)
    try:
        return _run(grid, n_cells, root, workload, seed, seconds, trace, res)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run(grid: PaperGrid, n_cells: int, root: str, workload: str, seed: int,
         seconds: float, trace: bool,
         res: Result) -> List[Tuple[str, List[List[str]]]]:
    key = ("landscape", seed, True, True)
    setups = []
    for _ in range(SETUP_REPEATS):
        # Drop the shared world so each set-up builds it again.
        scenarios._SHARED_LANDSCAPES.pop(key, None)
        t0 = time.perf_counter()
        SweepRunner(grid, os.path.join(root, "setup"), workers=WORKERS)
        scenarios.prewarm_shared_landscapes([seed])
        setups.append(time.perf_counter() - t0)

    walls: List[float] = []
    cpus: List[float] = []
    cells_s: List[float] = []
    maxima: List[float] = []
    merged: List[Dict[str, bytes]] = []
    ok = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 1 or time.perf_counter() < deadline:
        out = os.path.join(root, f"sweep{k}")
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        result = SweepRunner(grid, out, workers=WORKERS).run()
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
        ok += result.ok
        durations = _durations(out)
        cells_s.extend(durations)
        maxima.append(max(durations))
        merged.append(_merged_bytes(out))
        shutil.rmtree(out, ignore_errors=True)
        k += 1
    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    ref_dir = os.path.join(root, "reference")
    tables: List[Tuple[str, List[List[str]]]] = []
    if trace:
        table, cells_ok = _traced(grid, ref_dir, median(walls), res,
                                  workload, seed)
        tables.append(("per-layer stage table (traced run)", table))
        ok += cells_ok
    else:
        reference = SweepRunner(grid, ref_dir, workers=1).run()
        ok += reference.ok
    ref = _merged_bytes(ref_dir)
    differ = sorted({name for m in merged for name in MERGED
                     if m[name] != ref[name]})
    res.gate(f"{WORKERS}-worker merged artifacts == 1-worker run",
             not differ,
             f"{len(merged)} sweep(s) of {n_cells} cells, "
             f"{' and '.join(MERGED)} compared byte for byte"
             + (f"; {', '.join(differ)} differ" if differ else ""))
    attempted = n_cells * (len(merged) + 1)
    res.gate("every cell ok", ok == attempted, f"{ok}/{attempted} ok")
    res.attempted = attempted
    res.failed = attempted - ok

    res.metric("setup_s", median(setups), "s", len(setups),
               E2E_LABELS["setup_s"])
    res.metric("ops_per_s", n_cells / median(walls), "1/s", len(walls),
               E2E_LABELS["ops_per_s"])
    res.metric("cpu_us_per_op", median(cpus) / n_cells * 1e6, "us",
               len(cpus), E2E_LABELS["cpu_us_per_op"])
    res.metric("p50_ms", median(cells_s) * 1e3, "ms", len(cells_s),
               E2E_LABELS["p50_ms"])
    res.metric("tail_ms", median(maxima) * 1e3, "ms", len(maxima),
               E2E_LABELS["tail_ms"])
    res.metric("peak_rss_mb", peak_rss, "MB", 1, E2E_LABELS["peak_rss_mb"])
    res.notes.append(
        f"{len(walls)} sweep(s) of {n_cells} cells on {WORKERS} workers; "
        f"sweep_wall_s median {median(walls):.3f}, sweep_cpu_s median "
        f"{median(cpus):.3f}")
    return tables


def _durations(out_dir: str) -> List[float]:
    """Per-cell wall seconds the runner recorded in sweep_status.json."""
    with open(os.path.join(out_dir, "sweep_status.json"), "r",
              encoding="utf-8") as fh:
        return list(json.load(fh)["durations_s"].values())


def _traced(grid: PaperGrid, ref_dir: str, wall_s: float, res: Result,
            workload: str, seed: int) -> Tuple[List[List[str]], int]:
    """The 1-worker reference sweep, in process, one span per call.

    Returns the stage table and the number of cells recorded ``ok``.
    """
    tracer = Tracer()
    t0 = time.perf_counter()
    scenarios._SHARED_LANDSCAPES.pop(("landscape", seed, True, True), None)
    i = tracer.begin("sweep.scenarios.prewarm_shared_landscapes")
    scenarios.prewarm_shared_landscapes([seed])
    tracer.end(i)
    ctx = scenarios.WorkerContext()
    for cell in grid.cells():
        tracer.group += 1
        i = tracer.begin("sweep.runner.run_cell")
        record = run_cell(cell, ctx, ref_dir)
        tracer.end(i)
        tracer.count("cells_ok", int(record["status"] == "ok"))
    i = tracer.begin("sweep.reduce.merge_cells")
    merge_cells(ref_dir)
    tracer.end(i)
    traced_wall = time.perf_counter() - t0

    cells = tracer.durations("sweep.runner.run_cell")
    merge_s = tracer.durations("sweep.reduce.merge_cells")[0]
    warmup = tracer.durations("sweep.scenarios.prewarm_shared_landscapes")
    res.metric("sweep.scenarios.warmup_s", warmup[0], "s", 1)
    res.metric("sweep.runner.cell_s_p50", median(cells), "s", len(cells))
    res.metric("sweep.runner.cell_s_max", max(cells), "s", len(cells))
    res.metric("sweep.reduce.merge_s", merge_s, "s", 1)
    res.metric("sweep.runner.worker_idle_frac",
               1.0 - sum(cells) / (WORKERS * wall_s), "ratio", len(cells))
    res.metric("bench.trace_overhead_frac",
               len(tracer.spans) * span_cost_s() / traced_wall, "ratio", 1)
    res.notes.append(f"{len(tracer.spans)} spans -> "
                     f"{save_spans(tracer, workload, seed)}")
    table = [["stage (span)", "calls", "p50 s", "max s", "total s"]]
    for name in ("sweep.scenarios.prewarm_shared_landscapes",
                 "sweep.runner.run_cell", "sweep.reduce.merge_cells"):
        durs = tracer.durations(name)
        table.append([name, str(len(durs)), f"{median(durs):.4f}",
                      f"{max(durs):.4f}", f"{sum(durs):.4f}"])
    return table, int(tracer.counts.get("cells_ok", 0))
