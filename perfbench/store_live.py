"""store-live: store writes beside dashboard reads, through the public API.

The seeded report stream goes into a fresh measurement store in chunks
of ``CHUNK`` reports through ``create_run`` + ``ingest_reports``.  After
each chunk one dashboard refresh runs ``replay_snapshot``, ``coverage``
(one carrier's map per refresh, rotating over the three carriers, as a
per-network coverage map is drawn) and ``slo_attainment``.  Query cost
grows with the data, so an ingest change that slows reads shows up
here, and so does the reverse.  The serve layers are idle.

The store lives in a fresh process of its own, which this process feeds
one chunk at a time, so its peak RSS is the store's and not the
generated stream's.

The amount of work is fixed by ``--seconds`` (``CHUNKS_PER_SECOND``
chunks per second asked for), so parent and child commits store the
same data and answer the same queries.

Gate: ``replay_snapshot`` of the finished run equals a
``build_coordinator()`` + ``ingest`` registry fold of the same stored
reports, and the per-reason rejects equal the planted ones.
"""

from __future__ import annotations

import gc
import os
import pickle
import shutil
import sqlite3
import subprocess
import sys
import time
import traceback
from typing import List, Tuple

from common import (
    SRC,
    NullTracer,
    Result,
    Tracer,
    canonical,
    fmt_counts,
    median,
    proc_hwm_mb,
    quantile,
    reset_peak_rss,
    save_spans,
    span_cost_s,
    work_dir,
)
import stream as report_stream

from repro.geo.regions import madison_study_area
from repro.geo.zones import ZoneGrid
from repro.serve.server import build_coordinator
from repro.serve.wire import report_from_wire
from repro.store import (
    StoreError,
    connect,
    coverage,
    create_run,
    ingest_reports,
    replay_snapshot,
    slo_attainment,
    store_stats,
)

#: Reports per ingest chunk (one dashboard refresh follows each).
CHUNK = 500
#: Chunks per second of ``--seconds``: 30 s -> 120 chunks, 60k reports,
#: ~28 MB of store, 120 refreshes (so p90 has 12 samples beyond it).
CHUNKS_PER_SECOND = 4
#: One store set-up is timed at the start and one more after every
#: SETUP_EVERY refreshes, each on a fresh file; setup_s is their median.
#: A set-up is a few milliseconds of file-system work, so its median
#: over the whole run (61 set-ups at 30 s) follows the host's speed
#: over the run, as the other metrics do, not over one instant.
SETUP_EVERY = 2
NETWORKS = ("NetA", "NetB", "NetC")

E2E_LABELS = {
    "setup_s": "setup_s: connect + migrate + create_run",
    "ops_per_s": "store_ingest_reports_per_s: median over chunks of "
                 "reports / ingest_reports time",
    "cpu_us_per_op": "process CPU per report inside ingest_reports, "
                     "median over chunks",
    "p50_ms": "refresh_p50_ms: one dashboard refresh",
    "tail_ms": "refresh_p90_ms: one dashboard refresh",
    "peak_rss_mb": "peak_rss_mb: peak RSS the store adds to the process "
                   "hosting it (VmHWM minus RSS before connect)",
}


def _store_takes_nan(report, grid: ZoneGrid) -> bool:
    """Whether the store can persist a report whose value is NaN.

    A failed ping or a NaN throughput is a legal wire report that the
    validator rejects; the store must still keep its row.  Probed once
    per run in a scratch in-memory store.
    """
    conn = connect(":memory:")
    try:
        run_id = create_run(conn, "probe", kind="bench")
        ingest_reports(conn, run_id, [report], grid)
        return True
    except sqlite3.IntegrityError:
        return False
    finally:
        conn.close()


def _setup_once(path: str) -> float:
    """Seconds to connect, migrate and ``create_run`` on a fresh file."""
    t0 = time.perf_counter()
    conn = connect(path)
    create_run(conn, "live", kind="bench")
    elapsed = time.perf_counter() - t0
    conn.close()
    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    return elapsed


def run(workload: str, seed: int, seconds: float, trace: bool,
        res: Result) -> List[Tuple[str, List[List[str]]]]:
    n_chunks = max(1, round(CHUNKS_PER_SECOND * seconds))
    stream = report_stream.generate(seed, n_chunks * CHUNK)
    grid = ZoneGrid(madison_study_area().anchor, radius_m=250.0)
    reports = [report_from_wire(w) for w in stream.reports]
    stream.reports = []
    nan_idx = [i for i, r in enumerate(reports) if r.value != r.value]
    refused = set()
    if nan_idx and not _store_takes_nan(reports[nan_idx[0]], grid):
        refused = set(nan_idx)
        res.notes.append(
            f"defect: the store cannot persist a report whose value is "
            f"NaN (sqlite3.IntegrityError); {len(refused)} such reports "
            "are counted as failed and not offered to it")
    chunks = [
        [reports[i] for i in range(c * CHUNK, (c + 1) * CHUNK)
         if i not in refused]
        for c in range(n_chunks)
    ]
    stored = [i for i in range(len(reports)) if i not in refused]
    planted = stream.planted_counts(stored)
    zones = f"{stream.zones} zones ({fmt_counts(stream.sources)} per day)"
    del stream
    gc.collect()
    gc.freeze()

    root = work_dir(workload)
    db_path = os.path.join(root, "store.sqlite")
    try:
        run_id, tables = _in_store_process(chunks, db_path, trace, res,
                                           workload, seed)
        conn = connect(db_path)
        try:
            _gates(res, conn, run_id, chunks, planted)
        finally:
            conn.close()
        res.attempted += len(reports)
        res.failed += len(refused)
        res.notes.append(
            f"stream: {len(reports)} reports over {zones} in "
            f"{n_chunks} chunks of {CHUNK}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return tables


def _in_store_process(chunks, db_path: str, trace: bool, res: Result,
                      workload: str, seed: int):
    """Host the store in a fresh process and feed it one chunk at a time.

    The process's memory is then the store's, not the inputs': it holds
    the interpreter, the store and one chunk.  It asks for each chunk
    when it is ready for it, so feeding never overlaps its timed work.
    Messages are pickles over its stdin and stdout.  The process is
    waited for on every path out of here.  Returns the run id and the
    tables; its metrics land in ``res``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    host = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env)
    try:
        pickle.dump((db_path, trace, workload, seed, len(chunks)),
                    host.stdin)
        host.stdin.flush()
        while True:
            try:
                msg = pickle.load(host.stdout)
            except EOFError:
                raise RuntimeError(
                    f"the store process exited with {host.wait()} "
                    "before it finished") from None
            if msg[0] == "next":
                pickle.dump(chunks[msg[1]], host.stdin)
                host.stdin.flush()
            elif msg[0] == "done":
                break
            else:
                raise RuntimeError(f"the store process failed:\n{msg[1]}")
    finally:
        host.stdin.close()
        host.stdout.close()
        try:
            host.wait(timeout=60)
        except subprocess.TimeoutExpired:
            host.kill()
            host.wait()
    _, run_id, metrics, notes, attempted, failed, tables = msg
    res.metrics.update(metrics)
    res.notes.extend(notes)
    res.attempted += attempted
    res.failed += failed
    return run_id, tables


def _host() -> None:
    """The store-hosting process: set up, then per chunk ingest + refresh."""
    inp = sys.stdin.buffer
    out = sys.stdout.buffer
    # Stray prints must not land in the message stream.
    sys.stdout = sys.stderr

    def send(msg) -> None:
        pickle.dump(msg, out)
        out.flush()

    try:
        db_path, trace, workload, seed, n_chunks = pickle.load(inp)
        grid = ZoneGrid(madison_study_area().anchor, radius_m=250.0)
        gc.collect()
        # Peak RSS from here on is what the store adds to the process.
        base_mb = reset_peak_rss()
        t0 = time.perf_counter()
        conn = connect(db_path)
        run_id = create_run(conn, "live", kind="bench")
        setups = [time.perf_counter() - t0]

        def chunks():
            for c in range(n_chunks):
                send(("next", c))
                yield pickle.load(inp)

        res = Result(workload, seed, trace)
        try:
            tables = _measure(conn, run_id, chunks(), grid, trace, res,
                              setups, workload, seed, db_path, base_mb)
        finally:
            conn.close()
        send(("done", run_id, res.metrics, res.notes, res.attempted,
              res.failed, tables))
    except BaseException:
        send(("error", traceback.format_exc()))


def _measure(conn, run_id: int, chunks, grid: ZoneGrid, trace: bool,
             res: Result,
             setups: List[float], workload: str, seed: int,
             db_path: str,
             base_mb: float) -> List[Tuple[str, List[List[str]]]]:
    tracer = Tracer() if trace else NullTracer()
    begin, end = tracer.begin, tracer.end
    rates: List[float] = []
    cpu_per_report: List[float] = []
    refresh: List[float] = []
    failed_queries = 0
    n_reports = 0
    wall0 = time.perf_counter()
    for c, chunk in enumerate(chunks):
        tracer.group = c
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        i = begin("store.writers.ingest_reports")
        ingest_reports(conn, run_id, chunk, grid)
        end(i)
        rates.append(len(chunk) / (time.perf_counter() - t0))
        cpu_per_report.append((time.process_time() - cpu0) / len(chunk))
        n_reports += len(chunk)
        tracer.count("reports", len(chunk))
        r0 = time.perf_counter()
        try:
            i = begin("store.queries.replay_snapshot")
            replay_snapshot(conn, run_id)
            end(i)
            i = begin("store.queries.coverage")
            coverage(conn, run_id, network=NETWORKS[c % len(NETWORKS)])
            end(i)
            i = begin("store.queries.slo_attainment")
            slo_attainment(conn, run_id)
            end(i)
        except (sqlite3.Error, StoreError) as exc:
            failed_queries += 1
            res.notes.append(f"refresh {c} raised {exc!r}")
        refresh.append(time.perf_counter() - r0)
        if (c + 1) % SETUP_EVERY == 0:
            setups.append(_setup_once(f"{db_path}.setup{c}"))
    wall = time.perf_counter() - wall0
    peak_mb = proc_hwm_mb(os.getpid()) - base_mb
    res.attempted += 3 * len(refresh)
    res.failed += failed_queries

    refresh_ms = [x * 1e3 for x in refresh]
    res.metric("setup_s", median(setups), "s", len(setups),
               E2E_LABELS["setup_s"])
    res.metric("ops_per_s", median(rates), "1/s", len(rates),
               E2E_LABELS["ops_per_s"])
    res.metric("cpu_us_per_op", median(cpu_per_report) * 1e6, "us",
               len(cpu_per_report), E2E_LABELS["cpu_us_per_op"])
    res.metric("p50_ms", quantile(refresh_ms, 0.5), "ms", len(refresh),
               E2E_LABELS["p50_ms"])
    res.metric("tail_ms", quantile(refresh_ms, 0.9), "ms", len(refresh),
               E2E_LABELS["tail_ms"])
    res.metric("peak_rss_mb", peak_mb, "MB", 1, E2E_LABELS["peak_rss_mb"])
    if not trace:
        return []

    stats = store_stats(conn)
    db_bytes = sum(os.path.getsize(db_path + suffix)
                   for suffix in ("", "-wal") if os.path.exists(db_path
                                                                + suffix))
    samples = max(1, stats["samples"])
    tot = tracer.totals()
    res.metric("store.writers.ingest_us_per_report",
               tot["store.writers.ingest_reports"][1] / n_reports * 1e6,
               "us", n_reports)
    res.metric("store.writers.db_bytes_per_sample", db_bytes / samples, "B",
               samples)
    res.metric("store.writers.rollups_per_1k_reports",
               1000.0 * stats["rollups"] / samples, "count", samples)
    table = [["stage (span)", "calls", "p50 ms", "last ms", "total s"]]
    for name in ("store.writers.ingest_reports",
                 "store.queries.replay_snapshot", "store.queries.coverage",
                 "store.queries.slo_attainment"):
        durs = tracer.durations(name)
        short = name.split(".")[-1]
        if name.startswith("store.queries."):
            res.metric(f"store.queries.{short}_ms",
                       median(durs) * 1e3, "ms", len(durs))
            res.metric(f"store.queries.{short}_last_ms",
                       durs[-1] * 1e3, "ms", 1)
        table.append([name, str(len(durs)), f"{median(durs) * 1e3:.3f}",
                      f"{durs[-1] * 1e3:.3f}", f"{sum(durs):.3f}"])
    res.metric("bench.trace_overhead_frac",
               len(tracer.spans) * span_cost_s() / wall, "ratio", 1)
    res.notes.append(
        f"{len(tracer.spans)} spans -> "
        f"{save_spans(tracer, workload, seed)}; store "
        f"{db_bytes / 1e6:.1f} MB, {stats['samples']} sample rows, "
        f"{stats['rollups']} rollups")
    return [("per-layer stage table (traced run)", table)]


def _gates(res: Result, conn, run_id: int, chunks, planted) -> None:
    coordinator = build_coordinator()
    for chunk in chunks:
        for report in chunk:
            coordinator.ingest(report)
    folded = coordinator.metrics.snapshot()
    replayed = replay_snapshot(conn, run_id)
    res.gate("replay_snapshot == build_coordinator() + ingest fold",
             canonical(replayed) == canonical(folded),
             f"{len(replayed['counters'])} counters compared")
    counters = replayed["counters"]
    seen = {k[len("validator.reject."):]: int(v) for k, v in counters.items()
            if k.startswith("validator.reject.")}
    stored = sum(len(c) for c in chunks)
    ingested = int(counters.get("coordinator.reports_ingested", 0))
    rejected = int(counters.get("coordinator.reports_rejected", 0))
    res.gate("per-reason rejects == planted", seen == planted,
             f"planted {fmt_counts(planted)}; store {fmt_counts(seen)}")
    res.gate("accepted + rejected == stored", ingested + rejected == stored,
             f"{ingested}+{rejected} vs {stored}")
    res.failed += max(0, rejected - sum(planted.values()))
    res.metric("core.validation.rejected", rejected, "count", 1)


if __name__ == "__main__":
    _host()
