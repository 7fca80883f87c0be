"""Standalone perf harness for the vectorized ground-truth path.

Times the scalar reference implementations against the batched/cached
ones and writes ``BENCH_perf.json`` at the repo root (plus one
seed-stamped entry appended to ``BENCH_history.jsonl``, so successive
runs accumulate instead of overwriting each other).  Run with::

    PYTHONPATH=src python benchmarks/run_perf.py [--seed N]

The headline numbers (also asserted here so CI catches regressions):

* ``link_state_batch`` over 10k points vs 10k scalar ``link_state``
  calls — must be >= 10x;
* ``udp_train_batch`` per-train cost vs the frozen per-packet
  ``udp_train_reference`` — must be >= 5x;
* the sharded sweep over an 8-cell scheduler-ablation grid, 4 workers
  vs serial — must be >= 2x *when the machine has >= 4 CPUs* (the
  speedup is recorded either way, together with the CPU count), and the
  merged artifacts must be byte-identical across worker counts;
* the coordinator service under a 1000-client loadgen, run in both wire
  shapes: the PR-5 exchange (one JSON REPORT per frame) — recorded as
  ``serve.reports_per_s`` for history comparability — and the batched
  binary path (REPORT_BATCH frames + range ACKs + WAL group commit),
  which must sustain >= 3x the unbatched rate; zero dropped reports and
  a byte-identical WAL replay per codec are hard gates, and a cProfile
  stage names the hot functions (top-N by cumulative time) in
  ``BENCH_perf.json``;
* the zone-sharded cluster: the same 4-process gateway-routed loadgen
  against a 1-shard and a 3-shard cluster — 3 shards must sustain
  >= 2.5x the 1-shard rate *when >= 8 CPUs are visible* (recorded
  either way), with zero drops and the aggregated live-vs-replay
  byte-compare as unconditional hard gates; the 3-shard rate is
  recorded as ``cluster.reports_per_s`` for the history guard;
* the measurement store: 100k synthetic reports ingested with
  incremental rollups (``store.ingest_samples_per_s`` for the history
  guard), and the rollup-table replay query must answer byte-identically
  to — and >= 2x faster than — a full JSONL refold of the same stream;
  the ingest's stage table (prepare rows, sample insert, rollup upsert,
  commit; µs per report) is recorded as ``store.stages_us_per_report``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.network.channel import MeasurementChannel
from repro.obs.manifest import RunManifest
from repro.radio.network import build_landscape
from repro.radio.technology import NetworkId

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_perf.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"

N_POINTS = 10_000
N_TRAINS = 50
TRAIN_PACKETS = 100


def _time(fn, repeat=5, warmup=1):
    """Best-of-N wall time in seconds (min is the least noisy stat)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_link_state(landscape, points):
    net = NetworkId.NET_B
    t = 500.0

    scalar_pts = points[:1000]  # 10k scalar calls would dominate the run

    def run_scalar():
        return [landscape.link_state(net, p, t) for p in scalar_pts]

    def run_batch():
        return landscape.link_state_batch(net, points, t, use_cache=False)

    def run_cached():
        return landscape.link_state_batch(net, points, t, use_cache=True)

    run_scalar()
    run_batch()
    run_batch()
    landscape.warm_cache(points, nets=[net])
    run_cached()
    run_cached()

    # The headline number is a *ratio*, so the paths are timed in
    # interleaved rounds: a machine-wide slow spell then inflates both
    # sides instead of whichever block happened to run during it, and
    # the best-of minima are drawn from the same quiet windows.
    scalar_s = batch_s = cached_s = float("inf")
    for _ in range(12):
        t0 = time.perf_counter()
        run_scalar()
        scalar_s = min(scalar_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_batch()
        batch_s = min(batch_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_cached()
        cached_s = min(cached_s, time.perf_counter() - t0)

    per_point_scalar = scalar_s / len(scalar_pts)
    scalar_10k = per_point_scalar * N_POINTS
    return {
        "scalar_per_point_us": per_point_scalar * 1e6,
        "batch_10k_ms": batch_s * 1e3,
        "batch_10k_cached_ms": cached_s * 1e3,
        "speedup_batch_vs_scalar": scalar_10k / batch_s,
        "speedup_cached_vs_scalar": scalar_10k / cached_s,
    }


def bench_udp(landscape, point):
    def fresh(seed):
        return MeasurementChannel(
            landscape, NetworkId.NET_B, np.random.default_rng(seed)
        )

    landscape.warm_cache([point])

    # Each repetition simulates a NOVEL stretch of time.  Reusing one
    # time list would let the temporal multiplier memo (one of the new
    # optimizations, attached to the shared landscape) accelerate the
    # frozen baseline from the second repeat on, understating the
    # speedup a fresh workload sees.
    epoch = iter(range(10**9))

    def novel_times():
        base = float(next(epoch)) * 1.0e6
        return [base + 120.0 * k for k in range(N_TRAINS)]

    def run_ref():
        ch = fresh(1)
        return [
            ch.udp_train_reference(point, t, n_packets=TRAIN_PACKETS)
            for t in novel_times()
        ]

    def run_scalar():
        ch = fresh(2)
        return [
            ch.udp_train(point, t, n_packets=TRAIN_PACKETS)
            for t in novel_times()
        ]

    def run_batch():
        return fresh(3).udp_train_batch(
            [point] * N_TRAINS, novel_times(), n_packets=TRAIN_PACKETS
        )

    ref_s = _time(run_ref, repeat=3)
    scalar_s = _time(run_scalar, repeat=3)
    batch_s = _time(run_batch, repeat=3)
    return {
        "reference_per_train_us": ref_s / N_TRAINS * 1e6,
        "scalar_per_train_us": scalar_s / N_TRAINS * 1e6,
        "batch_per_train_us": batch_s / N_TRAINS * 1e6,
        "speedup_scalar_vs_reference": ref_s / scalar_s,
        "speedup_batch_vs_reference": ref_s / batch_s,
    }


def bench_ping_tcp(landscape, point):
    def fresh(seed):
        return MeasurementChannel(
            landscape, NetworkId.NET_B, np.random.default_rng(seed)
        )

    landscape.warm_cache([point])
    ping_s = _time(
        lambda: [
            fresh(4).ping_series(point, 100.0 * k, count=20, interval_s=1.0)
            for k in range(20)
        ],
        repeat=3,
    )
    tcp_s = _time(
        lambda: [
            fresh(5).tcp_download(point, 100.0 * k, size_bytes=1_000_000)
            for k in range(20)
        ],
        repeat=3,
    )
    return {
        "ping_series20_us": ping_s / 20 * 1e6,
        "tcp_download_1mb_us": tcp_s / 20 * 1e6,
    }


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_sweep():
    """Serial vs 4-worker wall clock on a compute-bound ablation grid.

    Uses the scheduler-ablation scenario (pure simulation, no shared
    I/O) at 8 cells x 12 sim-hours so per-cell compute dominates worker
    startup.  Also byte-compares the merged artifacts — the sweep's
    determinism guarantee is part of the perf contract.
    """
    from repro.sweep import SweepGrid, SweepRunner

    def grid():
        return SweepGrid(
            "bench-scheduler", ["ablation_scheduler"],
            seeds=[7, 8, 9, 10],
            matrix={"policy": ["budgeted", "greedy"]},
            base={"hours": 12.0, "n_buses": 3},
        )

    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = os.path.join(tmp, "serial")
        pooled_dir = os.path.join(tmp, "pooled")
        serial = SweepRunner(grid(), serial_dir, workers=1).run()
        pooled = SweepRunner(grid(), pooled_dir, workers=4).run()
        identical = all(
            Path(serial_dir, fn).read_bytes() ==
            Path(pooled_dir, fn).read_bytes()
            for fn in ("summary.jsonl", "metrics.json")
        )
    return {
        "cells": serial.total,
        "cells_ok": min(serial.ok, pooled.ok),
        "serial_s": serial.wall_s,
        "workers4_s": pooled.wall_s,
        "speedup_4workers_vs_serial": serial.wall_s / pooled.wall_s,
        "cpu_count": _cpu_count(),
        "artifacts_byte_identical": identical,
    }


#: Reports coalesced per frame on the batched serve bench path.
SERVE_BATCH_SIZE = 50

#: Each serve shape is measured this many times and the fastest run is
#: recorded.  A single shape lasts ~1-3 s, so one scheduler hiccup or a
#: GC pause inherited from the numpy benches earlier in this process
#: can swing throughput 30%+; best-of-N measures what the code can do,
#: which is what the history regression guard should compare.
SERVE_REPEATS = 3


def _run_serve_shape(codec, batch_size, clients, per_client, concurrency):
    """One loadgen run against a fresh in-process WAL-backed server.

    Returns ``(LoadgenResult, wal_replay_byte_identical)`` for the
    given codec/batch shape; every shape gets its own WAL so the
    replay byte-compare is per codec.
    """
    import asyncio

    from repro.serve.loadgen import LoadgenConfig, run_loadgen
    from repro.serve.server import CoordinatorServer, ServeConfig, replay_wal

    async def body(wal_dir):
        server = CoordinatorServer(ServeConfig(), wal_dir=wal_dir)
        await server.start()
        try:
            result = await run_loadgen(LoadgenConfig(
                port=server.port, clients=clients,
                reports_per_client=per_client, concurrency=concurrency,
                codec=codec, batch_size=batch_size,
            ))
            return result, server.coordinator.metrics.to_json()
        finally:
            await server.stop()

    with tempfile.TemporaryDirectory() as tmp:
        wal_dir = os.path.join(tmp, "wal")
        result, live_metrics = asyncio.run(body(wal_dir))
        replay_identical = (
            replay_wal(wal_dir).metrics.to_json() == live_metrics
        )
    return result, replay_identical


def _best_serve_shape(codec, batch_size, clients, per_client, concurrency,
                      repeats=SERVE_REPEATS):
    """Best-of-``repeats`` serve shape: fastest run, AND of correctness.

    Throughput/latency come from the fastest repeat (noise only ever
    subtracts); the two hard properties — zero drops and byte-identical
    WAL replay — must hold on *every* repeat, so repetition tightens
    the correctness gates rather than letting one good run mask a bad
    one.  Each repeat starts from a collected heap so the serve bench
    is not taxed for garbage left by the benches before it.
    """
    import gc

    best = None
    replay_all = True
    drops = retries = 0
    for _ in range(max(1, repeats)):
        #: Collect then freeze: the landscape/trace graphs built by the
        #: benches before this one otherwise get rescanned by every
        #: gen-2 pass *during* the shape, taxing serve ~20% for garbage
        #: that isn't its own.
        gc.collect()
        gc.freeze()
        result, replay_identical = _run_serve_shape(
            codec, batch_size, clients, per_client, concurrency
        )
        replay_all = replay_all and replay_identical
        drops += result.reports_dropped
        retries += result.retries
        if best is None or result.reports_per_s > best.reports_per_s:
            best = result
    return best, replay_all, drops, retries


def bench_serve():
    """Loadgen throughput against a live, WAL-backed coordinator service.

    Runs 1000 client sessions over loopback TCP against an in-process
    :class:`CoordinatorServer`, twice: the PR-5 wire exchange (one JSON
    REPORT per frame, one ACK each, 5 reports per client — the
    history-comparable shape) and the batched binary path (clients
    coalescing ``SERVE_BATCH_SIZE`` reports per REPORT_BATCH frame,
    range ACKs, WAL group commit).  Each shape is measured
    ``SERVE_REPEATS`` times; the fastest run is recorded while the
    correctness properties must hold on every repeat.  The headline
    gate is the batched path sustaining >= 3x the unbatched rate; zero
    dropped reports and a byte-identical offline WAL replay are hard
    gates for *both* codecs.
    """
    clients = 1000

    #: PR-5 shape, unchanged so ``reports_per_s`` stays comparable
    #: across the whole bench history.
    unbatched, replay_json, drops_json, retries_json = _best_serve_shape(
        "json", 1, clients, 5, 64
    )
    #: Batched shape: each client pushes one coalesced 50-report frame
    #: (lower concurrency keeps in-flight reports inside the default
    #: ingest budget, so throughput is measured without RETRY churn).
    batched, replay_binary, drops_bin, retries_bin = _best_serve_shape(
        "binary", SERVE_BATCH_SIZE, clients, SERVE_BATCH_SIZE, 16
    )
    return {
        "clients": clients,
        "reports_per_client": 5,
        "concurrency": 64,
        "batch_size": SERVE_BATCH_SIZE,
        "serve_repeats": SERVE_REPEATS,
        "reports_acked": unbatched.reports_acked,
        "reports_dropped": drops_json + drops_bin,
        "retries": retries_json + retries_bin,
        "elapsed_s": unbatched.elapsed_s,
        "reports_per_s": unbatched.reports_per_s,
        "ack_p50_ms": unbatched.ack_p50_ms,
        "ack_p95_ms": unbatched.ack_p95_ms,
        "ack_p99_ms": unbatched.ack_p99_ms,
        #: Batched binary — the throughput path this bench gates.
        "batched_reports_acked": batched.reports_acked,
        "reports_per_s_batched": batched.reports_per_s,
        "batched_ack_p95_ms": batched.ack_p95_ms,
        "speedup_batched_vs_unbatched": (
            batched.reports_per_s / max(unbatched.reports_per_s, 1e-9)
        ),
        "wal_replay_byte_identical": replay_json and replay_binary,
    }


def profile_serve(top_n=15):
    """cProfile the batched serve hot path; top-N by cumulative time.

    A perf PR should name the functions it claims are hot: this runs a
    reduced batched-binary loadgen shape under cProfile and returns the
    repo's own functions (plus the asyncio/json/struct layers they sit
    on) ranked by cumulative time, for BENCH_perf.json.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    _run_serve_shape("binary", SERVE_BATCH_SIZE, 200, 5, 32)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    total_time = stats.total_tt
    out = []
    for func in stats.fcn_list:
        if len(out) >= top_n:
            break
        filename, lineno, name = func
        #: Skip the harness wrappers above the event loop — they are
        #: 100% cumulative by construction and name nothing hot.
        if name in ("<module>", "profile_serve", "_run_serve_shape"):
            continue
        cc, nc, tt, ct, _callers = stats.stats[func]
        short = os.path.join(*Path(filename).parts[-2:]) \
            if filename != "~" else name
        out.append({
            "function": f"{short}:{lineno}({name})",
            "ncalls": nc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        })
    return {"total_time_s": round(total_time, 6),
            "top_by_cumulative": out}


#: Parallel loadgen worker processes driving the cluster bench (each
#: worker is its own process so client-side encoding never serializes
#: on one GIL while we measure server-side scaling).
CLUSTER_WORKERS = 4
CLUSTER_CLIENTS_PER_WORKER = 200
CLUSTER_REPORTS_PER_CLIENT = 50
#: Cluster shapes are wall-clock heavy (subprocess spawn + real load),
#: so best-of-2 rather than the serve bench's best-of-3.
CLUSTER_REPEATS = 2


def _run_cluster_shape(shards):
    """One multi-process loadgen run against an N-shard cluster.

    Starts ``repro serve cluster`` (gateway + ``shards`` shard
    subprocesses), drives it with ``CLUSTER_WORKERS`` parallel
    ``repro serve loadgen --cluster`` processes over disjoint client
    populations, and returns throughput plus the two hard properties:
    zero drops anywhere, and the gateway's aggregated STATS
    byte-matching an offline ``serve replay --cluster``.  The rate is
    total ACKed reports over the slowest worker's internal elapsed time
    — worker startup (interpreter + map fetch) is excluded, shard-side
    work is not.
    """
    import signal
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")

    def wait_port(path, proc, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if path.exists() and path.read_text().strip():
                return int(path.read_text().strip())
            if proc.poll() is not None:
                out = proc.stdout.read() if proc.stdout else ""
                raise RuntimeError(f"cluster exited during startup:\n{out}")
            time.sleep(0.05)
        proc.kill()
        raise RuntimeError("cluster did not write its port file in time")

    with tempfile.TemporaryDirectory() as tmp:
        cluster_dir = os.path.join(tmp, "cluster")
        port_file = Path(tmp, "gateway-port")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "cluster",
             "--dir", cluster_dir, "--shards", str(shards),
             "--port-file", str(port_file)],
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            gw_port = wait_port(port_file, proc)
            workers = []
            for w in range(CLUSTER_WORKERS):
                workers.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve", "loadgen",
                     "--port", str(gw_port), "--cluster",
                     "--clients", str(CLUSTER_CLIENTS_PER_WORKER),
                     "--reports-per-client",
                     str(CLUSTER_REPORTS_PER_CLIENT),
                     "--batch-size", str(SERVE_BATCH_SIZE),
                     "--codec", "binary", "--concurrency", "16",
                     "--client-offset",
                     str(w * CLUSTER_CLIENTS_PER_WORKER),
                     "--format", "json"],
                    env=env, cwd=str(REPO_ROOT),
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True,
                ))
            acked = dropped = 0
            slowest = 0.0
            for w in workers:
                out, err = w.communicate(timeout=600)
                if w.returncode != 0:
                    raise RuntimeError(
                        f"cluster loadgen worker failed "
                        f"(rc={w.returncode}):\n{out}\n{err}"
                    )
                d = json.loads(out)
                acked += d["reports_acked"]
                dropped += d["reports_dropped"]
                slowest = max(slowest, d["elapsed_s"])

            import asyncio

            from repro.serve.driver import ServeSession

            async def agg():
                async with ServeSession("127.0.0.1", gw_port,
                                        client_id="bench-stats",
                                        networks=[]) as session:
                    return (await session.stats())["coordinator"]

            live = asyncio.run(agg())
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)
            replay = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "replay",
                 "--wal", cluster_dir, "--cluster", "--format", "json"],
                env=env, cwd=str(REPO_ROOT),
                capture_output=True, text=True, check=True,
            )
            canonical = dict(sort_keys=True, separators=(",", ":"))
            identical = (
                json.dumps(live, **canonical)
                == json.dumps(json.loads(replay.stdout), **canonical)
            )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return {
        "reports_acked": acked,
        "reports_dropped": dropped,
        "elapsed_s": slowest,
        "reports_per_s": acked / max(slowest, 1e-9),
        "replay_byte_identical": identical,
    }


def bench_cluster():
    """Shard-scaling of the cluster: 1-shard vs 3-shard throughput.

    Both shapes run the identical multi-process load (4 loadgen worker
    processes, batched binary, 40k reports total) through the same
    gateway-routed client path, so the single difference is how many
    shard processes share the ingest work.  Records
    ``cluster.reports_per_s`` (the 3-shard rate) for the history guard
    and the 3-vs-1 ``speedup_3shard_vs_1shard``; zero drops and the
    aggregated live-vs-replay byte-compare are hard gates on both
    shapes.  Best-of-``CLUSTER_REPEATS`` for the rates, AND over the
    correctness bits.
    """
    def best_of(shards):
        best = None
        drops = 0
        replay_ok = True
        for _ in range(max(1, CLUSTER_REPEATS)):
            r = _run_cluster_shape(shards)
            drops += r["reports_dropped"]
            replay_ok = replay_ok and r["replay_byte_identical"]
            if best is None or r["reports_per_s"] > best["reports_per_s"]:
                best = r
        best["reports_dropped"] = drops
        best["replay_byte_identical"] = replay_ok
        return best

    single = best_of(1)
    three = best_of(3)
    return {
        "workers": CLUSTER_WORKERS,
        "clients": CLUSTER_WORKERS * CLUSTER_CLIENTS_PER_WORKER,
        "reports_per_client": CLUSTER_REPORTS_PER_CLIENT,
        "batch_size": SERVE_BATCH_SIZE,
        "cluster_repeats": CLUSTER_REPEATS,
        "cpu_count": _cpu_count(),
        "reports_acked": three["reports_acked"],
        "reports_dropped": single["reports_dropped"]
        + three["reports_dropped"],
        "elapsed_s": three["elapsed_s"],
        #: The history-guarded headline: 3-shard cluster throughput.
        "reports_per_s": three["reports_per_s"],
        "reports_per_s_1shard": single["reports_per_s"],
        "speedup_3shard_vs_1shard": (
            three["reports_per_s"] / max(single["reports_per_s"], 1e-9)
        ),
        "replay_byte_identical": (
            single["replay_byte_identical"]
            and three["replay_byte_identical"]
        ),
    }


#: Synthetic reports ingested by the store bench (~300k sample values).
N_STORE_REPORTS = 100_000


def bench_store():
    """Measurement-store ingest rate and rollup-vs-refold query latency.

    Ingests ``N_STORE_REPORTS`` synthetic reports (pure index
    arithmetic — no landscape build, so the bench isolates store cost)
    into a fresh store, then answers the replay-counter question two
    ways: a SELECT over the incrementally-maintained rollup tables,
    and a full re-fold of the same stream from a JSONL file (parse +
    re-validate + accumulate — what every query cost before the
    store existed).  The two snapshots must be byte-identical; the
    rollup path must be >= 2x faster.  ``ingest_samples_per_s`` is the
    history-guarded headline.  ``stages_us_per_report`` is the ingest's
    stage table (see :func:`_store_stages`).
    """
    from repro.clients.protocol import MeasurementReport, MeasurementType
    from repro.core.validation import ReportValidator
    from repro.geo.regions import madison_study_area
    from repro.geo.zones import ZoneGrid
    from repro.serve.wire import report_from_wire, report_to_wire
    from repro.store import (
        connect,
        create_run,
        ingest_reports,
        replay_snapshot,
    )

    anchor = madison_study_area().anchor
    kinds = (MeasurementType.TCP_DOWNLOAD, MeasurementType.UDP_TRAIN,
             MeasurementType.PING)
    nets = tuple(NetworkId)

    def synth(i):
        kind = kinds[i % 3]
        start = 1000.0 + i * 0.5
        point = anchor.offset(
            float((i * 37) % 8000) - 4000.0,
            float((i * 53) % 8000) - 4000.0,
        )
        if kind is MeasurementType.PING:
            value = 0.02 + (i % 50) * 1e-4
            samples = [value - 1e-4, value, value + 1e-4]
        else:
            value = 1.0e6 + (i % 1000) * 1.0e3
            samples = []
        return MeasurementReport(
            task_id=i, client_id=f"bench-{i % 97}",
            network=nets[i % len(nets)], kind=kind,
            start_s=start, end_s=start + 5.0, point=point,
            speed_ms=10.0, value=value, samples=samples,
        )

    reports = [synth(i) for i in range(N_STORE_REPORTS)]
    n_samples = sum(len(r.samples) or 1 for r in reports)
    grid = ZoneGrid(anchor, radius_m=250.0)

    with tempfile.TemporaryDirectory() as tmp:
        jsonl_path = os.path.join(tmp, "reports.jsonl")
        with open(jsonl_path, "w", encoding="utf-8") as fh:
            for r in reports:
                fh.write(json.dumps(report_to_wire(r), sort_keys=True)
                         + "\n")

        conn = connect(os.path.join(tmp, "bench.sqlite"))
        run_id = create_run(conn, "bench", kind="bench")
        t0 = time.perf_counter()
        ingest_reports(conn, run_id, reports, grid)
        ingest_s = time.perf_counter() - t0

        stages = _store_stages(os.path.join(tmp, "stages.sqlite"),
                               reports, grid)

        def query_store():
            return replay_snapshot(conn, run_id)

        def refold_jsonl():
            validator = ReportValidator()
            ingested = samples_n = rejected = 0
            reasons = {}
            with open(jsonl_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    r = report_from_wire(json.loads(line))
                    outcome = validator.validate(r, r.start_s)
                    if outcome.ok:
                        ingested += 1
                        samples_n += len(r.samples) if r.samples else 1
                    else:
                        rejected += 1
                        reasons[outcome.reason] = (
                            reasons.get(outcome.reason, 0) + 1
                        )
            counters = {}
            if ingested:
                counters["coordinator.reports_ingested"] = float(ingested)
                counters["coordinator.samples_ingested"] = float(samples_n)
            if rejected:
                counters["coordinator.reports_rejected"] = float(rejected)
            for reason in sorted(reasons):
                counters[f"validator.reject.{reason}"] = float(
                    reasons[reason]
                )
            return {"counters": counters, "gauges": {},
                    "histograms": {}}

        identical = (
            json.dumps(query_store(), sort_keys=True)
            == json.dumps(refold_jsonl(), sort_keys=True)
        )
        query_s = _time(query_store, repeat=5)
        refold_s = _time(refold_jsonl, repeat=3)
        conn.close()
    return {
        "reports": N_STORE_REPORTS,
        "samples": n_samples,
        "ingest_s": ingest_s,
        "ingest_samples_per_s": n_samples / max(ingest_s, 1e-9),
        "ingest_reports_per_s": N_STORE_REPORTS / max(ingest_s, 1e-9),
        "rollup_query_ms": query_s * 1e3,
        "jsonl_refold_ms": refold_s * 1e3,
        "speedup_query_vs_refold": refold_s / max(query_s, 1e-9),
        "snapshot_byte_identical": identical,
        "stages_us_per_report": stages,
    }


def _store_stages(path, reports, grid):
    """Wall µs per report of each store ingest stage, into a fresh store.

    Replays ``ingest_reports``' batch loop over the same helpers and
    batch size, timing each stage apart: ``prepare_rows`` (validate,
    zone-bin, build the parameter tuples), ``insert_samples``,
    ``upsert_rollups``, and the ``COMMIT`` that closes the batch's
    transaction.
    """
    from repro.core.validation import ReportValidator
    from repro.store import connect, create_run, transaction
    from repro.store.writers import (
        DEFAULT_BATCH_SIZE,
        default_epoch_s,
        insert_samples,
        prepare_rows,
        upsert_rollups,
    )

    conn = connect(path)
    run_id = create_run(conn, "stages", kind="bench")
    validator = ReportValidator()
    epoch_s = default_epoch_s()
    totals = dict.fromkeys(
        ("prepare_rows", "insert_samples", "upsert_rollups", "commit"), 0.0
    )
    for lo in range(0, len(reports), DEFAULT_BATCH_SIZE):
        t0 = time.perf_counter()
        sample_rows, rollup_rows = prepare_rows(
            run_id, lo, reports[lo:lo + DEFAULT_BATCH_SIZE], grid,
            validator, epoch_s,
        )
        t1 = time.perf_counter()
        with transaction(conn):
            insert_samples(conn, sample_rows)
            t2 = time.perf_counter()
            upsert_rollups(conn, rollup_rows)
            t3 = time.perf_counter()
        t4 = time.perf_counter()
        totals["prepare_rows"] += t1 - t0
        totals["insert_samples"] += t2 - t1
        totals["upsert_rollups"] += t3 - t2
        totals["commit"] += t4 - t3
    conn.close()
    return {stage: total / len(reports) * 1e6
            for stage, total in totals.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    args = parser.parse_args()

    print("building landscape ...")
    landscape = build_landscape(seed=args.seed)
    point = landscape.study_area.anchor.offset(1200.0, -500.0)
    rng = np.random.default_rng(3)
    points = [
        landscape.study_area.anchor.offset(
            float(rng.uniform(-6000.0, 6000.0)),
            float(rng.uniform(-6000.0, 6000.0)),
        )
        for _ in range(N_POINTS)
    ]

    print("timing link-state path ...")
    link = bench_link_state(landscape, points)
    print("timing udp trains ...")
    udp = bench_udp(landscape, point)
    print("timing ping/tcp ...")
    other = bench_ping_tcp(landscape, point)
    print("timing sharded sweep (serial vs 4 workers) ...")
    sweep = bench_sweep()
    print("timing coordinator service (1000-client loadgen, "
          "unbatched json vs batched binary) ...")
    serve = bench_serve()
    print("timing sharded cluster (1-shard vs 3-shard, 4 loadgen "
          "worker processes) ...")
    cluster = bench_cluster()
    print("timing measurement store (100k-report ingest, rollup query "
          "vs JSONL refold) ...")
    store = bench_store()
    print("profiling the batched serve hot path (cProfile) ...")
    profile = profile_serve()

    manifest = RunManifest(
        run_kind="bench-perf",
        seed=args.seed,
        extra={
            "n_points": N_POINTS,
            "n_trains": N_TRAINS,
            "train_packets": TRAIN_PACKETS,
        },
    )
    results = {
        "n_points": N_POINTS,
        "n_trains": N_TRAINS,
        "train_packets": TRAIN_PACKETS,
        "link_state": link,
        "udp_train": udp,
        "ping_tcp": other,
        "sweep": sweep,
        "serve": serve,
        "cluster": cluster,
        "store": store,
        "profile": profile,
        "manifest": manifest.to_dict(),
    }
    OUT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    # History accumulates one line per run (the manifest identifies the
    # seed/version that produced each entry); wall-clock is fine here —
    # bench history is a log, not a determinism-checked artifact.
    entry = dict(results)
    entry["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    with HISTORY_PATH.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwrote {OUT_PATH}; appended to {HISTORY_PATH}")

    failures = []
    if link["speedup_batch_vs_scalar"] < 10.0:
        failures.append(
            "link_state_batch(10k) speedup "
            f"{link['speedup_batch_vs_scalar']:.1f}x < 10x"
        )
    if udp["speedup_batch_vs_reference"] < 5.0:
        failures.append(
            "udp_train_batch speedup "
            f"{udp['speedup_batch_vs_reference']:.1f}x < 5x"
        )
    if not sweep["artifacts_byte_identical"]:
        failures.append(
            "sweep artifacts differ between serial and 4-worker runs"
        )
    # The serve bench has no absolute throughput floor (it is recorded
    # and guarded as a non-regression by check_regression.py), but its
    # correctness properties are hard gates.
    if serve["reports_dropped"] != 0:
        failures.append(
            f"serve loadgen dropped {serve['reports_dropped']} report(s)"
        )
    if not serve["wal_replay_byte_identical"]:
        failures.append(
            "serve WAL replay does not reproduce the live coordinator state"
        )
    if serve["speedup_batched_vs_unbatched"] < 3.0:
        failures.append(
            "serve batched-binary path "
            f"{serve['speedup_batched_vs_unbatched']:.2f}x < 3x over "
            "the unbatched json path"
        )
    # Cluster correctness is unconditional; the scaling gate (like the
    # sweep's) needs real parallel hardware: gateway + 3 shards +
    # supervisor + 4 loadgen workers only scale where ~8 cores exist.
    if cluster["reports_dropped"] != 0:
        failures.append(
            f"cluster loadgen dropped {cluster['reports_dropped']} "
            f"report(s)"
        )
    if not cluster["replay_byte_identical"]:
        failures.append(
            "aggregated cluster replay does not reproduce the gateway's "
            "live registry"
        )
    if cluster["cpu_count"] >= 8:
        if cluster["speedup_3shard_vs_1shard"] < 2.5:
            failures.append(
                "cluster 3-shard speedup "
                f"{cluster['speedup_3shard_vs_1shard']:.2f}x < 2.5x "
                f"on {cluster['cpu_count']} CPUs"
            )
    else:
        print(
            f"note: cluster scaling gate skipped — only "
            f"{cluster['cpu_count']} CPU(s) visible "
            f"(measured {cluster['speedup_3shard_vs_1shard']:.2f}x)"
        )
    # Store correctness is unconditional: the rollup tables must answer
    # the replay question byte-identically to a full refold.  The
    # latency gate is conservative (the measured gap is orders of
    # magnitude) so I/O-noisy CI machines never flap on it.
    if not store["snapshot_byte_identical"]:
        failures.append(
            "store rollup snapshot differs from the JSONL refold"
        )
    if store["speedup_query_vs_refold"] < 2.0:
        failures.append(
            "store rollup query only "
            f"{store['speedup_query_vs_refold']:.1f}x faster than the "
            "JSONL refold (< 2x)"
        )
    if sweep["cells_ok"] < sweep["cells"]:
        failures.append(
            f"sweep completed only {sweep['cells_ok']}/{sweep['cells']} cells"
        )
    # The parallel-speedup gate needs parallel hardware: enforce >= 2x
    # only where 4 workers can actually run concurrently.
    if sweep["cpu_count"] >= 4:
        if sweep["speedup_4workers_vs_serial"] < 2.0:
            failures.append(
                "sweep 4-worker speedup "
                f"{sweep['speedup_4workers_vs_serial']:.2f}x < 2x "
                f"on {sweep['cpu_count']} CPUs"
            )
    else:
        print(
            f"note: sweep speedup gate skipped — only "
            f"{sweep['cpu_count']} CPU(s) visible "
            f"(measured {sweep['speedup_4workers_vs_serial']:.2f}x)"
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(
        f"OK: link_state_batch {link['speedup_batch_vs_scalar']:.1f}x, "
        f"udp_train_batch {udp['speedup_batch_vs_reference']:.1f}x, "
        f"sweep 4w {sweep['speedup_4workers_vs_serial']:.2f}x "
        f"on {sweep['cpu_count']} CPU(s), "
        f"serve {serve['reports_per_s']:.0f} reports/s unbatched json, "
        f"{serve['reports_per_s_batched']:.0f} reports/s batched binary "
        f"({serve['speedup_batched_vs_unbatched']:.1f}x, "
        f"p99 ACK {serve['ack_p99_ms']:.1f} ms), "
        f"cluster {cluster['reports_per_s']:.0f} reports/s over 3 shards "
        f"({cluster['speedup_3shard_vs_1shard']:.2f}x vs 1 shard), "
        f"store {store['ingest_samples_per_s']:.0f} samples/s ingest "
        f"(rollup query {store['speedup_query_vs_refold']:.0f}x faster "
        f"than refold)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
