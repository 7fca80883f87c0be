"""ingest-batched and ingest-single: the coordinator service, driven from outside.

The coordinator runs in its own process (``python -m repro serve run``
with a WAL and the default group-commit policy).  This process is the
only load generator: it pre-encodes every frame of the seeded report
stream, opens ``CONNECTIONS`` sessions over loopback and runs two
phases:

1. an **open loop**: frames fall due on a fixed schedule at about a
   third of this box's capacity; a frame due while both connections are busy
   waits in the generator, and that wait counts in its ACK latency;
2. a **closed loop**: each connection sends its next frame as soon as
   the previous one is ACKed, which measures the service's capacity.

Server CPU and peak RSS are read from ``/proc/<pid>``.  The correctness
gates check zero drops, that the validator rejected exactly the planted
reports, and that an offline ``replay_wal`` of the run's WAL byte-equals
the live STATS ``coordinator`` snapshot.

With ``--trace 1`` the same live run is followed by the traced pipeline:
this module calls the serve layers' public functions in the order the
server's session and writer tasks call them, one span per call, over
the first ``TRACE_REPORTS`` reports of the stream.
"""

from __future__ import annotations

import asyncio
import gc
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    SRC,
    NullTracer,
    Result,
    Tracer,
    canonical,
    fmt_counts,
    median,
    proc_cpu_s,
    proc_hwm_mb,
    quantile,
    save_spans,
    work_dir,
)
import stream as report_stream

from repro.obs.metrics import quantile_from_snapshot
from repro.serve.server import ServeConfig, build_coordinator, replay_wal
from repro.serve.wal import WriteAheadLog
from repro.serve.wire import (
    LENGTH_PREFIX,
    PROTOCOL_VERSION,
    decode_payload,
    encode_frame,
    read_frame,
    report_from_wire,
)

#: Per workload: session codec, reports per frame, open-loop offered
#: rate in reports/s: about a third of what each closed loop reaches on
#: the reference 2-vCPU box.  Arrivals are periodic, so at half load a
#: frame waited only when the host slowed the server, and p90 latency
#: jumped between "no wait" and "waited one frame" from run to run.
SPECS = {
    "ingest-batched": {"codec": "binary", "batch": 50, "open_rate": 4000.0},
    "ingest-single": {"codec": "json", "batch": 1, "open_rate": 1000.0},
}
#: Sessions the generator opens (at most nproc on the reference box).
CONNECTIONS = 2
#: Share of the measured seconds given to the open-loop phase.
OPEN_SHARE = 0.4
#: The closed loop is read in windows of this many seconds; throughput
#: and CPU per report are window medians, so a burst of contention from
#: other tenants of the box moves one window, not the result.
WINDOW_S = 0.5
#: The open loop's tail latency is the TAIL_Q quantile per window of
#: TAIL_WINDOW_S seconds, reported as the median window: one stall of
#: the shared host lands in one window instead of setting the run's
#: tail.  p90 (11 frames beyond it per batched window): on the reference
#: box p99 is set by host stalls and spread several-fold between runs.
TAIL_WINDOW_S = 2.0
TAIL_Q = 0.9
#: Server launches per run, before and after the measured phases;
#: setup_s is their median.  A launch is mostly the interpreter
#: importing the package, which swung from 0.35 to 0.65 s between
#: back-to-back launches on the reference box, so a run takes many and
#: at two moments 40 s apart.
SETUP_BEFORE = 10
SETUP_AFTER = 10
#: Reports the traced pipeline replays in process.
TRACE_REPORTS = 20_000
#: Spans-on/spans-off pipeline pairs that measure the tracing overhead.
OVERHEAD_PAIRS = 5

#: End-to-end metrics of these workloads, with their meaning here.
E2E_LABELS = {
    "setup_s": "setup_s: server spawn until its port file is written",
    "ops_per_s": "reports_per_s: ACKed reports/s, closed loop, median "
                 "of 0.5 s windows",
    "cpu_us_per_op": "server_cpu_us_per_report: server CPU / ACKed report, "
                     "closed loop, median of 0.5 s windows",
    "p50_ms": "ack_p50_ms: report due -> ACK, open loop",
    "tail_ms": "ack_p90_ms: report due -> ACK, open loop, median of "
               "2 s windows",
    "peak_rss_mb": "peak_rss_mb: server VmHWM after the open loop",
}


# -- inputs ---------------------------------------------------------------------


class Frames:
    """The stream, pre-encoded as the wire frames one session sends."""

    def __init__(self, stream: "report_stream.ReportStream", codec: str,
                 batch: int):
        reports = stream.reports
        self.codec = codec
        self.batch = batch
        self.data: List[bytes] = []
        #: Planted reasons per frame, as {reason: count}.
        self.planted: List[Dict[str, int]] = []
        for lo in range(0, len(reports) - batch + 1, batch):
            if batch == 1:
                msg = {"type": "REPORT", "report": reports[lo]}
            else:
                msg = {"type": "REPORT_BATCH", "seq_lo": lo,
                       "reports": reports[lo:lo + batch]}
            self.data.append(encode_frame(msg, codec=codec))
            self.planted.append(
                stream.planted_counts(range(lo, lo + batch)))
        self.planted_index = [r is not None for r in stream.planted]

    def __len__(self) -> int:
        return len(self.data)


# -- the server process ---------------------------------------------------------


class ServerProcess:
    """``python -m repro serve run`` in its own process."""

    def __init__(self, wal_dir: str):
        self.wal_dir = wal_dir
        self.port_file = wal_dir + ".port"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> float:
        """Launch; return seconds until the port file was written."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        log = open(self.wal_dir + ".log", "wb")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "run",
                 "--port", "0", "--port-file", self.port_file,
                 "--wal", self.wal_dir],
                env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        while True:
            try:
                with open(self.port_file, "r", encoding="ascii") as fh:
                    text = fh.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                elapsed = time.perf_counter() - t0
                self.port = int(text)
                return elapsed
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before "
                    f"listening; see {self.wal_dir}.log")
            if time.perf_counter() - t0 > timeout_s:
                self.stop()
                raise RuntimeError("server did not start listening")
            time.sleep(0.002)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """SIGINT (the CLI closes its WAL cleanly), then wait."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# -- the load generator ---------------------------------------------------------


class Session:
    """One protocol session, speaking pre-encoded frames."""

    def __init__(self, reader, writer, codec: str):
        self.reader = reader
        self.writer = writer
        self.codec = codec

    @classmethod
    async def open(cls, port: int, codec: str, client_id: str) -> "Session":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(encode_frame({
            "type": "HELLO", "v": PROTOCOL_VERSION, "client_id": client_id,
            "networks": ["NetA", "NetB", "NetC"], "codecs": [codec],
        }))
        welcome = await read_frame(reader)
        if welcome is None or welcome.get("type") != "WELCOME":
            raise RuntimeError(f"no WELCOME: {welcome!r}")
        if welcome.get("codec") != codec:
            raise RuntimeError(f"server chose codec {welcome.get('codec')}")
        return cls(reader, writer, codec)

    async def request(self, frame: bytes):
        self.writer.write(frame)
        await self.writer.drain()
        return await self.read()

    async def read(self):
        reply = await read_frame(self.reader, codec=self.codec)
        if reply is None:
            raise RuntimeError("server closed the session")
        return reply

    async def close(self) -> None:
        try:
            self.writer.write(encode_frame({"type": "BYE"}, codec=self.codec))
            await self.writer.drain()
            await self.read()
        finally:
            self.writer.close()
            await self.writer.wait_closed()


class Ledger:
    """What was sent and what the server answered, per report."""

    def __init__(self, frames: Frames):
        self.frames = frames
        self.next_frame = 0
        #: Times each stream frame was sent (the stream wraps around).
        self.sent = [0] * len(frames)
        self.acked_reports = 0
        self.accepted = 0
        self.rejected = 0
        #: Rejected reports that were not planted.
        self.valid_rejected = 0

    def take(self) -> int:
        k = self.next_frame
        self.next_frame += 1
        return k % len(self.frames)

    def sent_reports(self) -> int:
        return sum(self.sent) * self.frames.batch

    def planted_sent(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for fi, times in enumerate(self.sent):
            if times:
                for reason, n in self.frames.planted[fi].items():
                    out[reason] = out.get(reason, 0) + n * times
        return out


async def exchange(session: Session, ledger: Ledger, fi: int) -> None:
    """Send stream frame ``fi`` and read replies until all is ACKed.

    A RETRY (backpressure) names the reports the server did not admit;
    they are resent after ``retry_after_s`` as a new, smaller frame.
    """
    frames = ledger.frames
    lo = fi * frames.batch
    hi = lo + frames.batch - 1
    frame = frames.data[fi]
    ledger.sent[fi] += 1
    while True:
        session.writer.write(frame)
        await session.writer.drain()
        outstanding = hi - lo + 1
        retry = None
        while outstanding > 0:
            reply = await session.read()
            kind = reply.get("type")
            if kind == "ACK":
                n, rejected = 1, ([] if reply.get("accepted") else [lo])
            elif kind == "ACK_BATCH":
                n = int(reply["seq_hi"]) - int(reply["seq_lo"]) + 1
                rejected = [int(s) for s in reply.get("rejected_seqs", ())]
            elif kind == "RETRY":
                retry = ((lo, hi) if frames.batch == 1
                         else (int(reply["seq_lo"]), int(reply["seq_hi"])))
                outstanding -= retry[1] - retry[0] + 1
                continue
            else:
                raise RuntimeError(f"unexpected reply {reply!r}")
            outstanding -= n
            ledger.acked_reports += n
            ledger.rejected += len(rejected)
            ledger.accepted += n - len(rejected)
            ledger.valid_rejected += sum(
                1 for idx in rejected if not frames.planted_index[idx])
        if retry is None:
            return
        await asyncio.sleep(float(reply.get("retry_after_s", 0.05)))
        if frames.batch > 1:
            reports = decode_payload(frame[LENGTH_PREFIX.size:],
                                     frames.codec)["reports"]
            frame = encode_frame(
                {"type": "REPORT_BATCH", "seq_lo": retry[0],
                 "reports": reports[retry[0] - lo:retry[1] - lo + 1]},
                codec=frames.codec)
        lo, hi = retry


async def drive(port: int, frames: Frames, spec: dict, seconds: float,
                server_pid: int) -> dict:
    """Run both phases over ``CONNECTIONS`` sessions; return raw figures."""
    sessions = [
        await Session.open(port, frames.codec, f"perfbench-{i}")
        for i in range(CONNECTIONS)
    ]
    ledger = Ledger(frames)
    open_s = OPEN_SHARE * seconds
    closed_s = seconds - open_s

    # Phase 1: open loop at a fixed offered rate.
    interval = frames.batch / spec["open_rate"]
    n_open = max(1, int(open_s / interval))
    #: (due offset in the phase, due -> ACK seconds) per frame.
    latency: List[Tuple[float, float]] = []
    lateness: List[float] = []
    t0 = time.perf_counter() + 0.01
    cursor = [0]

    async def open_worker(session: Session) -> None:
        while cursor[0] < n_open:
            k = cursor[0]
            cursor[0] += 1
            due = t0 + k * interval
            # Sleep coarsely, then yield until due: the loop's timers
            # wake up to a millisecond late, which is a whole frame slot
            # at ingest-single's rate.
            ahead = due - time.perf_counter()
            if ahead > 0.002:
                await asyncio.sleep(ahead - 0.002)
            while time.perf_counter() < due:
                await asyncio.sleep(0)
            lateness.append(time.perf_counter() - due)
            await exchange(session, ledger, ledger.take())
            latency.append((due - t0, time.perf_counter() - due))

    # Keep the generator's event loop polling instead of blocking in
    # epoll while both sessions wait for ACKs: a blocked loop lets this
    # VM's vCPU halt, and the host's wake-up delay would land in every
    # ACK latency the generator observes.
    open_done = False

    async def keep_awake() -> None:
        while not open_done:
            await asyncio.sleep(0)

    awake = asyncio.ensure_future(keep_awake())
    await asyncio.gather(*(open_worker(s) for s in sessions))
    open_done = True
    await awake
    open_reports = ledger.acked_reports
    # The open loop's report count is fixed, so is the memory it leaves.
    rss_mb = proc_hwm_mb(server_pid)

    # Phase 2: closed loop, sampled in windows.
    gen_cpu0 = time.process_time()
    c0 = time.perf_counter()
    deadline = c0 + closed_s
    marks = [(c0, ledger.acked_reports, proc_cpu_s(server_pid))]

    async def closed_worker(session: Session) -> None:
        while time.perf_counter() < deadline:
            await exchange(session, ledger, ledger.take())

    async def sampler() -> None:
        while True:
            await asyncio.sleep(marks[-1][0] + WINDOW_S - time.perf_counter())
            if time.perf_counter() >= deadline:
                return
            marks.append((time.perf_counter(), ledger.acked_reports,
                          proc_cpu_s(server_pid)))

    sampling = asyncio.ensure_future(sampler())
    await asyncio.gather(*(closed_worker(s) for s in sessions))
    await sampling
    marks.append((time.perf_counter(), ledger.acked_reports,
                  proc_cpu_s(server_pid)))
    gen_cpu = time.process_time() - gen_cpu0
    #: (reports/s, server CPU s per report) of each whole window.
    windows = [
        ((nb - na) / (tb - ta), (cb - ca) / max(1, nb - na))
        for (ta, na, ca), (tb, nb, cb) in zip(marks, marks[1:])
        if tb - ta >= 0.5 * WINDOW_S
    ]

    stats = await sessions[0].request(
        encode_frame({"type": "STATS"}, codec=frames.codec))
    for s in sessions:
        await s.close()
    return {
        "ledger": ledger,
        "latency": latency,
        "lateness": lateness,
        "closed_reports": ledger.acked_reports - open_reports,
        "server_cpu_s": marks[-1][2] - marks[0][2],
        "gen_cpu_s": gen_cpu,
        "windows": windows,
        "rss_mb": rss_mb,
        "stats": stats,
    }


# -- the traced pipeline --------------------------------------------------------


class TracedValidator:
    """Wraps the coordinator's validator: one span per ``validate``."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def validate(self, report, now_s):
        i = self._tracer.begin("core.validation.validate")
        try:
            return self._inner.validate(report, now_s)
        finally:
            self._tracer.end(i)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedGrid:
    """Wraps the coordinator's zone grid: one span per ``zone_id_for``."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def zone_id_for(self, point):
        i = self._tracer.begin("geo.zones.zone_id_for")
        try:
            return self._inner.zone_id_for(point)
        finally:
            self._tracer.end(i)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def serve_pipeline(frames: List[bytes], codec: str, frames_per_drain: int,
                   tracer: Tracer, wal_dir: str) -> float:
    """The server's per-frame work, in its order, in this process.

    Session task: decode each frame, build one ``MeasurementReport`` per
    wire dict.  Writer task, per drain of ``frames_per_drain`` frames:
    one WAL group commit, an fsync under the server's default count
    policy, then per frame the coordinator ingest of each report and
    the encoding of the frame's ACK.  Returns the wall seconds.
    """
    fsync_every = ServeConfig().wal_fsync_every
    coordinator = build_coordinator()
    if tracer.enabled:
        coordinator.validator = TracedValidator(coordinator.validator, tracer)
        coordinator.grid = TracedGrid(coordinator.grid, tracer)
    # The fsync policy is applied below, so that fsync is its own span.
    wal = WriteAheadLog(wal_dir, fsync_every=1 << 62)
    prefix = LENGTH_PREFIX.size
    pending = 0
    begin, end, count = tracer.begin, tracer.end, tracer.count
    t0 = time.perf_counter()
    for d0 in range(0, len(frames), frames_per_drain):
        tracer.group += 1
        drain = []
        for frame in frames[d0:d0 + frames_per_drain]:
            i = begin("serve.wire.decode_payload")
            msg = decode_payload(frame[prefix:], codec)
            end(i)
            payloads = (msg["reports"] if msg["type"] == "REPORT_BATCH"
                        else [msg["report"]])
            reports = []
            for payload in payloads:
                i = begin("serve.wire.report_from_wire")
                reports.append(report_from_wire(payload))
                end(i)
            drain.append((msg, payloads, reports))
            count("frames")
            count("reports", len(payloads))
            count("bytes", len(frame))
        staged = [p for _, payloads, _ in drain for p in payloads]
        i = begin("serve.wal.append_many")
        wal_seqs = wal.append_many(staged)
        end(i)
        pending += len(staged)
        if pending >= fsync_every:
            i = begin("serve.wal.sync")
            wal.sync()
            end(i)
            count("fsyncs")
            pending = 0
        cursor = 0
        for msg, payloads, reports in drain:
            flags = []
            for report in reports:
                i = begin("core.controller.ingest")
                flags.append(coordinator.ingest(report))
                end(i)
            seqs = wal_seqs[cursor:cursor + len(payloads)]
            cursor += len(payloads)
            if msg["type"] == "REPORT_BATCH":
                lo = msg["seq_lo"]
                ack = {"type": "ACK_BATCH", "seq_lo": lo,
                       "seq_hi": lo + len(payloads) - 1,
                       "wal_seq_lo": seqs[0], "wal_seq_hi": seqs[-1],
                       "accepted": sum(flags),
                       "rejected_seqs": [lo + j for j, a in enumerate(flags)
                                         if not a]}
            else:
                ack = {"type": "ACK", "task_id": payloads[0]["task_id"],
                       "seq": seqs[0], "accepted": flags[0]}
            i = begin("serve.wire.encode_frame")
            encode_frame(ack, codec=codec)
            end(i)
    wall = time.perf_counter() - t0
    wal.close()
    return wall


def per_layer(tracer: Tracer, live: dict, res: Result,
              untraced_us: float) -> List[List[str]]:
    """Per-layer metrics from the spans plus the live run's STATS.

    ``untraced_us`` is the spans-off pipeline's wall time per report:
    the serve stages' cost without the tracer's own, which the transport
    residual subtracts from the live server's CPU per report.
    """
    tot = tracer.totals()
    c = tracer.counts
    reports, frames_n = c["reports"], c["frames"]

    def self_us(name: str, per: float) -> float:
        # Self time: the span minus its children, so a garbage-collector
        # pass is charged to python.gc, not to the stage it interrupted.
        return tot.get(name, (0, 0.0, 0.0))[2] / per * 1e6

    decode = self_us("serve.wire.decode_payload", reports)
    to_report = self_us("serve.wire.report_from_wire", reports)
    validate = self_us("core.validation.validate", reports)
    zone_bin = self_us("geo.zones.zone_id_for", reports)
    fold_self = self_us("core.controller.ingest", reports)
    ingest = fold_self + validate + zone_bin
    wal_write = self_us("serve.wal.append_many", reports)
    ack_frame = self_us("serve.wire.encode_frame", frames_n)
    fsync_calls = tot.get("serve.wal.sync", (0, 0.0, 0.0))[0]
    fsync = (self_us("serve.wal.sync", fsync_calls) if fsync_calls else 0.0)
    fsync_per_report = self_us("serve.wal.sync", reports)
    # fsync waits on the disk; the server's CPU time does not include it.
    transport = live["server_cpu_us_per_report"] - (untraced_us
                                                     - fsync_per_report)
    stats = live["stats"]
    wal = stats.get("wal", {})
    serve = stats.get("serve", {})
    hist = serve.get("histograms", {})
    counters = serve.get("counters", {})
    rejected = sum(v for k, v in stats["coordinator"]["counters"].items()
                   if k.startswith("validator.reject."))
    received = counters.get("serve.reports_received", 0.0)
    n = int(reports)

    def q(name: str, qq: float, scale: float = 1.0) -> float:
        snap = hist.get(name)
        if not snap:
            return 0.0
        value = quantile_from_snapshot(snap, qq)
        return value * scale if value == value else 0.0

    rows = [
        ("serve.wire.decode_us_per_report", decode, "us", n),
        ("serve.wire.to_report_us_per_report", to_report, "us", n),
        ("serve.wire.ack_encode_us_per_frame", ack_frame, "us", int(frames_n)),
        ("serve.wire.bytes_per_report", c["bytes"] / reports, "B", n),
        ("core.validation.validate_us_per_report", validate, "us", n),
        ("core.validation.rejected", rejected, "count", 1),
        ("geo.zones.zone_bin_us_per_report", zone_bin, "us", n),
        ("core.controller.ingest_us_per_report", ingest, "us", n),
        ("core.controller.fold_self_us_per_report", fold_self, "us", n),
        ("serve.wal.write_us_per_report", wal_write, "us", n),
        ("serve.wal.fsync_us", fsync, "us", fsync_calls),
        ("serve.wal.fsyncs_per_1k_reports",
         1000.0 * wal.get("fsyncs", 0) / max(1, wal.get("records_logged", 0)),
         "count", 1),
        ("serve.wal.reports_per_group_commit",
         wal.get("records_logged", 0) / max(1, wal.get("group_commits", 0)),
         "count", 1),
        ("serve.server.transport_us_per_report", transport, "us", 1),
        ("serve.server.ack_latency_p50_ms",
         q("serve.ack_latency_s", 0.5, 1e3), "ms",
         int(hist.get("serve.ack_latency_s", {}).get("count", 0))),
        ("serve.server.ack_latency_p99_ms",
         q("serve.ack_latency_s", 0.99, 1e3), "ms",
         int(hist.get("serve.ack_latency_s", {}).get("count", 0))),
        ("serve.server.queue_depth_p99",
         q("serve.ingest_queue_depth", 0.99), "count",
         int(hist.get("serve.ingest_queue_depth", {}).get("count", 0))),
        ("serve.server.retries_per_1k_reports",
         1000.0 * counters.get("serve.backpressure_rejections", 0.0)
         / max(1.0, received), "count", 1),
        ("gen.cpu_us_per_report", live["gen_cpu_us_per_report"], "us", 1),
        ("gen.lateness_p99_ms", live["lateness_p99_ms"], "ms",
         live["open_frames"]),
    ]
    for name, value, unit, samples in rows:
        res.metric(name, value, unit, samples)
    table = [["stage (span)", "calls", "incl us/report", "self us/report"]]
    for name in ("serve.wire.decode_payload", "serve.wire.report_from_wire",
                 "serve.wal.append_many", "serve.wal.sync",
                 "core.controller.ingest", "core.validation.validate",
                 "geo.zones.zone_id_for", "serve.wire.encode_frame",
                 "python.gc"):
        calls, incl, self_s = tot.get(name, (0, 0.0, 0.0))
        table.append([name, str(calls), f"{incl / reports * 1e6:.3f}",
                      f"{self_s / reports * 1e6:.3f}"])
    table.append(["serve.server transport (residual)", "-",
                  f"{transport:.3f}", "-"])
    return table


# -- the workload ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        res: Result) -> List[Tuple[str, List[List[str]]]]:
    spec = SPECS[workload]
    # One day of the stream; a run sends it again when it outlasts it.
    stream = report_stream.generate(seed)
    frames = Frames(stream, spec["codec"], spec["batch"])
    zones = f"{stream.zones} zones ({fmt_counts(stream.sources)})"
    del stream
    gc.collect()
    gc.freeze()
    root = work_dir(workload)
    tables: List[Tuple[str, List[List[str]]]] = []
    try:
        setups: List[float] = []
        server: Optional[ServerProcess] = None
        try:
            for k in range(SETUP_BEFORE):
                if server is not None:
                    server.stop()
                server = ServerProcess(os.path.join(root, f"wal{k}"))
                setups.append(server.start())
            live = asyncio.run(drive(server.port, frames, spec, seconds,
                                     server.pid))
            server.stop()
            for k in range(SETUP_AFTER):
                extra = ServerProcess(os.path.join(root, f"after{k}"))
                try:
                    setups.append(extra.start())
                finally:
                    extra.stop()
        finally:
            if server is not None:
                server.stop()
        if live["stats"].get("type") != "STATS_REPLY":
            raise RuntimeError(f"bad STATS reply {live['stats']!r}")
        _gates(res, live["ledger"], live["stats"], server.wal_dir)
        _report(res, live, setups, frames, spec, zones)
        if trace:
            tables.append(("per-layer stage table (traced pipeline)",
                           _traced(workload, seed, frames, live, res, root)))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return tables


def _report(res: Result, live: dict, setups: List[float], frames: Frames,
            spec: dict, zones: str) -> None:
    """End-to-end metrics, operation counts and notes of the live run."""
    ledger: Ledger = live["ledger"]
    closed = live["closed_reports"]
    live["server_cpu_us_per_report"] = (
        live["server_cpu_s"] / max(1, closed) * 1e6)
    live["gen_cpu_us_per_report"] = live["gen_cpu_s"] / max(1, closed) * 1e6
    live["lateness_p99_ms"] = quantile(live["lateness"], 0.99) * 1e3
    live["open_frames"] = len(live["latency"])
    res.attempted = ledger.sent_reports()
    res.failed = (ledger.sent_reports() - ledger.acked_reports
                  + ledger.valid_rejected)

    lat_ms = [lat * 1e3 for _, lat in live["latency"]]
    by_window: Dict[int, List[float]] = {}
    for due, lat in live["latency"]:
        by_window.setdefault(int(due // TAIL_WINDOW_S), []).append(lat * 1e3)
    largest = max(len(w) for w in by_window.values())
    tails = [quantile(w, TAIL_Q) for w in by_window.values()
             if len(w) >= largest / 2]
    rates = [w[0] for w in live["windows"]]
    res.metric("setup_s", median(setups), "s", len(setups),
               E2E_LABELS["setup_s"])
    res.metric("ops_per_s", median(rates), "1/s", len(rates),
               E2E_LABELS["ops_per_s"])
    res.metric("cpu_us_per_op", median([w[1] for w in live["windows"]])
               * 1e6, "us", len(rates), E2E_LABELS["cpu_us_per_op"])
    res.metric("p50_ms", quantile(lat_ms, 0.5), "ms", len(lat_ms),
               E2E_LABELS["p50_ms"])
    res.metric("tail_ms", median(tails), "ms", len(lat_ms),
               E2E_LABELS["tail_ms"])
    res.metric("peak_rss_mb", live["rss_mb"], "MB", 1,
               E2E_LABELS["peak_rss_mb"])

    if live["gen_cpu_s"] > live["server_cpu_s"]:
        res.notes.append(
            f"the generator used more CPU ({live['gen_cpu_s']:.2f} s) than "
            f"the server ({live['server_cpu_s']:.2f} s) in the closed "
            "loop: this run measured the generator")
    res.notes.append(
        "open-loop due -> ACK (ms): "
        + " ".join(f"p{100 * q:g}={quantile(lat_ms, q):.3f}"
                   for q in (0.5, 0.75, 0.9, 0.95, 0.99)))
    res.notes.append(
        "closed-loop windows (reports/s): "
        + " ".join(f"p{int(100 * q)}={quantile(rates, q):.0f}"
                   for q in (0.25, 0.5, 0.75, 1.0)))
    res.notes.append(
        f"stream: {len(frames) * frames.batch} reports over {zones}, "
        f"{frames.batch} per frame, codec {frames.codec}; open loop "
        f"{spec['open_rate']:.0f} reports/s offered")


def _traced(workload: str, seed: int, frames: Frames, live: dict,
            res: Result, root: str) -> List[List[str]]:
    wal = live["stats"].get("wal", {})
    per_commit = wal.get("records_logged", 0) / max(1, wal.get(
        "group_commits", 0))
    frames_per_drain = max(1, round(per_commit / frames.batch))
    subset = frames.data[:TRACE_REPORTS // frames.batch]
    tracer = Tracer()
    tracer.trace_gc(True)
    try:
        serve_pipeline(subset, frames.codec, frames_per_drain, tracer,
                       os.path.join(root, "traced"))
    finally:
        tracer.trace_gc(False)
    # The serve stages' own cost, for the transport residual: the same
    # frames with spans off, so a fresh coordinator's first reports
    # weigh as little as in the traced run.
    untraced_s = serve_pipeline(subset, frames.codec, frames_per_drain,
                                NullTracer(), os.path.join(root, "untraced"))
    # Tracing overhead: the same pipeline with spans on and off, in
    # alternating order, on a shorter prefix; median ratio of the pairs.
    short = subset[:len(subset) // 5]
    ratios = []
    for k in range(OVERHEAD_PAIRS):
        walls = {}
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            probe = Tracer() if on else NullTracer()
            probe.trace_gc(True)
            try:
                walls[on] = serve_pipeline(
                    short, frames.codec, frames_per_drain, probe,
                    os.path.join(root, f"overhead-{k}-{int(on)}"))
            finally:
                probe.trace_gc(False)
        ratios.append(walls[True] / walls[False])
    table = per_layer(tracer, live, res,
                      untraced_s / (len(subset) * frames.batch) * 1e6)
    res.metric("bench.trace_overhead_frac", median(ratios) - 1.0, "ratio",
               len(ratios))
    res.notes.append(
        f"traced pipeline: {len(subset)} frames, {frames_per_drain} "
        f"frame(s) per drain, {len(tracer.spans)} spans -> "
        f"{save_spans(tracer, workload, seed)}")
    return table


def _gates(res: Result, ledger: Ledger, stats: dict, wal_dir: str) -> None:
    sent = ledger.sent_reports()
    counters = stats["coordinator"]["counters"]
    ingested = int(counters.get("coordinator.reports_ingested", 0))
    rejected = int(counters.get("coordinator.reports_rejected", 0))
    res.gate("zero drops: every sent report ACKed",
             ledger.acked_reports == sent,
             f"sent={sent} acked={ledger.acked_reports}")
    res.gate("accepted + rejected == sent (ACKs and STATS)",
             ledger.accepted + ledger.rejected == sent
             and ingested + rejected == sent,
             f"acks {ledger.accepted}+{ledger.rejected}, "
             f"STATS {ingested}+{rejected}, sent {sent}")
    planted = ledger.planted_sent()
    seen = {k[len("validator.reject."):]: int(v) for k, v in counters.items()
            if k.startswith("validator.reject.")}
    res.gate("STATS per-reason rejects == planted",
             seen == planted and ledger.valid_rejected == 0,
             f"planted {fmt_counts(planted)}; STATS {fmt_counts(seen)}")
    replayed = replay_wal(wal_dir).metrics.snapshot()
    res.gate("offline replay_wal == live STATS coordinator snapshot",
             canonical(replayed) == canonical(stats["coordinator"]),
             f"{sum(1 for _ in counters)} counters compared")
