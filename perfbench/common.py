"""Shared plumbing of the benchmark: paths, process accounting, spans, results.

Nothing here imports the system under test; the workload modules do,
after :func:`ensure_source` has put the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

#: The checkout root (the directory holding ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for WALs, stores, sweep roots and span files.
WORK = os.path.join(ROOT, ".perfbench")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def ensure_source() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or raise.

    Also points temporary files (SQLite spills, ``tempfile``) of this
    process and its children into :data:`WORK`, so a run writes only
    inside its checkout.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SourceMissing(f"no repro package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = tmp


def work_dir(name: str) -> str:
    """A fresh, empty directory under :data:`WORK` for one run."""
    path = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- statistics ---------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated q-quantile of ``values`` (NaN when empty)."""
    if not values:
        return float("nan")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    """The 0.5-quantile."""
    return quantile(values, 0.5)


# -- outside-in process accounting ----------------------------------------------


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid``, from /proc."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        stat = fh.read()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = stat[stat.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int, field: str = "VmHWM") -> float:
    """Peak resident set (VmHWM) of process ``pid`` in MB, from /proc.

    ``field="VmRSS"`` reads the current resident set instead.
    """
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for pid {pid}")


def reset_peak_rss() -> float:
    """Reset this process's VmHWM to its current RSS; return that, in MB.

    Writing 5 to ``/proc/self/clear_refs`` restarts the peak, so a later
    :func:`proc_hwm_mb` covers only what ran after the reset.
    """
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")
    return proc_hwm_mb(os.getpid(), "VmRSS")


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder for the benchmark's traced runs.

    A span is ``[name, start_ns, end_ns, parent, group]``: ``parent`` is
    the index of the span open when it began (-1 at top level) and
    ``group`` ties together the spans of one frame, drain or chunk.
    Counts are recorded at the same boundaries.  Nothing is written
    until :meth:`write`, once the run ends.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self.group = 0

    def begin(self, name: str) -> int:
        # The record is appended before its index is read: building it
        # may set off a collector pass, whose span lands first.
        span = [name, 0, 0, self._stack[-1] if self._stack else -1,
                self.group]
        self.spans.append(span)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        span[1] = time.perf_counter_ns()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def trace_gc(self, on: bool) -> None:
        """Record each garbage-collector pass as a ``python.gc`` span.

        A collection runs inside whichever span allocated last; as its
        own child span it is taken out of that span's self time.
        """
        if on:
            gc.callbacks.append(self._on_gc)
        else:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        # Recorded beside the span stack, not through begin/end: a pass
        # can start inside begin, between two of its steps.
        if phase == "start":
            self._gc_span = ["python.gc", time.perf_counter_ns(), 0,
                             self._stack[-1] if self._stack else -1,
                             self.group]
            self.spans.append(self._gc_span)
        else:
            self._gc_span[2] = time.perf_counter_ns()

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """Per name: (calls, inclusive seconds, self seconds)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_ns[i]
        return {k: (v[0], v[1] / 1e9, v[2] / 1e9) for k, v in out.items()}

    def durations(self, name: str) -> List[float]:
        """Inclusive seconds of every span called ``name``, in order."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]

    def write(self, path: str) -> None:
        """Write every span and count as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_ns", "end_ns", "parent", "group"],
                "spans": self.spans,
                "counts": self.counts,
            }, fh)


def save_spans(tracer: Tracer, workload: str, seed: int) -> str:
    """Write a run's spans once, at its end; return the path written."""
    out = os.path.join(WORK, "spans")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{workload}-seed{seed}.json")
    tracer.write(path)
    return os.path.relpath(path, ROOT)


def span_cost_s(pairs: int = 20_000) -> float:
    """Measured seconds one begin/end pair costs on this machine."""
    probe = Tracer()
    t0 = time.perf_counter()
    for _ in range(pairs):
        probe.end(probe.begin("probe"))
    return (time.perf_counter() - t0) / pairs


class NullTracer(Tracer):
    """Same interface, records nothing: the spans-off twin run."""

    enabled = False

    def begin(self, name: str) -> int:
        return 0

    def end(self, idx: int) -> None:
        pass

    def count(self, name: str, n: float = 1) -> None:
        pass

    def trace_gc(self, on: bool) -> None:
        pass


# -- the result ----------------------------------------------------------------


class Result:
    """Metrics, gates and operation counts of one benchmark run."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        #: name -> (value, unit, samples, label)
        self.metrics: Dict[str, Tuple[float, str, int, str]] = {}
        self.gates: List[Tuple[str, bool, str]] = []
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str, samples: int,
               label: str = "") -> None:
        """Record one metric; ``label`` is its workload-specific meaning."""
        if not math.isfinite(value):
            raise ValueError(f"metric {name} measured {value}")
        self.metrics[name] = (float(value), unit, int(samples), label)

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.gates) and all(ok for _, ok, _ in self.gates)

    def emit(self, names: Sequence[str],
             extra_tables: Sequence[Tuple[str, List[List[str]]]] = ()
             ) -> None:
        """Print the human-readable report, then the JSON result line."""
        mode = "traced (per-layer)" if self.trace else "untraced (end-to-end)"
        print(f"== perfbench {self.workload} seed={self.seed} {mode}")
        for title, rows in extra_tables:
            print(f"-- {title}")
            _print_rows(rows)
        rows = [["metric", "value", "unit", "samples", "meaning"]]
        extra = [n for n in self.metrics if n not in names]
        for name in list(names) + extra:
            value, unit, samples, label = self.metrics[name]
            rows.append([name, f"{value:.6g}", unit, str(samples), label])
        print("-- metrics")
        _print_rows(rows)
        frac = self.failed / self.attempted if self.attempted else 0.0
        print(f"-- operations: attempted={self.attempted} "
              f"failed={self.failed} failed_frac={frac:.6g} ratio")
        print("-- correctness gates")
        for name, ok, detail in self.gates:
            print(f"  [{'ok' if ok else 'FAIL'}] {name}"
                  + (f": {detail}" if detail else ""))
        for note in self.notes:
            print(f"note: {note}")
        out = {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {
                name: {"value": self.metrics[name][0],
                       "unit": self.metrics[name][1]}
                for name in names
            },
        }
        sys.stdout.flush()
        print(json.dumps(out))
        sys.stdout.flush()


def _print_rows(rows: List[List[str]]) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def canonical(obj: Any) -> str:
    """Sorted-key compact JSON, the byte form the gates compare."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fmt_counts(counts: Dict[str, int]) -> str:
    return ", ".join(f"{k}={counts[k]}" for k in sorted(counts)) or "none"
