"""Metrics primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the single mutable sink every instrumented
layer writes to.  Three deliberate constraints keep it fit for the hot
paths it instruments:

* **Dependency-free and allocation-light** — metric objects are plain
  Python objects created once and cached by name; the steady-state cost
  of ``registry.counter("x").inc()`` is a dict lookup plus an int add
  (both atomic under the GIL, hence lock-free in the common case).
* **No wall-clock anywhere** — snapshots are pure functions of what was
  recorded, so two identical seeded runs produce byte-identical
  ``metrics.json`` files.
* **A true no-op twin** — :class:`NullMetricsRegistry` hands out shared
  do-nothing metric objects, so instrumentation left in a hot loop costs
  one method call when telemetry is disabled and golden outputs stay
  bit-identical (no RNG draw, no state, no I/O).

Histograms use fixed bucket boundaries chosen at creation time (the
first caller wins; later callers with different boundaries get the
existing histogram).  Fixed buckets make merged/streamed aggregation
trivial (:func:`merge_snapshots`) and keep ``observe`` O(log n_buckets)
via bisection.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "merge_snapshots",
    "quantile_from_snapshot",
]

#: Default histogram boundaries: log-ish spread covering probabilities,
#: latencies in seconds, and small counts alike.  Callers with a known
#: scale should pass explicit ``buckets``.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)


class Counter:
    """A monotonically increasing count (float increments allowed)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative by convention)."""
        self.value += amount


class Gauge:
    """A point-in-time value that can move either way."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the value up by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the value down by ``amount``."""
        self.value -= amount

    def max(self, value: float) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Fixed-boundary bucketed distribution with sum/min/max.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    is the overflow bucket (``> bounds[-1]``).
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one sample into its bucket (O(log n_buckets))."""
        v = float(value)
        self.counts[bisect_left(self.bounds, v)] += 1
        self.total += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) from bucket boundaries.

        Returns the upper bound of the bucket containing the quantile
        (the observed max for the overflow bucket) — the usual
        fixed-bucket estimate: exact ordering is gone, the bound is a
        guaranteed over-estimate by at most one bucket width.  The
        extremes are exact: ``q=0`` is the observed min and ``q=1`` the
        observed max, which also clamps every estimate into
        ``[min, max]`` so percentiles are monotone in ``q``.  Computed
        by :func:`quantile_from_snapshot` over :meth:`snapshot`, so live
        and file-side quantiles are one function.
        """
        return quantile_from_snapshot(self.snapshot(), q)

    def snapshot(self) -> dict:
        """JSON-ready state: buckets, counts, count/sum/min/max."""
        return {
            "buckets": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
            "min": self.min if self.total else None,
            "max": self.max if self.total else None,
        }


def quantile_from_snapshot(snapshot: dict, q: float) -> float:
    """Fixed-bucket q-quantile from a serialized histogram snapshot.

    The one bucket walk: :meth:`Histogram.percentile` calls it on its
    own snapshot.  NaN when empty, exact min/max at q=0/q=1, estimates
    clamped into the observed range, so reports rendered from
    ``metrics.json``/``snapshots.jsonl`` agree with live queries.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    total = snapshot.get("count", 0)
    if not total:
        return float("nan")
    lo = snapshot.get("min")
    hi = snapshot.get("max")
    lo = float("-inf") if lo is None else lo
    hi = float("inf") if hi is None else hi
    if q == 0.0 and lo > float("-inf"):
        return lo
    if q == 1.0 and hi < float("inf"):
        return hi
    rank = q * total
    seen = 0
    bounds = snapshot.get("buckets", [])
    for i, c in enumerate(snapshot.get("counts", [])):
        seen += c
        if seen >= rank and c:
            if i < len(bounds):
                return min(max(bounds[i], lo), hi)
            return hi if hi < float("inf") else float("nan")
    return hi if hi < float("inf") else float("nan")


def merge_snapshots(snaps: Iterable[dict]) -> dict:
    """Fold registry snapshots into one registry-shaped snapshot.

    The one registry fold: the gateway's cross-shard STATS, the sweep
    reducer and the store's merged runs all call it.  Snapshots fold in
    the order given (float addition order is part of the result);
    counters and gauges sum; histograms merge element-wise (counts,
    count and sum add; min/max combine ignoring ``None``).  Output keys
    are sorted, so equal inputs give byte-equal JSON.

    Raises ValueError naming the histogram when two snapshots disagree
    on its bucket layout: a merge that kept one layout would write a
    histogram whose ``count`` is not ``sum(counts)``.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for snap in snaps:
        for key, value in (snap.get("counters") or {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in (snap.get("gauges") or {}).items():
            gauges[key] = gauges.get(key, 0) + value
        for name, hist in (snap.get("histograms") or {}).items():
            buckets = list(hist.get("buckets", []))
            counts = list(hist.get("counts", []))
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "buckets": buckets, "counts": counts,
                    "count": hist.get("count", 0),
                    "sum": hist.get("sum", 0.0),
                    "min": hist.get("min"), "max": hist.get("max"),
                }
                continue
            if (merged["buckets"] != buckets
                    or len(merged["counts"]) != len(counts)):
                raise ValueError(
                    f"histogram {name!r}: bucket layouts differ"
                )
            merged["counts"] = [a + b for a, b in zip(merged["counts"],
                                                      counts)]
            merged["count"] += hist.get("count", 0)
            merged["sum"] += hist.get("sum", 0.0)
            for key, pick in (("min", min), ("max", max)):
                seen = [v for v in (merged[key], hist.get(key))
                        if v is not None]
                merged[key] = pick(seen) if seen else None
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
    }


class MetricsRegistry:
    """Named metric store; the write side of the telemetry layer."""

    enabled = True

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- access (create on first use) ----------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """The named histogram; ``buckets`` only applies on creation."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                name, buckets if buckets is not None else DEFAULT_BUCKETS
            )
        return h

    # -- read side -------------------------------------------------------

    def counter_value(self, name: str) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        c = self._counters.get(name)
        return c.value if c is not None else 0.0

    def gauge_value(self, name: str) -> float:
        """Current value of a gauge (0.0 if never set)."""
        g = self._gauges.get(name)
        return g.value if g is not None else 0.0

    def snapshot(self) -> dict:
        """Deterministic (sorted-key) dict of every metric's state."""
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {
                k: self._gauges[k].value for k in sorted(self._gauges)
            },
            "histograms": {
                k: self._histograms[k].snapshot()
                for k in sorted(self._histograms)
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON rendering (byte-stable across identical runs)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    value = 0.0


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    value = 0.0


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    total = 0
    sum = 0.0
    mean = 0.0

    def percentile(self, q: float) -> float:
        return float("nan")

    def snapshot(self) -> dict:
        return {}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetricsRegistry:
    """Do-nothing registry: every handle is a shared no-op singleton.

    This is what disabled telemetry hands to instrumentation sites, so
    the per-call cost is one attribute lookup and one no-op call — the
    overhead the ``benchmarks/test_perf_microbench.py`` gate bounds.
    """

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        """The shared no-op counter."""
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        """The shared no-op gauge."""
        return _NULL_GAUGE

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> _NullHistogram:
        """The shared no-op histogram."""
        return _NULL_HISTOGRAM

    def counter_value(self, name: str) -> float:
        """Always 0.0 — nothing is recorded when disabled."""
        return 0.0

    def gauge_value(self, name: str) -> float:
        """Always 0.0 — nothing is recorded when disabled."""
        return 0.0

    def snapshot(self) -> dict:
        """The empty snapshot shape (same keys as the real registry)."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def to_json(self, indent: int = 2) -> str:
        """Canonical JSON of the (empty) snapshot."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


#: Shared no-op registry instance (stateless, safe to share globally).
NULL_REGISTRY = NullMetricsRegistry()
