"""The seeded client-report stream shared by the serve and store workloads.

The stream is built from the repository's own paper datasets: one
service day (06:00-24:00) of the wide-area collections of the paper's
Table 2, as ``repro.datasets.generator`` synthesizes them by driving
simulated client agents over the landscape (the radio world) of the
workload seed.  Each collection keeps the generator's default fleet,
cadence and probes:

* ``standalone``: 8 transit buses on the city bus routes, NetB, a 1 MB
  TCP download and a 5-ping series every 2 minutes;
* ``wirover``: 5 city buses, NetB and NetC, a 12-ping series per
  carrier every minute;
* ``short-segment``: a car on the 20 km road stretch, a TCP download on
  each of the three carriers every 30 s from 09:00 to 18:00.

WiRover's two intercity coaches are left out: their movement model
integrates speed minute by minute, and their day takes about 20 s to
generate, more than a run can spend on its inputs.  The generator's own
failed measurements (ping series with no replies, value NaN) stay in.

The seed draws the world, which sets every measured value and which
measurements fail, and the planted reports below.  The fleet's day --
which bus drives which route when -- is the generator's default
(``FLEET_SEED``) for every seed: it fixes how many (zone, epoch,
carrier, kind) cells the day touches, and with a seeded fleet that
count varied by +-10% between seeds, which moved the store's query
times by twice that.

Reports are merged in time order, which is their arrival order.  A
stream longer than one day repeats the day, shifted by whole days and
with fresh task ids.  About 1% of the reports are then made
deliberately implausible, each so that exactly one known validator rule
is the first to reject it; the planted reason of every report is kept
beside the stream, so a run can check that the coordinator rejected
exactly what was planted.

Everything is a pure function of the seed and is generated before any
timed phase.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

_SALT = 20111102
SECONDS_PER_DAY = 86_400.0

#: The generator's default seed: the fleet's routes and schedule.
FLEET_SEED = 0

#: Share of reports deliberately made implausible.
PLANTED_SHARE = 0.01


@dataclass
class ReportStream:
    """The generated reports plus what was planted in them."""

    #: Wire-format report dicts (what ``report_to_wire`` emits).
    reports: List[Dict]
    #: Planted rejection reason per report (None for a valid report).
    planted: List[Optional[str]]
    #: Distinct 250 m zone ids the reports fall in.
    zones: int
    #: Reports per collection in one day.
    sources: Dict[str, int]

    def planted_counts(self, indices) -> Dict[str, int]:
        """Per-reason planted counts over the given report indices."""
        counts: Dict[str, int] = {}
        planted = self.planted
        for i in indices:
            reason = planted[i]
            if reason is not None:
                counts[reason] = counts.get(reason, 0) + 1
        return counts


def generate(seed: int, n_reports: Optional[int] = None) -> ReportStream:
    """Build the stream for ``seed``: one day, or ``n_reports`` reports."""
    # The stream is ~10^4-10^5 long-lived objects; collector passes over
    # them while they are built would only slow the generation down.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _generate(seed, n_reports)
    finally:
        if enabled:
            gc.enable()


def _paper_day(seed: int):
    """One service day of the wide-area collections, in time order."""
    from repro.datasets.generator import DatasetGenerator
    from repro.radio.network import build_landscape

    class _Keep(DatasetGenerator):
        """The paper's generator, keeping each client report it logs."""

        def __init__(self, landscape, seed):
            super().__init__(landscape, seed=seed)
            self.kept = []

        def _measure(self, dataset, agent, network, kind, t, **params):
            report = agent.execute(self._task(network, kind, t, **params), t)
            if report is not None:
                self.kept.append((dataset, report))
            return None

    gen = _Keep(build_landscape(seed=seed), seed=FLEET_SEED)
    gen.standalone(days=1)
    gen.wirover(days=1, n_intercity=0)
    gen.short_segment(days=1)
    sources: Dict[str, int] = {}
    for dataset, _ in gen.kept:
        sources[dataset] = sources.get(dataset, 0) + 1
    day = [r for _, r in sorted(gen.kept, key=lambda dr: (dr[1].start_s,
                                                         dr[1].task_id))]
    return day, sources


def _generate(seed: int, n_reports: Optional[int]) -> ReportStream:
    from repro.geo.regions import madison_study_area
    from repro.geo.zones import ZoneGrid
    from repro.serve.wire import report_to_wire

    day, sources = _paper_day(seed)
    n = len(day) if n_reports is None else n_reports
    reports: List[Dict] = []
    planted: List[Optional[str]] = []
    # Day k draws its plants from its own generator, so a shorter
    # stream is a prefix of a longer one with the same seed.
    for k in range(-(-n // len(day))):
        rng = np.random.default_rng([seed, _SALT, k])
        mask = (rng.random(len(day)) < PLANTED_SHARE).tolist()
        picks = rng.random(len(day)).tolist()
        shift = k * SECONDS_PER_DAY
        for j, report in enumerate(day[:n - len(reports)]):
            wire = report_to_wire(report)
            wire["task_id"] += k * len(day)
            wire["start_s"] += shift
            wire["end_s"] += shift
            reports.append(wire)
            planted.append(_plant(wire, picks[j]) if mask[j] else None)
    grid = ZoneGrid(madison_study_area().anchor, radius_m=250.0)
    lat = np.fromiter((r["lat"] for r in reports), float, len(reports))
    lon = np.fromiter((r["lon"] for r in reports), float, len(reports))
    # Zone ids exactly as ZoneGrid.zone_id_for computes them.
    zx, zy = grid.projection.to_xy_batch(lat, lon)
    zones = set(zip(np.rint(zx / grid.pitch_m).astype(int).tolist(),
                    np.rint(zy / grid.pitch_m).astype(int).tolist()))
    return ReportStream(reports=reports, planted=planted, zones=len(zones),
                        sources=sources)


def _plant(report: Dict, pick: float) -> str:
    """Make ``report`` implausible so one known rule rejects it first.

    The validator checks duration, then speed, then the kind-specific
    value and samples; each edit below keeps every earlier check
    passing, so the returned reason is the one the validator reports.
    """
    options = ["negative-duration", "implausible-speed"]
    if report["kind"] == "ping":
        options.append("implausible-rtt")
        if report["samples"]:
            options.append("implausible-rtt-sample")
    else:
        options += ["nan-throughput", "implausible-throughput"]
        if report["samples"]:
            options.append("implausible-sample")
    reason = options[min(int(pick * len(options)), len(options) - 1)]
    if reason == "negative-duration":
        report["end_s"] = report["start_s"] - 5.0
    elif reason == "implausible-speed":
        report["speed_ms"] = 150.0
    elif reason == "implausible-rtt":
        report["value"] = 30.0
    elif reason == "implausible-rtt-sample":
        report["samples"][0] = 45.0
    elif reason == "nan-throughput":
        report["value"] = float("nan")
    elif reason == "implausible-throughput":
        report["value"] = 2.0e8
    else:
        report["samples"][0] = -1.0
    return reason
