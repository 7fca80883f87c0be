"""Sweep scenarios: the per-cell workloads a grid shards across workers.

A **scenario** is a named function ``(cell, ctx) -> dict`` that runs one
experiment cell and returns a flat dict of JSON-able metrics.  The two
arguments carry the two kinds of state a cell may touch:

* :class:`~repro.sweep.grid.SweepCell` — the *identity*: scenario name,
  world seed, config overrides, and the cell-id-derived RNG.  Scenarios
  must draw randomness only from ``cell.rng()`` / ``cell.derived_seed()``
  so results are byte-identical regardless of worker schedule.
* :class:`WorkerContext` — the *warm state*: a per-worker memo of
  expensive, reusable artifacts (built landscapes with their radio-field
  point caches, generated survey traces, representative spots).  Sharing
  is safe because everything memoized is a pure function of its key.

This module also hosts the *cores* of the five ablation studies — the
math previously inlined in ``benchmarks/test_ablation_*.py``, which now
import it from here — and the multi-network driving comparison from
``examples/multi_network_driving.py``.  The benchmarks keep their
paper-scale fixtures and shape assertions; the sweep presets run the
same cores at reduced scale, one grid point per cell.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.telemetry import NULL_TELEMETRY, use_telemetry
from repro.sweep.grid import SweepCell, SweepGrid

__all__ = [
    "DEFAULT_CONTEXT_CACHE_MAX",
    "WorkerContext",
    "prewarm_shared_landscapes",
    "scenario",
    "get_scenario",
    "scenario_names",
    "preset_grid",
    "preset_names",
    "CANDIDATE_EPOCHS_MIN",
    "SAMPLE_BUDGETS",
    "ZONE_RADII_M",
    "SWITCH_DELAYS_S",
    "MULTISIM_STRATEGIES",
    "measurement_series",
    "epoch_prediction_error",
    "zone_radius_stats",
    "sample_budget_errors",
    "build_fleet",
    "run_budgeted",
    "run_greedy",
    "client_overhead",
    "estimation_accuracy",
    "switch_cost_trial",
    "multisim_fetch",
    "mar_fetch",
]

# Grid axes shared between the benchmarks and the sweep presets.
CANDIDATE_EPOCHS_MIN = [5.0, 15.0, 30.0, 60.0, 90.0, 150.0, 240.0]
SAMPLE_BUDGETS = [5, 10, 25, 50, 100, 200]
ZONE_RADII_M = [125.0, 250.0, 500.0, 1000.0]
SWITCH_DELAYS_S = [0.0, 2.0, 5.0, 10.0]
MULTISIM_STRATEGIES = [
    "wiscape", "fixed-NetA", "fixed-NetB", "fixed-NetC", "round-robin",
]


# ---------------------------------------------------------------------------
# Worker-local warm state
# ---------------------------------------------------------------------------


#: Default LRU bound on a worker's memoized artifacts.  Landscapes and
#: multi-day traces each weigh tens of megabytes; without a cap a
#: long multi-seed grid grows worker RSS monotonically.
DEFAULT_CONTEXT_CACHE_MAX = 16

#: Module-level landscape store, shared copy-on-write by forked
#: workers.  :func:`prewarm_shared_landscapes` fills it in the parent
#: process *before* the pool forks, so every worker inherits the
#: already-built landscapes through fork's memory sharing instead of
#: rebuilding them per process — on a 1-CPU box the rebuild is most of
#: why a 4-worker sweep used to run *slower* than serial.  Workers
#: under the spawn start method see an empty dict and fall back to the
#: per-worker memo: the prewarm only ever changes build time, never
#: results (every entry is a pure function of its key).
_SHARED_LANDSCAPES: Dict[Tuple, Any] = {}


def prewarm_shared_landscapes(
    seeds: Sequence[int],
    include_road: bool = True,
    include_nj: bool = True,
) -> int:
    """Build each seed's landscape into the shared module-level store.

    Call in the pool parent before forking workers.  Returns how many
    landscapes were actually built (already-present keys are skipped).
    """
    from repro.radio.network import build_landscape

    built = 0
    for seed in seeds:
        key = ("landscape", int(seed), include_road, include_nj)
        if key not in _SHARED_LANDSCAPES:
            _SHARED_LANDSCAPES[key] = build_landscape(
                seed=int(seed), include_road=include_road,
                include_nj=include_nj,
            )
            built += 1
    return built


class WorkerContext:
    """Per-worker memo of expensive reusable state.

    One instance lives for the lifetime of a worker process; successive
    cells on the same worker reuse built landscapes (with their warmed
    radio-field point caches) and generated survey traces instead of
    rebuilding them.  Every entry is a pure function of its key, so the
    memo can never make results depend on which worker ran which cell.

    The memo is an LRU bounded at ``cache_max`` entries (the
    ``sweep.context_cache_max`` knob): a cap keeps long paper-grid
    sweeps from growing worker RSS without limit, and because entries
    are pure functions of their keys, eviction can only cost rebuild
    time, never correctness.
    """

    def __init__(self, cache_max: int = DEFAULT_CONTEXT_CACHE_MAX) -> None:
        if cache_max < 1:
            raise ValueError("cache_max must be >= 1")
        self.cache_max = int(cache_max)
        self._memo: "OrderedDict[Tuple, Any]" = OrderedDict()
        #: Entries dropped by the LRU bound so far (schedule-dependent:
        #: reported via sweep_status.json, never via cell artifacts).
        self.evictions = 0
        #: Artifact directory of the cell currently executing; set by the
        #: runner before each scenario call so scenarios can drop extra
        #: files (e.g. captured subprocess output) next to cell.json.
        self.cell_dir: Optional[str] = None

    @property
    def cache_size(self) -> int:
        """Entries currently memoized."""
        return len(self._memo)

    def memo(self, key: Tuple, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on first use.

        A hit refreshes the entry's LRU recency; a miss builds, inserts,
        and then evicts least-recently-used entries down to
        ``cache_max``.  Eviction runs after the insert because ``build``
        may itself memoize dependencies (a performance map memoizes the
        landscape and trace it is derived from).

        ``build`` runs with telemetry disabled: a memoized artifact is
        built once per worker, so charging its counters to whichever
        cell missed first would make merged metrics depend on the
        worker count.
        """
        memo = self._memo
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        with use_telemetry(NULL_TELEMETRY):
            value = build()
        memo[key] = value
        memo.move_to_end(key)
        while len(memo) > self.cache_max:
            memo.popitem(last=False)
            self.evictions += 1
        return value

    # -- landscapes ------------------------------------------------------

    def landscape(self, seed: int, include_road: bool = True,
                  include_nj: bool = True):
        """The built (and progressively cache-warmed) world for ``seed``.

        Checks the fork-shared :data:`_SHARED_LANDSCAPES` store first —
        a prewarmed landscape is used in place (copy-on-write pages,
        outside the LRU) — and only falls back to the per-worker memo
        for seeds the parent never prewarmed.
        """
        from repro.radio.network import build_landscape

        key = ("landscape", seed, include_road, include_nj)
        shared = _SHARED_LANDSCAPES.get(key)
        if shared is not None:
            return shared
        return self.memo(key, lambda: build_landscape(
            seed=seed, include_road=include_road, include_nj=include_nj
        ))

    def _generator(self, world_seed: int, gen_seed: int):
        """A fresh, deterministic dataset generator over the memo landscape.

        Built anew per call (generators advance internal RNG state as
        they emit), but over the shared landscape so point caches warm
        across cells.
        """
        from repro.datasets.generator import DatasetGenerator

        return DatasetGenerator(self.landscape(world_seed), seed=gen_seed)

    # -- survey traces ---------------------------------------------------

    def standalone_trace(self, world_seed: int, gen_seed: int, days: int,
                         n_buses: int = 6, n_routes: int = 8,
                         interval_s: float = 120.0, ping_count: int = 2):
        """Memoized scaled Standalone dataset (city buses, NetB)."""
        key = ("standalone", world_seed, gen_seed, days, n_buses, n_routes,
               interval_s, ping_count)
        return self.memo(key, lambda: self._generator(
            world_seed, gen_seed
        ).standalone(days=days, n_buses=n_buses, n_routes=n_routes,
                     interval_s=interval_s, ping_count=ping_count))

    def short_segment_trace(self, world_seed: int, gen_seed: int, days: int,
                            interval_s: float = 30.0):
        """Memoized short-segment road survey (TCP on all carriers)."""
        key = ("short_segment", world_seed, gen_seed, days, interval_s)
        return self.memo(key, lambda: self._generator(
            world_seed, gen_seed
        ).short_segment(days=days, interval_s=interval_s))

    def spot(self, world_seed: int, region: str):
        """The representative WI/NJ measurement spot for this world."""
        from repro.analysis.spots import select_representative_spot
        from repro.geo.regions import NEW_BRUNSWICK, madison_spot_locations
        from repro.radio.technology import NetworkId

        def build():
            landscape = self.landscape(world_seed)
            if region == "wi":
                return select_representative_spot(
                    landscape, madison_spot_locations(1)[0],
                    [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C],
                    search_radius_m=1500.0,
                )
            return select_representative_spot(
                landscape, NEW_BRUNSWICK,
                [NetworkId.NET_B, NetworkId.NET_C],
                search_radius_m=2000.0,
            )

        return self.memo(("spot", world_seed, region), build)

    def proximate_trace(self, world_seed: int, gen_seed: int, region: str,
                        days: int, interval_s: float = 45.0,
                        udp_packets: int = 60):
        """Memoized proximate (driving-loop) trace around a spot."""
        from repro.radio.technology import NetworkId

        nets = (
            [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]
            if region == "wi" else [NetworkId.NET_B, NetworkId.NET_C]
        )
        key = ("proximate", world_seed, gen_seed, region, days, interval_s,
               udp_packets)
        return self.memo(key, lambda: self._generator(
            world_seed, gen_seed
        ).proximate(self.spot(world_seed, region), region, networks=nets,
                    days=days, interval_s=interval_s,
                    udp_packets=udp_packets))

    def performance_map(self, world_seed: int, gen_seed: int, days: int,
                        radius_m: float = 250.0):
        """Memoized WiScape zone-performance map of the road segment."""
        from repro.apps.multisim import ZonePerformanceMap
        from repro.geo.zones import ZoneGrid

        def build():
            landscape = self.landscape(world_seed)
            grid = ZoneGrid(landscape.study_area.anchor, radius_m=radius_m)
            survey = self.short_segment_trace(world_seed, gen_seed, days)
            return ZonePerformanceMap.from_records(survey, grid)

        return self.memo(("pmap", world_seed, gen_seed, days, radius_m), build)


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Callable[[SweepCell, WorkerContext], dict]] = {}


def scenario(name: str, needs_landscape: bool = False):
    """Decorator registering a scenario function under ``name``.

    ``needs_landscape`` marks scenarios that (directly or through a
    memoized trace) call :meth:`WorkerContext.landscape`; the pool
    runner prewarms the fork-shared landscape store only for those, so
    lightweight grids (smoke cells, subprocess benches) never pay a
    world build they will not use.
    """

    def wrap(fn):
        fn.needs_landscape = needs_landscape
        _REGISTRY[name] = fn
        return fn

    return wrap


def get_scenario(name: str) -> Callable[[SweepCell, WorkerContext], dict]:
    """Look up a registered scenario; raises ``KeyError`` with options."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; options: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Ablation cores (shared with benchmarks/test_ablation_*.py)
# ---------------------------------------------------------------------------


def measurement_series(records, net=None):
    """(times, values) arrays of the UDP-train series for one carrier."""
    from repro.clients.protocol import MeasurementType
    from repro.radio.technology import NetworkId

    net = net or NetworkId.NET_B
    pts = sorted(
        (r.time_s, r.value)
        for r in records
        if r.kind is MeasurementType.UDP_TRAIN
        and r.network is net
        and not math.isnan(r.value)
    )
    return (np.array([t for t, _ in pts]), np.array([v for _, v in pts]))


def epoch_prediction_error(times, values, epoch_s, budget=100):
    """Mean |next-epoch mean - this-epoch estimate| / truth.

    The estimate uses only the first ``budget`` samples of each epoch
    (WiScape's budget); the target is the *full* mean of the following
    epoch.  The ablation core behind ``test_ablation_epoch``.
    """
    idx = (times // epoch_s).astype(int)
    epochs: Dict[int, list] = {}
    for i, v in zip(idx, values):
        epochs.setdefault(int(i), []).append(v)
    keys = sorted(epochs)
    errors = []
    for a, b in zip(keys, keys[1:]):
        if b != a + 1 or len(epochs[a]) < 5 or len(epochs[b]) < 5:
            continue
        estimate = float(np.mean(epochs[a][:budget]))
        truth = float(np.mean(epochs[b]))
        errors.append(abs(estimate - truth) / truth)
    return float(np.mean(errors)) if errors else float("nan")


def zone_radius_stats(records, origin, radius_m, min_samples=100):
    """Zone-count / homogeneity trade-off at one zone radius.

    Bins the NetB TCP samples of ``records`` into ``radius_m`` zones and
    reports how many zones qualify (>= ``min_samples``) and how
    internally variable the qualified ones are — the core behind
    ``test_ablation_zone_radius``.
    """
    from repro.clients.protocol import MeasurementType
    from repro.geo.zones import ZoneGrid
    from repro.network.metrics import relative_std
    from repro.radio.technology import NetworkId

    values = [
        (r.point, r.value)
        for r in records
        if r.kind is MeasurementType.TCP_DOWNLOAD
        and r.network is NetworkId.NET_B
        and not math.isnan(r.value)
    ]
    grid = ZoneGrid(origin, radius_m=radius_m)
    by_zone: Dict[Any, list] = {}
    for point, value in values:
        by_zone.setdefault(grid.zone_id_for(point), []).append(value)
    qualified = {z: v for z, v in by_zone.items() if len(v) >= min_samples}
    rels = [relative_std(v) for v in qualified.values()]
    return {
        "zones_total": len(by_zone),
        "zones_qualified": len(qualified),
        "qualified_fraction": len(qualified) / max(1, len(by_zone)),
        "median_relstd": float(np.median(rels)) if rels else float("nan"),
    }


def sample_budget_errors(records, origin, budget, radius_m=250.0,
                         client_fraction=0.3, min_truth_samples=100, seed=5):
    """Per-zone WiScape estimation errors at one per-epoch sample budget."""
    from repro.analysis.figures import wiscape_error_cdf
    from repro.geo.zones import ZoneGrid

    grid = ZoneGrid(origin, radius_m=radius_m)
    return np.asarray(wiscape_error_cdf(
        records, grid,
        client_fraction=client_fraction, sample_budget=budget,
        min_truth_samples=min_truth_samples, seed=seed,
    ))


def build_fleet(landscape, coordinator, seed_base, n_buses=4, n_routes=6,
                networks=None):
    """Register ``n_buses`` transit-bus agents on ``coordinator``."""
    from repro.clients.agent import ClientAgent
    from repro.clients.device import Device, DeviceCategory
    from repro.mobility.routes import city_bus_routes
    from repro.mobility.vehicles import TransitBus
    from repro.radio.technology import NetworkId

    networks = networks or [NetworkId.NET_B]
    routes = city_bus_routes(landscape.study_area, count=n_routes)
    for b in range(n_buses):
        bus = TransitBus(bus_id=b, routes=routes, seed=seed_base + b)
        device = Device(
            f"bus{seed_base}-{b}", DeviceCategory.SBC_PCMCIA, networks,
            seed=seed_base + b,
        )
        coordinator.register_client(ClientAgent(
            f"bus{seed_base}-{b}", device, bus, landscape, seed=seed_base + b
        ))


def run_budgeted(landscape, hours=4.0, n_buses=4, seed=1, seed_base=10,
                 start_h=8.0):
    """WiScape's budgeted scheduler over a bus fleet; returns coordinator."""
    from repro.clients.protocol import MeasurementType
    from repro.core.config import WiScapeConfig
    from repro.core.controller import MeasurementCoordinator
    from repro.geo.zones import ZoneGrid
    from repro.sim.engine import EventEngine

    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
    config = WiScapeConfig(task_kinds=(MeasurementType.UDP_TRAIN,))
    coordinator = MeasurementCoordinator(grid, config=config, seed=seed)
    build_fleet(landscape, coordinator, seed_base=seed_base, n_buses=n_buses)
    engine = EventEngine()
    engine.clock.reset(start_h * 3600.0)
    until = (start_h + hours) * 3600.0
    coordinator.attach(engine, until=until)
    engine.run(until=until)
    return coordinator


def run_greedy(landscape, hours=4.0, n_buses=4, seed=1, seed_base=10,
               start_h=8.0):
    """Greedy always-measure baseline: every active client, every tick."""
    from repro.clients.protocol import MeasurementTask, MeasurementType
    from repro.core.config import WiScapeConfig
    from repro.core.controller import MeasurementCoordinator
    from repro.geo.zones import ZoneGrid
    from repro.radio.technology import NetworkId

    grid = ZoneGrid(landscape.study_area.anchor, radius_m=250.0)
    config = WiScapeConfig(task_kinds=(MeasurementType.UDP_TRAIN,))
    coordinator = MeasurementCoordinator(grid, config=config, seed=seed)
    build_fleet(landscape, coordinator, seed_base=seed_base, n_buses=n_buses)
    task_ids = iter(range(10 ** 9))
    for tick in range(int(hours * 3600 / config.tick_interval_s)):
        now = start_h * 3600.0 + (tick + 1) * config.tick_interval_s
        for agent in coordinator.clients.values():
            if not agent.is_active(now):
                continue
            report = agent.execute(
                MeasurementTask(
                    task_id=next(task_ids), network=NetworkId.NET_B,
                    kind=MeasurementType.UDP_TRAIN,
                    params={"n_packets": config.udp_packets_per_task},
                ),
                now,
            )
            if report is not None:
                coordinator.stats.tasks_issued += 1
                coordinator.ingest(report)
        for rec in coordinator.store.records():
            coordinator._close_and_alert(rec, now)
    return coordinator


def client_overhead(coordinator) -> dict:
    """Fleet-wide task/byte/energy overhead totals for one policy run."""
    agents = list(coordinator.clients.values())
    return {
        "tasks": sum(a.reports_completed for a in agents),
        "mbytes": sum(a.bytes_transferred for a in agents) / 1e6,
        "joules": sum(a.energy.total_j for a in agents),
    }


def estimation_accuracy(coordinator, landscape) -> float:
    """Median |published estimate - ground truth| / truth over streams."""
    from repro.clients.protocol import MeasurementType

    errors = []
    for rec in coordinator.store.records():
        zone, net, kind = rec.key
        if kind is not MeasurementType.UDP_TRAIN or rec.published is None:
            continue
        if rec.published.n_samples < 30:
            continue
        center = coordinator.grid.zone(zone).center
        if landscape.network(net)._patch_at(center) is not None:
            continue
        truth = np.mean([
            landscape.link_state(
                net, center,
                rec.published.start_s
                + f * (rec.published.end_s - rec.published.start_s),
            ).downlink_bps
            for f in (0.1, 0.5, 0.9)
        ])
        errors.append(abs(rec.published.mean - truth) / truth)
    return float(np.median(errors)) if errors else float("nan")


def switch_cost_trial(landscape, pmap, scheme, switch_delay_s, pages,
                      starts, radius_m=250.0, car_seed=150, client_seed=250):
    """One (selector scheme, switch delay) trial of the switch-cost study.

    Returns ``{"total_s": ..., "switches": ...}`` aggregated over the
    ``starts`` offsets.  ``scheme`` is ``greedy`` (best-zone),
    ``hysteresis`` (>=20% predicted gain) or ``fixed-best`` (the best
    single carrier, zero switches).
    """
    from repro.apps.multisim import (
        BestZoneSelector,
        FixedSelector,
        HysteresisSelector,
        MultiSimClient,
    )
    from repro.geo.regions import short_segment_road
    from repro.geo.zones import ZoneGrid
    from repro.mobility.routes import Route
    from repro.mobility.vehicles import Car
    from repro.radio.technology import NetworkId

    nets = [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=radius_m)
    route = Route(name="seg", waypoints=short_segment_road().waypoints)

    def fresh_client():
        car = Car(car_id=30, route=route, seed=car_seed)
        return MultiSimClient(
            landscape, car, grid, nets, seed=client_seed,
            switch_delay_s=switch_delay_s,
        )

    if scheme == "fixed-best":
        totals = []
        for net in nets:
            client = fresh_client()
            totals.append(sum(
                client.fetch(pages, FixedSelector(net), s).total_duration_s
                for s in starts
            ))
        return {"total_s": float(min(totals)), "switches": 0}

    client = fresh_client()
    if scheme == "greedy":
        selector = BestZoneSelector(pmap, nets)
    elif scheme == "hysteresis":
        selector = HysteresisSelector(pmap, nets, gain_threshold=0.2)
    else:
        raise ValueError(f"unknown switch-cost scheme {scheme!r}")
    total = 0.0
    switches = 0
    for s in starts:
        fetch = client.fetch(pages, selector, s)
        total += fetch.total_duration_s
        switches += fetch.switches
    return {"total_s": float(total), "switches": int(switches)}


def multisim_fetch(landscape, pmap, strategy, pages, start,
                   radius_m=250.0, car_seed=100, client_seed=200,
                   switch_delay_s=0.0):
    """Fetch ``pages`` over one multi-SIM strategy while driving the road.

    ``strategy`` is one of :data:`MULTISIM_STRATEGIES`.  The core of the
    section-4.2.1 comparison (``examples/multi_network_driving.py``).
    """
    from repro.apps.multisim import (
        BestZoneSelector,
        FixedSelector,
        MultiSimClient,
        RoundRobinSelector,
    )
    from repro.geo.regions import short_segment_road
    from repro.geo.zones import ZoneGrid
    from repro.mobility.routes import Route
    from repro.mobility.vehicles import Car
    from repro.radio.technology import NetworkId

    nets = [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]
    if strategy == "wiscape":
        selector = BestZoneSelector(pmap, nets)
    elif strategy == "round-robin":
        selector = RoundRobinSelector(nets)
    elif strategy.startswith("fixed-"):
        selector = FixedSelector(NetworkId(strategy[len("fixed-"):]))
    else:
        raise ValueError(f"unknown multisim strategy {strategy!r}")
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=radius_m)
    route = Route(name="seg", waypoints=short_segment_road().waypoints)
    car = Car(car_id=1, route=route, seed=car_seed)
    client = MultiSimClient(
        landscape, car, grid, nets, seed=client_seed,
        switch_delay_s=switch_delay_s,
    )
    fetch = client.fetch(pages, selector, start)
    return {
        "total_s": float(fetch.total_duration_s),
        "mean_page_s": float(fetch.mean_page_s),
        "switches": int(fetch.switches),
    }


def mar_fetch(landscape, pmap, scheduler, pages, start, radius_m=250.0,
              car_seed=300, gateway_seed=400):
    """Fetch ``pages`` through a 3-link MAR gateway (section 4.2.2 core)."""
    from repro.apps.mar import MarGateway
    from repro.geo.regions import short_segment_road
    from repro.geo.zones import ZoneGrid
    from repro.mobility.routes import Route
    from repro.mobility.vehicles import Car
    from repro.radio.technology import NetworkId

    nets = [NetworkId.NET_A, NetworkId.NET_B, NetworkId.NET_C]
    grid = ZoneGrid(landscape.study_area.anchor, radius_m=radius_m)
    route = Route(name="seg", waypoints=short_segment_road().waypoints)
    car = Car(car_id=2, route=route, seed=car_seed)
    gateway = MarGateway(landscape, car, grid, nets, seed=gateway_seed)
    if scheduler == "round-robin":
        result = gateway.run_round_robin(pages, start)
    elif scheduler == "wiscape":
        result = gateway.run_wiscape(pages, start, pmap)
    else:
        raise ValueError(f"unknown MAR scheduler {scheduler!r}")
    return {
        "total_s": float(result.total_duration_s),
        "aggregate_mbps": float(result.aggregate_throughput_bps / 1e6),
        "requests": {
            n.value: int(result.per_interface_requests[n]) for n in nets
        },
    }


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def _telemetry():
    """The ambient telemetry installed by the runner for this cell."""
    from repro.obs import get_telemetry

    return get_telemetry()


@scenario("smoke")
def scenario_smoke(cell: SweepCell, ctx: WorkerContext) -> dict:
    """Milliseconds-cheap deterministic cell used by tests and CI smoke.

    Draws ``draws`` values from the cell's spawn-keyed RNG and reports
    simple statistics, exercising the full artifact path (metrics,
    events, histograms) without building any world state.
    """
    draws = int(cell.overrides.get("draws", 100))
    rng = cell.rng()
    values = rng.random(draws)
    tel = _telemetry()
    tel.counter("smoke.cells").inc()
    tel.counter("smoke.draws").inc(draws)
    hist = tel.histogram("smoke.value")
    for v in values[:32]:
        hist.observe(float(v))
    tel.emit("smoke.done", 0.0, cell=cell.cell_id, draws=draws)
    return {
        "draws": draws,
        "mean": float(np.mean(values)),
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "derived_seed": cell.derived_seed(),
    }


@scenario("crash")
def scenario_crash(cell: SweepCell, ctx: WorkerContext) -> dict:
    """Kill the worker process outright (tests retry-on-worker-death)."""
    import os

    os._exit(int(cell.overrides.get("exit_code", 3)))


@scenario("error")
def scenario_error(cell: SweepCell, ctx: WorkerContext) -> dict:
    """Raise inside the cell (tests in-worker error capture)."""
    raise RuntimeError(cell.overrides.get("message", "scenario error"))


@scenario("ablation_epoch", needs_landscape=True)
def scenario_ablation_epoch(cell: SweepCell, ctx: WorkerContext) -> dict:
    """One (region, epoch length) point of the epoch-length ablation."""
    ov = cell.overrides
    region = ov.get("region", "wi")
    epoch_min = float(ov.get("epoch_min", 30.0))
    trace = ctx.proximate_trace(
        cell.seed, int(ov.get("gen_seed", 3)), region,
        days=int(ov.get("days", 2)),
        interval_s=float(ov.get("interval_s", 60.0)),
        udp_packets=int(ov.get("udp_packets", 40)),
    )
    times, values = measurement_series(trace)
    error = epoch_prediction_error(
        times, values, epoch_min * 60.0, budget=int(ov.get("budget", 100))
    )
    _telemetry().counter("sweep.epoch_cells").inc()
    return {
        "region": region,
        "epoch_min": epoch_min,
        "prediction_error": error,
        "n_samples": int(times.size),
    }


@scenario("ablation_sample_budget", needs_landscape=True)
def scenario_ablation_sample_budget(cell: SweepCell,
                                    ctx: WorkerContext) -> dict:
    """One sample-budget point of the estimation-error ablation."""
    ov = cell.overrides
    budget = int(ov.get("budget", 100))
    landscape = ctx.landscape(cell.seed)
    trace = ctx.standalone_trace(
        cell.seed, int(ov.get("gen_seed", 3)), days=int(ov.get("days", 2)),
        n_buses=int(ov.get("n_buses", 6)),
        interval_s=float(ov.get("interval_s", 120.0)),
    )
    errors = sample_budget_errors(
        trace, landscape.study_area.anchor, budget,
        min_truth_samples=int(ov.get("min_truth_samples", 60)),
    )
    _telemetry().counter("sweep.budget_cells").inc()
    return {
        "budget": budget,
        "zones": int(errors.size),
        "median_error": float(np.median(errors)) if errors.size else
        float("nan"),
        "p90_error": float(np.quantile(errors, 0.9)) if errors.size else
        float("nan"),
    }


@scenario("ablation_zone_radius", needs_landscape=True)
def scenario_ablation_zone_radius(cell: SweepCell,
                                  ctx: WorkerContext) -> dict:
    """One zone-radius point of the homogeneity/coverage trade-off."""
    ov = cell.overrides
    radius_m = float(ov.get("radius_m", 250.0))
    landscape = ctx.landscape(cell.seed)
    trace = ctx.standalone_trace(
        cell.seed, int(ov.get("gen_seed", 3)), days=int(ov.get("days", 2)),
        n_buses=int(ov.get("n_buses", 6)),
        interval_s=float(ov.get("interval_s", 120.0)),
    )
    stats = zone_radius_stats(
        trace, landscape.study_area.anchor, radius_m,
        min_samples=int(ov.get("min_samples", 50)),
    )
    _telemetry().counter("sweep.radius_cells").inc()
    return dict(stats, radius_m=radius_m)


@scenario("ablation_scheduler", needs_landscape=True)
def scenario_ablation_scheduler(cell: SweepCell, ctx: WorkerContext) -> dict:
    """One (policy, seed) run of the budgeted-vs-greedy scheduler study."""
    ov = cell.overrides
    policy = ov.get("policy", "budgeted")
    hours = float(ov.get("hours", 2.0))
    n_buses = int(ov.get("n_buses", 3))
    landscape = ctx.landscape(cell.seed)
    runner = {"budgeted": run_budgeted, "greedy": run_greedy}.get(policy)
    if runner is None:
        raise ValueError(f"unknown scheduler policy {policy!r}")
    coordinator = runner(
        landscape, hours=hours, n_buses=n_buses,
        seed=int(ov.get("coordinator_seed", 1)),
        seed_base=int(ov.get("fleet_seed", 10)),
    )
    overhead = client_overhead(coordinator)
    _telemetry().counter("sweep.scheduler_cells").inc()
    return {
        "policy": policy,
        "hours": hours,
        "tasks": int(overhead["tasks"]),
        "mbytes": float(overhead["mbytes"]),
        "joules": float(overhead["joules"]),
        "median_error": estimation_accuracy(coordinator, landscape),
    }


@scenario("ablation_switch_cost", needs_landscape=True)
def scenario_ablation_switch_cost(cell: SweepCell,
                                  ctx: WorkerContext) -> dict:
    """One (scheme, switch delay) trial of the switch-cost ablation."""
    from repro.apps.webworkload import surge_page_pool

    ov = cell.overrides
    scheme = ov.get("scheme", "greedy")
    delay = float(ov.get("switch_delay_s", 0.0))
    gen_seed = int(ov.get("gen_seed", 3))
    landscape = ctx.landscape(cell.seed)
    pmap = ctx.performance_map(cell.seed, gen_seed,
                               days=int(ov.get("survey_days", 3)))
    pages = surge_page_pool(count=int(ov.get("n_pages", 150)),
                            seed=int(ov.get("pages_seed", 5)))
    start = 10.0 * 3600.0
    starts = [start + k * 500.0 for k in range(int(ov.get("n_starts", 3)))]
    trial = switch_cost_trial(landscape, pmap, scheme, delay, pages, starts)
    _telemetry().counter("sweep.switch_cells").inc()
    return dict(trial, scheme=scheme, switch_delay_s=delay)


@scenario("driving", needs_landscape=True)
def scenario_driving(cell: SweepCell, ctx: WorkerContext) -> dict:
    """One strategy of the multi-network driving comparison (section 4.2).

    ``mode=multisim`` fetches with one of
    :data:`MULTISIM_STRATEGIES`; ``mode=mar`` stripes across the 3-link
    gateway with the ``round-robin`` or ``wiscape`` scheduler.
    """
    from repro.apps.webworkload import surge_page_pool

    ov = cell.overrides
    mode = ov.get("mode", "multisim")
    strategy = ov.get("strategy", "wiscape")
    gen_seed = int(ov.get("gen_seed", 3))
    landscape = ctx.landscape(cell.seed)
    pmap = ctx.performance_map(cell.seed, gen_seed,
                               days=int(ov.get("survey_days", 3)))
    pages = surge_page_pool(count=int(ov.get("n_pages", 300)),
                            seed=int(ov.get("pages_seed", 5)))
    start = 10.0 * 3600.0
    if mode == "multisim":
        result = multisim_fetch(landscape, pmap, strategy, pages, start)
    elif mode == "mar":
        result = mar_fetch(landscape, pmap, strategy, pages, start)
    else:
        raise ValueError(f"unknown driving mode {mode!r}")
    _telemetry().counter("sweep.driving_cells").inc()
    return dict(result, mode=mode, strategy=strategy)


@scenario("bench_module")
def scenario_bench_module(cell: SweepCell, ctx: WorkerContext) -> dict:
    """Run one paper-reproduction benchmark module as a subprocess cell.

    Shards the full figure/table evaluation grid across workers: each
    cell is one ``benchmarks/test_*.py`` module executed under pytest in
    its own interpreter (session fixtures rebuild per cell — the sweep
    trades compute for wall-clock).  The pytest output is captured to
    ``pytest.txt`` in the cell directory; the deterministic metric is
    the exit code.
    """
    import os
    import subprocess
    import sys

    module = cell.overrides["module"]
    extra = list(cell.overrides.get("pytest_args", ["-q", "-s"]))
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", module] + extra,
        capture_output=True, text=True, env=env,
    )
    out_dir = ctx.cell_dir
    if out_dir:
        with open(os.path.join(out_dir, "pytest.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(proc.stdout)
            if proc.stderr:
                fh.write("\n--- stderr ---\n" + proc.stderr)
    tel = _telemetry()
    tel.counter("sweep.bench_modules").inc()
    if proc.returncode != 0:
        tel.counter("sweep.bench_failures").inc()
    return {"module": module, "exit_code": int(proc.returncode)}


# ---------------------------------------------------------------------------
# Preset grids
# ---------------------------------------------------------------------------

#: Benchmark modules of the paper's full evaluation grid (Figs 1-14,
#: Tables 3-6) plus the five ablations — the ``paper-grid`` preset.
PAPER_BENCH_MODULES = [
    "benchmarks/test_fig01_city_map.py",
    "benchmarks/test_fig02_speed_latency.py",
    "benchmarks/test_fig04_zone_radius.py",
    "benchmarks/test_fig05_spot_cdfs.py",
    "benchmarks/test_fig06_allan.py",
    "benchmarks/test_fig07_nkld.py",
    "benchmarks/test_fig08_accuracy.py",
    "benchmarks/test_fig09_ping_failures.py",
    "benchmarks/test_fig10_stadium.py",
    "benchmarks/test_fig11_dominance.py",
    "benchmarks/test_fig12_road_map.py",
    "benchmarks/test_fig13_road_tput.py",
    "benchmarks/test_fig14_websites.py",
    "benchmarks/test_table3_static_proximate.py",
    "benchmarks/test_table4_timescales.py",
    "benchmarks/test_table5_packets.py",
    "benchmarks/test_table6_http.py",
    "benchmarks/test_ablation_epoch.py",
    "benchmarks/test_ablation_sample_budget.py",
    "benchmarks/test_ablation_scheduler.py",
    "benchmarks/test_ablation_switch_cost.py",
    "benchmarks/test_ablation_zone_radius.py",
]


def _presets() -> Dict[str, Callable[[], SweepGrid]]:
    return {
        "smoke": lambda: SweepGrid(
            "smoke", ["smoke"], seeds=[1, 2],
            matrix={"draws": [100, 1000]},
        ),
        "ablation-epoch": lambda: SweepGrid(
            "ablation-epoch", ["ablation_epoch"], seeds=[7],
            matrix={"region": ["wi", "nj"],
                    "epoch_min": CANDIDATE_EPOCHS_MIN},
            base={"days": 2},
        ),
        "ablation-budget": lambda: SweepGrid(
            "ablation-budget", ["ablation_sample_budget"], seeds=[7],
            matrix={"budget": SAMPLE_BUDGETS},
            base={"days": 2},
        ),
        "ablation-radius": lambda: SweepGrid(
            "ablation-radius", ["ablation_zone_radius"], seeds=[7],
            matrix={"radius_m": ZONE_RADII_M},
            base={"days": 2},
        ),
        "ablation-scheduler": lambda: SweepGrid(
            "ablation-scheduler", ["ablation_scheduler"], seeds=[7, 8],
            matrix={"policy": ["budgeted", "greedy"]},
            base={"hours": 2.0, "n_buses": 3},
        ),
        "ablation-switch": lambda: SweepGrid(
            "ablation-switch", ["ablation_switch_cost"], seeds=[7],
            matrix={"scheme": ["greedy", "hysteresis", "fixed-best"],
                    "switch_delay_s": SWITCH_DELAYS_S},
        ),
        "driving": lambda: SweepGrid(
            "driving", ["driving"], seeds=[7],
            cells=(
                [{"mode": "multisim", "strategy": s}
                 for s in MULTISIM_STRATEGIES]
                + [{"mode": "mar", "strategy": s}
                   for s in ("round-robin", "wiscape")]
            ),
        ),
        "paper-grid": lambda: SweepGrid(
            "paper-grid", ["bench_module"], seeds=[7],
            cells=[{"module": m} for m in PAPER_BENCH_MODULES],
        ),
    }


def preset_grid(name: str) -> SweepGrid:
    """Build one of the named preset grids; raises with options if unknown."""
    presets = _presets()
    try:
        return presets[name]()
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; options: {', '.join(sorted(presets))}"
        ) from None


def preset_names() -> List[str]:
    """All preset grid names, sorted."""
    return sorted(_presets())
