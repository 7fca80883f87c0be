"""``repro.obs`` — metrics, tracing, and structured run telemetry.

The observability layer for the whole stack: a dependency-free metrics
registry (counters / gauges / fixed-bucket histograms), span-based
timing, a deterministic JSONL event log stamped with *simulation* time,
and run manifests recording provenance.  Disabled by default: the
ambient telemetry is a shared no-op, so un-instrumented runs stay
bit-identical and effectively free (see the overhead gate in
``benchmarks/test_perf_microbench.py``).

On top of the artifact layer sits the live pipeline: a
:class:`SnapshotStreamer` captures periodic sim-time-stamped registry
snapshots (``snapshots.jsonl``), an :class:`AlertEngine` judges each
snapshot against declarative rules, :class:`~repro.obs.slo.SloTracker`
feeds zone-coverage SLO gauges from the coordinator, and the
exposition helpers publish snapshots in Prometheus text format.

Typical use::

    from repro import obs

    tel = obs.Telemetry()
    with obs.use_telemetry(tel):
        ...  # run the coordinator / generators
    tel.write_artifacts("out/", manifest)
    print(obs.render_report_from_dir("out/"))
"""

from repro.obs.alerts import AlertEngine, AlertRule, load_rules, parse_rules
from repro.obs.events import (
    DEFAULT_CAPACITY,
    NULL_EVENT_LOG,
    SCHEMA_VERSION,
    EventLog,
    NullEventLog,
    read_json_tolerant,
    read_jsonl_tolerant,
)
from repro.obs.exposition import (
    PROM_FILENAME,
    MetricsHTTPServer,
    PromFileWriter,
    render_prometheus,
)
from repro.obs.manifest import RunManifest, config_hash
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    merge_snapshots,
    quantile_from_snapshot,
)
from repro.obs.report import (
    build_summary,
    load_artifacts,
    render_diff,
    render_live,
    render_report,
    render_report_from_dir,
    render_watch,
    summary_from_dir,
)
from repro.obs.slo import SloPolicy, SloTracker, default_slo_rules
from repro.obs.snapshots import (
    SNAPSHOT_SCHEMA_VERSION,
    SNAPSHOTS_FILENAME,
    SnapshotStreamer,
)
from repro.obs.telemetry import (
    EVENTS_FILENAME,
    MANIFEST_FILENAME,
    METRICS_FILENAME,
    NULL_TELEMETRY,
    SPANS_FILENAME,
    Telemetry,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.obs.tracing import NULL_TRACER, NullTracer, SpanStats, SpanTracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "SpanStats",
    "SpanTracer",
    "NullTracer",
    "NULL_TRACER",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "SCHEMA_VERSION",
    "RunManifest",
    "config_hash",
    "Telemetry",
    "NULL_TELEMETRY",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "METRICS_FILENAME",
    "EVENTS_FILENAME",
    "SPANS_FILENAME",
    "MANIFEST_FILENAME",
    "load_artifacts",
    "render_report",
    "render_report_from_dir",
    "render_live",
    "DEFAULT_CAPACITY",
    "read_json_tolerant",
    "read_jsonl_tolerant",
    "merge_snapshots",
    "quantile_from_snapshot",
    "SnapshotStreamer",
    "SNAPSHOTS_FILENAME",
    "SNAPSHOT_SCHEMA_VERSION",
    "AlertRule",
    "AlertEngine",
    "load_rules",
    "parse_rules",
    "SloPolicy",
    "SloTracker",
    "default_slo_rules",
    "PromFileWriter",
    "MetricsHTTPServer",
    "PROM_FILENAME",
    "render_prometheus",
    "build_summary",
    "summary_from_dir",
    "render_watch",
    "render_diff",
]
