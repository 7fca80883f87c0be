"""Tests for the text report renderer."""

import json

import pytest

from repro.obs.manifest import RunManifest
from repro.obs.metrics import quantile_from_snapshot
from repro.obs.report import (
    build_summary,
    load_artifacts,
    render_diff,
    render_live,
    render_report,
    render_report_from_dir,
    render_watch,
    summary_from_dir,
    summary_from_path,
)
from repro.obs.telemetry import Telemetry


def _sample_telemetry() -> Telemetry:
    tel = Telemetry()
    tel.counter("coordinator.ticks").inc(10)
    tel.gauge("coordinator.streams").set(4)
    h = tel.histogram("coordinator.epoch_samples", buckets=(10.0, 50.0, 100.0))
    for v in (5.0, 30.0, 70.0):
        h.observe(v)
    with tel.span("sim.run"):
        with tel.span("coordinator.tick"):
            pass
    tel.emit("epoch.close", 100.0, zone=[0, 0], network="NetB", metric="ping")
    tel.emit(
        "calibration.recalibrate", 200.0,
        zone=[0, 0], network="NetB", metric="ping",
        epoch_s_before=1800.0, epoch_s=900.0,
        budget_before=100, budget=60,
    )
    return tel


class TestHistogramQuantile:
    def test_boundary_estimate(self):
        snap = {"buckets": [1.0, 2.0, 4.0], "counts": [50, 49, 1, 0],
                "count": 100, "sum": 0.0, "max": 3.0}
        assert quantile_from_snapshot(snap, 0.5) == 1.0
        assert quantile_from_snapshot(snap, 0.99) == 2.0

    def test_empty_is_nan(self):
        snap = {"buckets": [1.0], "counts": [0, 0], "count": 0}
        assert quantile_from_snapshot(snap, 0.5) != quantile_from_snapshot(snap, 0.5)


class TestRender:
    def test_render_live_contains_all_sections(self):
        tel = _sample_telemetry()
        manifest = RunManifest("monitor", 7, gen_seed=1)
        text = render_live(tel, manifest)
        assert "run manifest" in text
        assert "coordinator.ticks" in text
        assert "histogram percentiles" in text
        assert "sim.run/coordinator.tick" in text
        assert "event volume" in text
        assert "sample-budget convergence" in text
        assert "100->60" in text  # budget trajectory
        assert "1800->900" in text  # epoch trajectory

    def test_empty_report_degrades_gracefully(self):
        text = render_report(
            {"counters": {}, "gauges": {}, "histograms": {}}, [], {}
        )
        assert "no telemetry recorded" in text

    def test_roundtrip_through_files(self, tmp_path):
        tel = _sample_telemetry()
        tel.write_artifacts(tmp_path, manifest=RunManifest("monitor", 7))
        arts = load_artifacts(str(tmp_path))
        assert arts["metrics"]["counters"]["coordinator.ticks"] == 10.0
        assert arts["manifest"]["seed"] == 7
        text = render_report_from_dir(str(tmp_path))
        assert "coordinator.ticks" in text
        assert "epoch.close" in text

    def test_load_artifacts_missing_dir_contents(self, tmp_path):
        arts = load_artifacts(str(tmp_path))
        assert arts["events"] == []
        assert arts["manifest"] is None


def _write_dir(tmp_path, name="run", **overrides):
    """A minimal on-disk telemetry dir, with per-file overrides.

    Pass ``spans=None`` (etc.) to omit a file, or a string to write raw
    bytes instead of the default well-formed JSON.
    """
    out = tmp_path / name
    out.mkdir()
    tel = _sample_telemetry()
    tel.write_artifacts(out, manifest=RunManifest("monitor", 7))
    (out / "snapshots.jsonl").write_text(
        json.dumps({"v": 1, "seq": 0, "t": 60.0,
                    "counters": {"coordinator.ticks": 1.0}, "gauges": {},
                    "histograms": {}})
        + "\n"
    )
    names = {"spans": "spans.json", "metrics": "metrics.json",
             "events": "events.jsonl", "manifest": "manifest.json",
             "snapshots": "snapshots.jsonl"}
    for key, content in overrides.items():
        path = out / names[key]
        if content is None:
            path.unlink()
        else:
            path.write_text(content)
    return out


class TestPartialAndCorruptDirs:
    """Broken telemetry dirs must warn, never traceback (ISSUE sat. d)."""

    def test_missing_spans_warns(self, tmp_path):
        out = _write_dir(tmp_path, spans=None)
        arts = load_artifacts(str(out))
        assert arts["spans"] == {}
        assert any("spans.json" in w for w in arts["warnings"])
        text = render_report_from_dir(str(out))
        assert "spans.json" in text
        assert "coordinator.ticks" in text  # the rest still renders

    def test_corrupt_metrics_warns(self, tmp_path):
        out = _write_dir(tmp_path, metrics="{not json")
        arts = load_artifacts(str(out))
        assert arts["metrics"]["counters"] == {}
        assert any("metrics.json" in w for w in arts["warnings"])
        render_report_from_dir(str(out))  # must not raise

    def test_truncated_events_tail_skipped(self, tmp_path):
        out = _write_dir(tmp_path)
        with open(out / "events.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"kind": "epoch.close", "t":')
        arts = load_artifacts(str(out))
        assert any("events.jsonl" in w for w in arts["warnings"])
        assert all(isinstance(e, dict) for e in arts["events"])

    def test_truncated_snapshots_tail_skipped(self, tmp_path):
        out = _write_dir(tmp_path)
        with open(out / "snapshots.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "seq": 1')
        summary = summary_from_dir(str(out))
        assert summary["snapshots"]["count"] == 1
        assert any("snapshots.jsonl" in w for w in summary["warnings"])

    @pytest.mark.parametrize("section", ["counters", "gauges", "histograms"])
    def test_non_object_metrics_section_dropped(self, tmp_path, capsys,
                                                section):
        from repro.cli import main

        metrics = json.loads(_write_dir(tmp_path, name="good").joinpath(
            "metrics.json").read_text())
        metrics[section] = [1]
        out = _write_dir(tmp_path, metrics=json.dumps(metrics))
        warning = f"metrics.json: dropped '{section}' (not a JSON object)"
        assert main(["obs", "report", str(out)]) == 0
        text = capsys.readouterr().out
        assert warning in text
        if section != "counters":
            assert "coordinator.ticks" in text  # the other sections stay
        assert main(["obs", "report", str(out), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert warning in summary["warnings"]
        assert main(["obs", "watch", str(out)]) == 0
        assert warning in capsys.readouterr().out

    def test_watch_and_diff_survive_empty_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        render_watch(str(empty))  # must not raise
        render_diff(str(empty), str(empty))  # must not raise


class TestDeeplyNestedJson:
    """JSON nested too deep to parse warns at every entry point."""

    DEEP = "[" * 200000

    def _deep_dir(self, tmp_path):
        out = _write_dir(tmp_path, metrics=self.DEEP)
        with open(out / "events.jsonl", "a", encoding="utf-8") as fh:
            fh.write(self.DEEP + "\n")
        return out

    def test_obs_report_and_watch(self, tmp_path, capsys):
        from repro.cli import main

        out = self._deep_dir(tmp_path)
        assert main(["obs", "report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "unreadable metrics.json" in text
        assert "events.jsonl: skipped 1 unparseable line(s)" in text
        assert "epoch.close" in text  # the good events still count
        assert main(["obs", "report", str(out), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events_total"] == 2
        assert main(["obs", "watch", str(out)]) == 0
        assert "unreadable metrics.json" in capsys.readouterr().out

    def test_store_import(self, tmp_path):
        from repro.cli import main

        out = self._deep_dir(tmp_path)
        db = str(tmp_path / "store.sqlite")
        assert main(["store", "import", db, str(out)]) == 0
        # The run's load warnings are stored with it.
        warnings = summary_from_path(db)["warnings"]
        assert any("unreadable metrics.json" in w for w in warnings)
        assert "events.jsonl: skipped 1 unparseable line(s)" in warnings

    def test_deep_cell_record(self, tmp_path):
        cell = tmp_path / "cell"
        cell.mkdir()
        (cell / "cell.json").write_text(self.DEEP)
        summary = summary_from_dir(str(cell))
        assert summary["manifest"] is None
        assert any("unreadable cell.json" in w for w in summary["warnings"])


class TestSummaryModel:
    """`obs report --format json` shares the same model as the text path."""

    def test_summary_keys(self, tmp_path):
        out = _write_dir(tmp_path)
        summary = summary_from_dir(str(out))
        for key in ("manifest", "counters", "gauges", "histograms", "spans",
                    "alerts", "slo", "snapshots", "events_dropped",
                    "warnings"):
            assert key in summary
        assert summary["counters"]["coordinator.ticks"] == 10.0
        assert summary["snapshots"]["first_t"] == 60.0
        json.dumps(summary)  # strictly JSON-serializable (NaN -> None)

    def test_alert_state_replayed_from_events(self):
        tel = _sample_telemetry()
        tel.emit("alert.fired", 50.0, rule="r", metric="m", value=1.0)
        tel.emit("alert.resolved", 60.0, rule="r", metric="m", value=0.0)
        tel.emit("alert.fired", 70.0, rule="r", metric="m", value=2.0)
        events = tel.events.events()
        summary = build_summary(
            manifest=None, metrics=tel.metrics.snapshot(), spans={},
            event_volume=tel.events.counts_by_kind(), alert_events=events,
            snapshot_count=0, first_t=None, last_t=None, warnings=[],
        )
        assert summary["alerts"]["fired"] == 2
        assert summary["alerts"]["resolved"] == 1
        active = summary["alerts"]["active"]
        assert [(a["rule"], a["metric"], a["since_t"]) for a in active] == [
            ("r", "m", 70.0)
        ]

    def test_render_watch_shows_status_line(self, tmp_path):
        out = _write_dir(tmp_path)
        text = render_watch(str(out))
        assert "snapshots=1" in text
        assert "t=" in text


class TestSweepLayouts:
    """obs report/diff accept sweep roots and cell dirs (no manifest.json)."""

    def _sweep(self, tmp_path, name="sw", workers=1):
        from repro.sweep import SweepRunner, preset_grid

        out = tmp_path / name
        assert SweepRunner(preset_grid("smoke"), str(out),
                           workers=workers).run().success
        return out

    def test_sweep_root_synthesizes_manifest(self, tmp_path):
        out = self._sweep(tmp_path)
        arts = load_artifacts(str(out))
        assert arts["manifest"]["run_kind"] == "sweep"
        assert arts["manifest"]["grid"] == "smoke"
        # Merged roots have metrics but legitimately no spans: no warning.
        assert not any("spans.json" in w for w in arts["warnings"])
        text = render_report_from_dir(str(out))
        assert "kind=sweep" in text and "grid=smoke" in text
        assert "sweep.cells_total" in text

    def test_cell_dir_synthesizes_manifest_from_cell_and_parent(
            self, tmp_path):
        out = self._sweep(tmp_path)
        cell_dir = next(p for p in (out / "cells").iterdir() if p.is_dir())
        arts = load_artifacts(str(cell_dir))
        manifest = arts["manifest"]
        assert manifest["run_kind"] == "sweep-cell"
        assert manifest["scenario"] == "smoke"
        assert manifest["cell_id"] == cell_dir.name
        assert manifest["grid"] == "smoke"  # from ../../sweep_manifest.json
        text = render_report_from_dir(str(cell_dir))
        assert "sweep cell:" in text and cell_dir.name in text

    def test_unmerged_sweep_root_names_the_missing_file(self, tmp_path):
        from repro.sweep import SweepRunner, preset_grid

        out = tmp_path / "unmerged"
        SweepRunner(preset_grid("smoke"), str(out)).run(merge=False)
        arts = load_artifacts(str(out))
        assert any("metrics.json" in w and "sweep merge" in w
                   for w in arts["warnings"])

    def test_plain_dir_warning_names_all_candidate_files(self, tmp_path):
        arts = load_artifacts(str(tmp_path))
        (warning,) = [w for w in arts["warnings"] if "manifest.json" in w]
        assert "sweep_manifest.json" in warning
        assert "cell.json" in warning

    def test_diff_between_two_cells(self, tmp_path):
        out = self._sweep(tmp_path)
        cells = sorted(p for p in (out / "cells").iterdir() if p.is_dir())
        text = render_diff(str(cells[0]), str(cells[-1]))
        assert "smoke.draws" in text  # draws differ between the two cells
