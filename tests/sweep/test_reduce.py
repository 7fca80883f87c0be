"""Tests for the sweep reducer: folding cells into sweep-level artifacts."""

import json
import os

import pytest

from repro.sweep import SweepGrid, SweepRunner, load_summary, merge_cells
from repro.sweep.reduce import merge_metrics


def _cell_dir(out, cell_id):
    return os.path.join(out, "cells", cell_id)


class TestMergeMetrics:
    def test_counters_sum_and_gauges_average(self):
        merged = merge_metrics([
            ("a", {"counters": {"c": 1.0}, "gauges": {"g": 2.0}}),
            ("b", {"counters": {"c": 3.0}, "gauges": {"g": 4.0}}),
            ("c", {"counters": {"other": 5.0}, "gauges": {}}),
        ])
        assert merged["counters"] == {"c": 4.0, "other": 5.0}
        # g averaged over the two cells that observed it, not all three.
        assert merged["gauges"] == {"g": 3.0}

    def test_histograms_merge_matching_buckets(self):
        snap = {"buckets": [1.0, 2.0], "counts": [1, 2, 3], "count": 6,
                "sum": 7.5, "min": 0.5, "max": 3.0}
        other = {"buckets": [1.0, 2.0], "counts": [2, 0, 1], "count": 3,
                 "sum": 3.0, "min": 0.1, "max": 2.5}
        merged = merge_metrics([("a", {"histograms": {"h": snap}}),
                                ("b", {"histograms": {"h": other}})])
        h = merged["histograms"]["h"]
        assert h["counts"] == [3, 2, 4]
        assert h["count"] == 9
        assert h["sum"] == 10.5
        assert h["min"] == 0.1 and h["max"] == 3.0

    def test_mismatched_buckets_warn_and_skip_cell(self):
        from repro.sweep.reduce import MergeResult

        result = MergeResult("")
        merged = merge_metrics(
            [
                ("a", {"counters": {"c": 1.0},
                       "histograms": {"h": {"buckets": [1.0],
                                            "counts": [1, 0], "count": 1,
                                            "sum": 0.5}}}),
                ("b", {"counters": {"c": 5.0}, "gauges": {"g": 9.0},
                       "histograms": {"h": {"buckets": [2.0],
                                            "counts": [0, 1], "count": 1,
                                            "sum": 2.5}}}),
            ],
            result,
        )
        # b is skipped whole: a merged histogram never mixes layouts,
        # and b's counters and gauges are not half-folded either.
        h = merged["histograms"]["h"]
        assert h["count"] == sum(h["counts"]) == 1
        assert merged["counters"] == {"c": 1.0}
        assert merged["gauges"] == {}
        assert [w for w in result.warnings
                if w.startswith("cells/b:") and "'h'" in w]

    def test_non_numeric_cell_warns_and_is_skipped(self):
        from repro.sweep.reduce import MergeResult

        result = MergeResult("")
        merged = merge_metrics([("a", {"counters": {"c": 1.0}}),
                                ("b", {"counters": {"c": "20"}}),
                                ("c", {"counters": {"c": 2.0}})], result)
        assert merged["counters"] == {"c": 3.0}
        assert [w for w in result.warnings if w.startswith("cells/b:")]


class TestMergeCells:
    def test_merge_matches_runner_output(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[1],
                         matrix={"draws": [10, 20]})
        SweepRunner(grid, out).run(merge=True)
        with open(os.path.join(out, "summary.jsonl"), "rb") as fh:
            first = fh.read()
        result = merge_cells(out)
        assert result.cells == result.ok == 2
        assert not result.warnings
        with open(os.path.join(out, "summary.jsonl"), "rb") as fh:
            assert fh.read() == first

    def test_summary_sorted_by_cell_id(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[2, 1],
                         matrix={"draws": [10]})
        SweepRunner(grid, out).run()
        ids = [r["cell_id"] for r in load_summary(out)]
        assert ids == sorted(ids)

    def test_rollup_counters_by_status(self, tmp_path):
        out = str(tmp_path / "out")
        smoke = SweepGrid("t", ["smoke"], seeds=[1]).cells()
        err = SweepGrid("t", ["error"], seeds=[1]).cells()

        class Mixed(SweepGrid):
            def cells(self):
                return smoke + err

        SweepRunner(Mixed("t", ["smoke"]), out).run()
        with open(os.path.join(out, "metrics.json")) as fh:
            counters = json.load(fh)["counters"]
        assert counters["sweep.cells_total"] == 2.0
        assert counters["sweep.cells_ok"] == 1.0
        assert counters["sweep.cells_error"] == 1.0

    def test_missing_cell_record_warns_but_merges_rest(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[1],
                         matrix={"draws": [10, 20]})
        SweepRunner(grid, out).run(merge=False)
        victim = _cell_dir(out, "smoke-s1-draws=10")
        os.remove(os.path.join(victim, "cell.json"))
        result = merge_cells(out)
        assert result.cells == 1
        assert any("missing cell.json" in w for w in result.warnings)
        assert len(load_summary(out)) == 1

    def test_corrupt_cell_record_warns(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[1])
        SweepRunner(grid, out).run(merge=False)
        victim = _cell_dir(out, "smoke-s1-base")
        with open(os.path.join(victim, "cell.json"), "w") as fh:
            fh.write("{not json")
        result = merge_cells(out)
        assert result.cells == 0
        assert any("unreadable cell.json" in w for w in result.warnings)

    def test_mismatched_cell_warns_and_merges_the_others(self, tmp_path):
        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[1],
                         matrix={"draws": [10, 20, 30]})
        SweepRunner(grid, out).run(merge=False)
        cells = {}
        for cell_id in sorted(os.listdir(os.path.join(out, "cells"))):
            with open(os.path.join(_cell_dir(out, cell_id),
                                   "metrics.json")) as fh:
                cells[cell_id] = json.load(fh)
        victim = "smoke-s1-draws=20"
        cells[victim]["histograms"]["smoke.value"]["buckets"][0] = 0.002
        with open(os.path.join(_cell_dir(out, victim), "metrics.json"),
                  "w") as fh:
            json.dump(cells[victim], fh)
        result = merge_cells(out)
        assert result.cells == result.ok == 3
        assert [w for w in result.warnings
                if victim in w and "smoke.value" in w]
        with open(os.path.join(out, "metrics.json")) as fh:
            merged = json.load(fh)
        others = [m for cell_id, m in sorted(cells.items())
                  if cell_id != victim]
        assert merged["counters"]["smoke.draws"] == 40.0
        h = merged["histograms"]["smoke.value"]
        assert h["count"] == sum(h["counts"]) == 40
        assert h["buckets"] == others[0]["histograms"]["smoke.value"][
            "buckets"]
        # The roll-up still counts every cell record.
        assert merged["counters"]["sweep.cells_total"] == 3.0

    def test_deep_cell_artifacts_warn(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "out")
        grid = SweepGrid("t", ["smoke"], seeds=[1],
                         matrix={"draws": [10, 20]})
        SweepRunner(grid, out).run(merge=False)
        with open(os.path.join(_cell_dir(out, "smoke-s1-draws=10"),
                               "cell.json"), "w") as fh:
            fh.write("[" * 200000)
        with open(os.path.join(_cell_dir(out, "smoke-s1-draws=20"),
                               "metrics.json"), "w") as fh:
            fh.write("{\"counters\": " + "[" * 200000)
        assert main(["sweep", "merge", out]) == 0
        err = capsys.readouterr().err
        assert "cells/smoke-s1-draws=10: unreadable cell.json" in err
        assert "cells/smoke-s1-draws=20: unreadable metrics.json" in err
        assert len(load_summary(out)) == 1
        assert main(["sweep", "status", out]) == 0
        assert "1 unreadable" in capsys.readouterr().out

    def test_load_summary_raises_on_a_damaged_line(self, tmp_path):
        out = str(tmp_path / "out")
        SweepRunner(SweepGrid("t", ["smoke"], seeds=[1]), out).run()
        with open(os.path.join(out, "summary.jsonl"), "a") as fh:
            fh.write('{"cell_id": "x"\n')
        with pytest.raises(ValueError, match="1 unparseable line"):
            load_summary(out)

    def test_empty_dir_warns(self, tmp_path):
        result = merge_cells(str(tmp_path))
        assert result.cells == 0
        assert any("no cells/" in w for w in result.warnings)
