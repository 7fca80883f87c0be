"""The sweep's core guarantee: worker count cannot change results.

Every deterministic artifact — per-cell ``cell.json``/``metrics.json``/
``events.jsonl`` and the reduced ``summary.jsonl``/``metrics.json`` —
must be byte-identical whether the grid ran inline, on 2 workers, or on
4, because all randomness is spawn-keyed off content-derived cell ids.
"""

import os

import pytest

from repro.sweep import CELLS_DIRNAME, SweepRunner, load_summary, preset_grid

#: The artifacts the determinism guarantee covers (spans.json and
#: sweep_status.json hold host timings and are deliberately excluded).
DETERMINISTIC_SWEEP_FILES = ("summary.jsonl", "metrics.json")
DETERMINISTIC_CELL_FILES = ("cell.json", "metrics.json", "events.jsonl")


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The smoke preset executed at 1, 2, and 4 workers."""
    base = tmp_path_factory.mktemp("sweep-determinism")
    dirs = {}
    for workers in (1, 2, 4):
        out = str(base / f"w{workers}")
        result = SweepRunner(preset_grid("smoke"), out,
                             workers=workers).run()
        assert result.success
        dirs[workers] = out
    return dirs


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("filename", DETERMINISTIC_SWEEP_FILES)
    def test_merged_artifacts_byte_identical(self, runs, workers, filename):
        assert _read(os.path.join(runs[1], filename)) == \
            _read(os.path.join(runs[workers], filename))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_cell_artifacts_byte_identical(self, runs, workers):
        serial_cells = os.path.join(runs[1], CELLS_DIRNAME)
        for cell_id in sorted(os.listdir(serial_cells)):
            for filename in DETERMINISTIC_CELL_FILES:
                a = os.path.join(serial_cells, cell_id, filename)
                b = os.path.join(runs[workers], CELLS_DIRNAME, cell_id,
                                 filename)
                assert _read(a) == _read(b), f"{cell_id}/{filename}"

    def test_rerun_reproduces_bytes(self, runs, tmp_path):
        out = str(tmp_path / "again")
        assert SweepRunner(preset_grid("smoke"), out, workers=2).run().success
        for filename in DETERMINISTIC_SWEEP_FILES:
            assert _read(os.path.join(out, filename)) == \
                _read(os.path.join(runs[1], filename))

    def test_metrics_have_no_wallclock(self, runs):
        """Spot-check: nothing time-of-day-ish leaks into summary lines."""
        for record in load_summary(runs[1]):
            assert "wall" not in str(sorted(record)).lower()
            assert "duration" not in str(sorted(record)).lower()


class TestStoreTargetDeterminism:
    """The guarantee extends into the measurement store.

    Two sweeps at different worker counts, ingested into two stores,
    must produce equal logical dumps — run labels come from the out
    dir's basename, so both runs use the same basename under different
    parents (host paths are excluded from the dump by design).
    """

    def _run_with_store(self, parent, workers):
        import json

        from repro.store import connect, logical_dump

        out = str(parent / "sweep")
        store_path = str(parent / "store.sqlite")
        result = SweepRunner(preset_grid("smoke"), out, workers=workers,
                             store_path=store_path).run()
        assert result.success
        with open(os.path.join(out, "sweep_status.json")) as fh:
            status = json.load(fh)
        conn = connect(store_path, create=False)
        try:
            dump = json.dumps(logical_dump(conn), sort_keys=True)
        finally:
            conn.close()
        return status, dump

    def test_store_content_invariant_under_worker_count(
            self, tmp_path_factory):
        status_1, dump_1 = self._run_with_store(
            tmp_path_factory.mktemp("store-serial"), workers=1)
        status_2, dump_2 = self._run_with_store(
            tmp_path_factory.mktemp("store-parallel"), workers=2)
        assert status_1["store"]["rows_ingested"] > 0
        assert status_1["store"]["rows_ingested"] == \
            status_2["store"]["rows_ingested"]
        assert dump_1 == dump_2


class TestMemoizedBuildsInvariance:
    """A memoized build must not charge its telemetry to one cell.

    Driving cells share a memoized performance map.  One worker builds
    it once for both cells, two workers build it once each, so any
    counters recorded during the build would make the merged
    ``metrics.json`` depend on the worker count.
    """

    def test_driving_metrics_byte_identical_at_1_and_2_workers(
            self, tmp_path):
        from repro.sweep import SweepGrid

        grid = SweepGrid(
            "driving-small", ["driving"], seeds=[7],
            cells=[{"mode": "multisim", "strategy": "wiscape"},
                   {"mode": "multisim", "strategy": "round-robin"}],
            base={"survey_days": 1, "n_pages": 20},
        )
        outs = {}
        for workers in (1, 2):
            out = str(tmp_path / f"w{workers}")
            assert SweepRunner(grid, out, workers=workers).run().success
            outs[workers] = out
        for filename in DETERMINISTIC_SWEEP_FILES:
            assert _read(os.path.join(outs[1], filename)) == \
                _read(os.path.join(outs[2], filename)), filename
