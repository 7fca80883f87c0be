"""Property: incremental store rollups == pure-Python fold, any dataset.

Hypothesis drives random small report sets (mixed kinds, sample lists,
some invalid reports) through :func:`ingest_reports` into an in-memory
store and checks the transactionally-maintained rollups against a
from-scratch refold of the committed rows — the store-side twin of the
sweep reducer's fold — plus the replay-counter identity.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients.protocol import MeasurementType
from repro.core.validation import ReportValidator
from repro.store import (
    connect,
    create_run,
    ingest_reports,
    logical_dump,
    replay_snapshot,
)
from repro.store.writers import DEFAULT_BATCH_SIZE

from tests.store.helpers import (
    KINDS,
    default_grid,
    fold_rollups,
    make_report,
    stored_rollups,
)

_GRID = default_grid()  # zone maths is pure; share one grid across examples


def _build_report(spec):
    """One report from a hypothesis spec dict (samples valid per kind)."""
    i = spec["i"]
    kind = KINDS[i % 3]
    unit = 0.01 if kind is MeasurementType.PING else 1.0e6
    samples = [unit * (k + 1) for k in range(spec["n_samples"])]
    return make_report(
        i,
        start_s=spec["start"],
        samples=samples,
        speed_ms=500.0 if spec["bad_speed"] else 10.0,
        extras=spec["extras"],
    )


_SPEC = st.fixed_dictionaries({
    "i": st.integers(min_value=0, max_value=300),
    "n_samples": st.integers(min_value=0, max_value=3),
    "bad_speed": st.booleans(),
    "start": st.floats(min_value=0.0, max_value=1.0e6,
                       allow_nan=False, allow_infinity=False),
    "extras": st.dictionaries(
        st.sampled_from(["jitter", "loss", "failures"]),
        st.floats(min_value=0.0, max_value=1.0e6,
                  allow_nan=False, allow_infinity=False),
        max_size=3),
})


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(_SPEC, max_size=40))
def test_rollups_equal_pure_fold(specs):
    reports = [_build_report(s) for s in specs]
    conn = connect(":memory:")
    try:
        run_id = create_run(conn, "prop", "wal")
        ingest_reports(conn, run_id, reports, _GRID, batch_size=7)
        assert stored_rollups(conn, run_id) == fold_rollups(conn, run_id)

        # replay counters are derivable from first principles too
        validator = ReportValidator()
        accepted = rejected = samples_total = 0
        for report in reports:
            if validator.validate(report, report.start_s).ok:
                accepted += 1
                samples_total += len(report.samples) or 1
            else:
                rejected += 1
        snap = replay_snapshot(conn, run_id)
        counters = snap["counters"]
        assert counters.get("coordinator.reports_ingested", 0) == accepted
        assert counters.get("coordinator.samples_ingested", 0) \
            == samples_total
        assert counters.get("coordinator.reports_rejected", 0) == rejected
        reject_counts = {
            name[len("validator.reject."):]: value
            for name, value in counters.items()
            if name.startswith("validator.reject.")
        }
        assert reject_counts == {
            reason: float(n) for reason, n in validator.rejections.items()
        }
    finally:
        conn.close()


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(_SPEC, max_size=30))
def test_incremental_equals_one_shot(specs):
    """Ingesting in two arbitrary chunks matches one ingest of the whole."""
    reports = [_build_report(s) for s in specs]
    split = len(reports) // 2

    def dump(chunks):
        conn = connect(":memory:")
        try:
            run_id = create_run(conn, "prop", "wal")
            for chunk in chunks:
                ingest_reports(conn, run_id, chunk, _GRID, batch_size=5)
            return json.dumps(
                {str(k): v for k, v
                 in sorted(stored_rollups(conn, run_id).items())},
                sort_keys=True)
        finally:
            conn.close()

    assert dump([reports]) == dump([reports[:split], reports[split:]])


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(_SPEC, max_size=40))
def test_batch_size_does_not_change_the_store(specs):
    """Every row and rollup is the same for any batch size.

    Batches of 1 write one report per transaction; the default batch
    writes all of them in one ``executemany`` pair.  The stores must be
    logically equal, and each one's rollups must equal the sequential
    refold float-for-float.
    """
    reports = [_build_report(s) for s in specs]
    dumps = []
    for batch_size in (1, 7, DEFAULT_BATCH_SIZE):
        conn = connect(":memory:")
        try:
            run_id = create_run(conn, "prop", "wal")
            ingest_reports(conn, run_id, reports, _GRID,
                           batch_size=batch_size)
            assert stored_rollups(conn, run_id) == \
                fold_rollups(conn, run_id)
            dumps.append(logical_dump(conn))
        finally:
            conn.close()
    assert dumps[0] == dumps[1] == dumps[2]
