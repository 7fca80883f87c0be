"""Fold per-cell sweep artifacts into sweep-level summaries.

The reducer walks ``OUT/cells/<id>/`` in sorted cell-id order — an
order no scheduler can perturb — and writes two deterministic files at
the sweep root:

* ``summary.jsonl`` — one key-sorted JSON line per cell: identity
  (scenario, seed, overrides), status, and the scenario's metric dict.
  This is the machine-readable result of the sweep; byte-identical for
  any worker count.
* ``metrics.json`` — the cells' telemetry registries folded into one
  registry-shaped snapshot (counters summed, gauges averaged,
  histograms bucket-merged; a cell whose bucket layout disagrees is
  skipped with a warning) plus ``sweep.cells_*`` roll-up counters.
  The shape matches a single run's ``metrics.json``, so ``repro obs
  report`` and ``repro obs diff`` consume a sweep directory unchanged.

Host-timing artifacts (per-cell ``spans.json``, ``sweep_status.json``)
are deliberately *not* folded: they are not deterministic and would
poison byte-comparisons between runs.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import read_json_tolerant, read_jsonl_tolerant
from repro.obs.metrics import merge_snapshots
from repro.sweep.grid import (
    CELL_FILENAME,
    CELLS_DIRNAME,
    SUMMARY_FILENAME,
)

__all__ = ["merge_cells", "load_summary", "merge_metrics", "MergeResult"]

METRICS_FILENAME = "metrics.json"


class MergeResult:
    """What one reduce pass produced: paths, cell counts, warnings."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.cells = 0
        self.ok = 0
        self.warnings: List[str] = []
        #: Rows ingested into a measurement store, when the reduce pass
        #: was given a store target (None otherwise).
        self.store_rows: Optional[int] = None
        self.store_path: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MergeResult(cells={self.cells}, ok={self.ok}, "
                f"warnings={len(self.warnings)})")


def _load_cell_records(out_dir: str, result: MergeResult) -> List[dict]:
    cells_dir = os.path.join(out_dir, CELLS_DIRNAME)
    if not os.path.isdir(cells_dir):
        result.warnings.append(f"no {CELLS_DIRNAME}/ directory under "
                               f"{out_dir}")
        return []
    records = []
    for cell_id in sorted(os.listdir(cells_dir)):
        cell_path = os.path.join(cells_dir, cell_id, CELL_FILENAME)
        if not os.path.isfile(cell_path):
            result.warnings.append(
                f"cells/{cell_id}: missing {CELL_FILENAME} (cell still "
                "running, or killed before it wrote results?)"
            )
            continue
        record, why = read_json_tolerant(cell_path)
        if why:
            result.warnings.append(f"cells/{cell_id}: unreadable "
                                   f"{CELL_FILENAME}: {why}")
        else:
            records.append(record)
    return records


def merge_metrics(cell_metrics: List[Tuple[str, dict]],
                  result: Optional[MergeResult] = None) -> dict:
    """Fold per-cell registry snapshots into one registry-shaped dict.

    ``cell_metrics`` is a list of ``(cell_id, metrics_dict)`` pairs in
    sorted cell-id order, folded cell by cell with
    :func:`~repro.obs.metrics.merge_snapshots` (summing is sequential,
    so this gives the same floats as one fold over all cells).  A cell
    whose histogram layout disagrees with the cells before it, or that
    holds a non-numeric value, is skipped with a warning on
    ``result``.  Counters sum and histograms
    merge; gauges are then averaged over the cells that observed them.
    """
    result = result or MergeResult("")
    merged = merge_snapshots([])
    observed: Dict[str, int] = {}
    for cell_id, metrics in cell_metrics:
        try:
            merged = merge_snapshots([merged, metrics])
        except (TypeError, ValueError) as exc:
            result.warnings.append(f"cells/{cell_id}: metrics skipped: {exc}")
            continue
        for name in metrics.get("gauges") or {}:
            observed[name] = observed.get(name, 0) + 1
    merged["gauges"] = {
        name: value / observed[name]
        for name, value in merged["gauges"].items()
    }
    return merged


def merge_cells(out_dir: str,
                store_path: Optional[str] = None) -> MergeResult:
    """Reduce ``out_dir``'s cells into summary.jsonl + merged metrics.json.

    Tolerant by design: unreadable or missing cell artifacts become
    warnings on the returned :class:`MergeResult`, never exceptions —
    a partially-complete sweep must still be summarizable.

    With ``store_path``, the reducer additionally performs **one**
    merged ingest of the whole sweep root (the root run plus every
    cell run) into the measurement store at that path — a single
    post-merge import rather than per-cell store overhead on the hot
    execution path.  The sweep's label in the store is the output
    directory's basename; a run of the same label is replaced, so
    re-merging is idempotent.  ``MergeResult.store_rows`` records how
    many rows landed.
    """
    result = MergeResult(out_dir)
    records = _load_cell_records(out_dir, result)
    records.sort(key=lambda r: r.get("cell_id", ""))
    result.cells = len(records)
    result.ok = sum(1 for r in records if r.get("status") == "ok")

    summary_path = os.path.join(out_dir, SUMMARY_FILENAME)
    with open(summary_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True,
                                separators=(",", ":")) + "\n")

    cell_metrics: List[Tuple[str, dict]] = []
    for record in records:
        cell_id = record.get("cell_id", "")
        path = os.path.join(out_dir, CELLS_DIRNAME, cell_id,
                            METRICS_FILENAME)
        if not os.path.isfile(path):
            continue
        metrics, why = read_json_tolerant(path)
        if why:
            result.warnings.append(
                f"cells/{cell_id}: unreadable {METRICS_FILENAME}: {why}"
            )
        else:
            cell_metrics.append((cell_id, metrics))
    merged = merge_metrics(cell_metrics, result)
    status_counts: Dict[str, int] = {}
    for record in records:
        status = str(record.get("status", "unknown"))
        status_counts[status] = status_counts.get(status, 0) + 1
    merged["counters"]["sweep.cells_total"] = float(len(records))
    for status in sorted(status_counts):
        merged["counters"][f"sweep.cells_{status}"] = float(
            status_counts[status]
        )
    with open(os.path.join(out_dir, METRICS_FILENAME), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    if store_path is not None:
        _ingest_into_store(out_dir, store_path, result)
    return result


def _ingest_into_store(out_dir: str, store_path: str,
                       result: MergeResult) -> None:
    """One merged store ingest of the reduced sweep root (tolerant)."""
    from repro.store import (
        StoreError,
        connect,
        import_sweep_root,
        resolve_store_path,
    )

    label = os.path.basename(os.path.normpath(out_dir)) or "sweep"
    try:
        conn = connect(resolve_store_path(store_path))
        try:
            imported = import_sweep_root(conn, out_dir, label, replace=True)
        finally:
            conn.close()
    except StoreError as exc:
        result.warnings.append(f"store ingest failed: {exc}")
        return
    result.store_rows = imported.rows_ingested
    result.store_path = store_path


def load_summary(out_dir: str) -> List[dict]:
    """Read ``summary.jsonl`` back into a list of cell records.

    Strict: the reducer wrote every line, so an unparseable one means
    the file was damaged and raises ValueError rather than dropping a
    cell.
    """
    path = os.path.join(out_dir, SUMMARY_FILENAME)
    records, n_bad = read_jsonl_tolerant(path)
    if n_bad:
        raise ValueError(f"{path}: {n_bad} unparseable line(s)")
    return records
