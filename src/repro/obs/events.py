"""Structured run-event log (the JSONL side of telemetry).

Every operationally meaningful state change in a run — an epoch closing,
a change alert firing, a task being refused, a cache being warmed — is
appended here as one flat JSON object.  The log is the replayable,
diffable account of *why* a run behaved the way it did, and the
substrate ``repro obs report`` summarizes.

Schema (stable, versioned):

* ``v``    — schema version (currently 1);
* ``seq``  — monotonically increasing sequence number within the run
  (ties in sim time keep their emission order);
* ``t``    — simulation time in seconds (**never** wall-clock: records
  must be byte-identical across identical seeded runs);
* ``kind`` — dotted event name (``epoch.close``, ``task.issue``, ...);
* remaining keys — event-specific fields, JSON scalars only.

Serialization uses ``sort_keys`` and a compact separator so the bytes
of ``events.jsonl`` are a pure function of the recorded tuples.
"""

from __future__ import annotations

import io
import json
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["SCHEMA_VERSION", "DEFAULT_CAPACITY", "EventLog", "NullEventLog",
           "NULL_EVENT_LOG", "read_json_tolerant", "read_jsonl_tolerant"]

SCHEMA_VERSION = 1

#: Default bound on retained events.  Live runs with snapshots enabled
#: can emit events for hours; an unbounded log would grow without limit,
#: so the default keeps a generous in-memory window and counts what it
#: sheds (``dropped``, surfaced as the ``obs.events_dropped`` counter
#: and flagged by ``repro obs report``).  Pass ``capacity=None`` for the
#: old unbounded behavior.
DEFAULT_CAPACITY = 200_000


class EventLog:
    """In-memory ordered, bounded deque of structured events."""

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY):
        """``capacity`` bounds retained events (oldest dropped), None = unbounded."""
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None for unbounded)")
        self._events: "deque[dict]" = deque(maxlen=capacity)
        self._seq = 0
        self.capacity = capacity

    @property
    def dropped(self) -> int:
        """Events shed because of the capacity bound."""
        return self._seq - len(self._events)

    def emit(self, kind: str, t: float, **fields) -> None:
        """Append one event at sim time ``t`` with flat JSON fields."""
        record = {"v": SCHEMA_VERSION, "seq": self._seq, "t": float(t),
                  "kind": kind}
        self._seq += 1
        for k, v in fields.items():
            record[k] = v
        self._events.append(record)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._events)

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """All events, optionally filtered by exact ``kind``."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e["kind"] == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self._events:
            out[e["kind"]] = out.get(e["kind"], 0) + 1
        return out

    def to_jsonl(self) -> str:
        """Canonical JSONL rendering: one sorted-key compact line each."""
        buf = io.StringIO()
        for e in self._events:
            buf.write(json.dumps(e, sort_keys=True, separators=(",", ":")))
            buf.write("\n")
        return buf.getvalue()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())


class NullEventLog:
    """Event log twin that records nothing."""

    capacity = None
    dropped = 0

    def emit(self, kind: str, t: float, **fields) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[dict]:
        return iter(())

    def events(self, kind: Optional[str] = None) -> List[dict]:
        return []

    def counts_by_kind(self) -> Dict[str, int]:
        return {}

    def to_jsonl(self) -> str:
        return ""

    def write_jsonl(self, path) -> None:
        pass


NULL_EVENT_LOG = NullEventLog()


def read_jsonl_tolerant(path) -> Tuple[List[dict], int]:
    """Parse a JSONL file, skipping unparseable lines instead of raising.

    A live run killed mid-write — or a *concurrent* writer caught
    between flushes — leaves a truncated trailing line in
    ``events.jsonl``/``snapshots.jsonl``, possibly cut inside a
    multi-byte UTF-8 sequence.  Report/watch tooling must degrade with
    a warning, never traceback, so the file is read as bytes and each
    line decoded independently: a torn line counts toward
    ``n_bad_lines`` and is simply re-read complete on the next poll.
    So does a line nested too deeply to parse, and a line holding
    anything but a JSON object.  Returns ``(records, n_bad_lines)``.

    The one JSONL reader: callers that must not lose a line (the sweep
    reducer's ``load_summary``) raise on ``n_bad_lines > 0``.
    """
    records: List[dict] = []
    bad = 0
    with open(path, "rb") as fh:
        data = fh.read()
    for raw in data.split(b"\n"):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError):
            bad += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            bad += 1
    return records, bad


def read_json_tolerant(path) -> Tuple[Optional[dict], str]:
    """Parse a JSON-object file; return ``(record, "")`` or ``(None, why)``.

    The file-sized twin of :func:`read_jsonl_tolerant` for the
    artifact loaders (``metrics.json``, ``spans.json``, ``cell.json``,
    manifests): an unreadable file, bad JSON, nesting too deep to parse
    or a top-level value that is not an object comes back as a reason
    the caller turns into a warning, never as a traceback.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        return None, str(exc)
    if not isinstance(record, dict):
        return None, f"not a JSON object ({type(record).__name__})"
    return record, ""
