"""Event sinks: where observability records go.

One record is one JSON-ready dict with a ``kind`` discriminator:

* ``header``  — first line of a trace file; carries ``schema`` (the
  event-schema version) plus free-form campaign parameters.
* ``span``    — one closed tracer span (name, start, duration, depth,
  parent, attrs).
* ``metrics`` — a cumulative snapshot of all counters/gauges/histogram
  summaries.  Readers keep the *last* one, mirroring the cumulative
  counter records of the checkpoint journal.
* ``event``   — a point event (no duration), e.g. a worker respawn.

:class:`JsonlSink` appends records to a JSONL trace file in the same
append-only, torn-tail-tolerant style as the checkpoint journal: each
record is flushed as one line, so a killed campaign leaves a valid
prefix behind and :func:`read_trace` silently discards a torn final
line.  :class:`MemorySink` buffers records in a list (the per-worker
buffer of parallel Stage 4).  :class:`NullSink` drops everything — the
disabled-observability fast path.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

#: Version of the event schema; bumped on incompatible record changes.
SCHEMA_VERSION = 1


class TraceError(ValueError):
    """The trace file is unreadable: no header or wrong schema."""


class NullSink:
    """Drops every record; the disabled-observability sink."""

    enabled = False

    __slots__ = ()

    def emit(self, record: Dict) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Buffers records in memory (per-worker buffering in Stage 4)."""

    enabled = True

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Dict] = []

    def emit(self, record: Dict) -> None:
        self.events.append(record)

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends records to a JSONL trace file, one flushed line each.

    The header record is written eagerly on construction so that even a
    campaign killed during Stage 1 leaves an identifiable trace behind.

    ``append=True`` reopens an existing trace instead of truncating it —
    the campaign-service restart path, where one job's trace spans
    several daemon lifetimes and must stay a single-header stream for
    :func:`read_trace`.  It first cuts a torn final line (see
    :func:`_cut_torn_tail`) and then writes the header only when nothing
    is left, so a header torn by the kill is written again.  ``resumed``
    records which happened: True when the trace continues earlier
    records, False when this sink wrote its header.
    """

    enabled = True

    def __init__(
        self, path: str, header: Optional[Dict] = None, append: bool = False
    ):
        self.path = path
        self.resumed = append and _cut_torn_tail(path) > 0
        self._handle = open(path, "a" if append else "w", encoding="utf-8")
        if not self.resumed:
            record = {"kind": "header", "schema": SCHEMA_VERSION}
            record.update(header or {})
            self.emit(record)

    def emit(self, record: Dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def _cut_torn_tail(path: str) -> int:
    """Cut ``path`` back to just after its last newline; its new size.

    A writer killed mid-record leaves a partial final line.  A record
    appended after it would be glued onto that line, and
    :func:`read_trace` would stop there and drop every record after it.
    The scan reads backwards from the end, so a long trace costs one
    block.  A missing file counts as empty.
    """
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return 0
    with handle:
        size = keep = handle.seek(0, os.SEEK_END)
        while keep > 0:
            step = min(keep, 4096)
            handle.seek(keep - step)
            newline = handle.read(step).rfind(b"\n")
            if newline >= 0:
                keep += newline + 1 - step
                break
            keep -= step
        if keep < size:
            handle.truncate(keep)
    return keep


class TeeSink:
    """Mirrors every record to one owned sink plus any number of shared ones.

    The campaign service tees each job's events into the job's own trace
    file (the owned ``primary``) and the daemon-wide operations trace
    (shared across jobs).  ``close()`` closes only the primary — the
    shared mirrors outlive any single job.
    """

    enabled = True

    __slots__ = ("primary", "mirrors")

    def __init__(self, primary, *mirrors):
        self.primary = primary
        self.mirrors = mirrors

    def emit(self, record: Dict) -> None:
        self.primary.emit(record)
        for mirror in self.mirrors:
            mirror.emit(record)

    def close(self) -> None:
        self.primary.close()


def read_trace(path: str) -> Tuple[Dict, List[Dict]]:
    """Read a JSONL trace: (header, records after the header).

    Tolerates a torn final line (the writing campaign was killed
    mid-record) by discarding it, exactly like the checkpoint loader: a
    line without its trailing newline is torn even when it parses.
    Raises :class:`TraceError` when the file has no header record or the
    header's schema version is unknown.
    """
    header: Optional[Dict] = None
    events: List[Dict] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.endswith("\n"):
                break  # torn tail: keep the valid prefix
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            if header is None:
                if record.get("kind") != "header":
                    raise TraceError(
                        f"trace {path!r}: first record is not a header"
                    )
                if record.get("schema") != SCHEMA_VERSION:
                    raise TraceError(
                        f"trace {path!r}: schema {record.get('schema')!r} "
                        f"not supported (expected {SCHEMA_VERSION})"
                    )
                header = record
            else:
                events.append(record)
    if header is None:
        raise TraceError(f"trace {path!r} has no header record")
    return header, events
