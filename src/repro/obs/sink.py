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

:class:`JsonlSink` appends records to a JSONL trace file, a journal in
the sense of :mod:`repro.durable` like the checkpoint: each record is
flushed as one line, so a killed campaign leaves a valid prefix behind
and :func:`read_trace` skips a torn final line.  :class:`MemorySink`
buffers records in a list (the per-worker buffer of parallel Stage 4).
:class:`NullSink` drops everything — the disabled-observability fast
path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.durable import JournalWriter, read_records

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


class JsonlSink(JournalWriter):
    """Appends records to a JSONL trace file, one flushed line each.

    The header record is written eagerly on construction so that even a
    campaign killed during Stage 1 leaves an identifiable trace behind.

    ``append=True`` reopens an existing trace instead of truncating it —
    the campaign-service restart path, where one job's trace spans
    several daemon lifetimes and must stay a single-header stream for
    :func:`read_trace`.  It first cuts a torn final line (see
    :mod:`repro.durable`) and then writes the header only when nothing
    is left, so a header torn by the kill is written again.  ``resumed``
    records which happened: True when the trace continues earlier
    records, False when this sink wrote its header.
    """

    enabled = True

    def __init__(
        self, path: str, header: Optional[Dict] = None, append: bool = False
    ):
        super().__init__(path, append=append, sort_keys=True)
        self.path = path
        if not self.resumed:
            record = {"kind": "header", "schema": SCHEMA_VERSION}
            record.update(header or {})
            self.emit(record)

    emit = JournalWriter.append


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

    Skips a torn final line (the writing campaign was killed mid-record),
    exactly like the checkpoint loader (:mod:`repro.durable`).  Raises
    :class:`TraceError` when the file has no header record or the
    header's schema version is unknown.
    """
    header: Optional[Dict] = None
    events: List[Dict] = []
    for record in read_records(path):
        if header is None:
            if record.get("kind") != "header":
                raise TraceError(f"trace {path!r}: first record is not a header")
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
