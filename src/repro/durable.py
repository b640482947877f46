"""Durable files: the one rule that lets a killed run resume.

A run can be killed between any two bytes it writes, and every file it
must find again has one of two shapes.  A *publish* replaces a whole
file (:func:`write_atomic`).  A *journal* appends one JSON object per
flushed line (:class:`JournalWriter`), so a kill leaves every earlier
record whole.

The torn-tail rule: a kill mid-append leaves a final line without its
newline.  Readers skip it (:func:`read_records`, :func:`read_lines`),
and reopening a journal for append cuts it first
(:func:`cut_torn_tail`), because a record appended after it would be
glued onto the partial line and every later read would stop there.
Only the final line can be torn, so a whole line that does not parse
means the file was damaged, and reading it raises ``ValueError``.

This module imports nothing from ``repro``, so every package can use it.
"""

from __future__ import annotations

import io
import itertools
import json
import os
from typing import Dict, Iterator, List, Tuple


def write_atomic(path: str, text: str) -> None:
    """Publish ``text`` at ``path`` whole: a temp file in the same
    directory renamed over it, so a reader sees no file, the old one or
    the new one, never a prefix."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


class JournalWriter:
    """Appends records to a journal, one flushed JSON line each.

    ``append=False`` starts the file afresh; ``append=True`` cuts its
    torn tail and continues it, and ``resumed`` says whether whole
    records remain.  ``sort_keys`` is the file's record serialization.
    A flushed line survives a *process* kill (the bytes are in OS
    buffers); ``fsync=True`` also syncs each record to disk, surviving
    a machine crash at the cost of one disk sync per record.
    """

    def __init__(
        self, path: str, append: bool = False, fsync: bool = False, sort_keys: bool = False
    ):
        self.resumed = append and cut_torn_tail(path) > 0
        self._handle = open(path, "a" if append else "w", encoding="utf-8")
        self._fsync = fsync
        self._sort_keys = sort_keys

    def append(self, record: Dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=self._sort_keys) + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()


def cut_torn_tail(path: str) -> int:
    """Cut ``path`` back to just after its last newline; its new size.

    The scan reads backwards from the end, so a long journal costs one
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


def _whole_lines(handle) -> Iterator[bytes]:
    """``handle``'s lines from its position, stopping before a torn one."""
    for raw in handle:
        if not raw.endswith(b"\n"):
            return
        yield raw


def read_records(path: str) -> Iterator[Dict]:
    """The records of the journal at ``path``, in order."""
    with open(path, "rb") as handle:
        for raw in _whole_lines(handle):
            if raw.strip():
                try:
                    record = json.loads(raw)
                except ValueError as error:  # not JSON, or not UTF-8
                    raise ValueError(f"{path!r} is damaged: {error}") from None
                yield record


def read_lines(path: str, offset: int, limit: int) -> Tuple[int, List[bytes]]:
    """Up to ``limit`` whole lines of ``path`` from byte ``offset``, and
    the offset after them.  ``offset`` must be 0 or follow a newline
    (``ValueError`` otherwise); a missing file reads as an empty one."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        handle = io.BytesIO()
    with handle:
        if offset:
            handle.seek(offset - 1)
            if handle.read(1) != b"\n":
                raise ValueError(f"offset {offset} does not start a line")
        lines = list(itertools.islice(_whole_lines(handle), limit))
    return offset + sum(map(len, lines)), lines
