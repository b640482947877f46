"""Happens-before data race detection.

A precise vector-clock detector in the FastTrack tradition, specialised
for the executor's serialised two-vCPU model:

* threads carry vector clocks, advanced on every event;
* lock release/acquire joins clocks through per-lock clocks;
* atomic (marked) stores publish a per-address release clock that atomic
  loads join — this models ``rcu_assign_pointer``/``rcu_dereference`` and
  WRITE_ONCE/READ_ONCE, so RCU publication is correctly *not* a race
  (and everything sequenced before the release is ordered for readers);
* ``synchronize_rcu`` joins the clock left behind by completed RCU
  read-side critical sections;
* shadow memory keeps one cell per aligned 8-byte word: each byte's
  last-write epoch and its readers since that write, one epoch per
  thread.

Two conflicting accesses are a data race when at least one is plain
(non-atomic) and neither happens-before the other — the C11/LKMM notion,
which is also what DataCollider approximates by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.kernel.ops import SyncOp
from repro.machine.accesses import AccessType, MemoryAccess

_WRITE = AccessType.WRITE


def _pair_key(a: Tuple[str, str], b: Tuple[str, str]) -> Tuple:
    """The unordered pair of two ``(ins, type)`` sides, smaller first."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class RaceReport:
    """One detected data race, deduplicated by instruction pair."""

    ins_a: str
    ins_b: str
    type_a: str
    type_b: str
    addr: int
    size: int
    value_a: int
    value_b: int
    thread_a: int
    thread_b: int

    @property
    def key(self) -> Tuple:
        """Dedup key: the unordered instruction/type pair."""
        return _pair_key((self.ins_a, self.type_a), (self.ins_b, self.type_b))

    def involves(self, needle: str) -> bool:
        """True when either instruction address contains ``needle``."""
        return needle in self.ins_a or needle in self.ins_b

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"data race at {self.addr:#x}: "
            f"{self.type_a}@{self.ins_a} (t{self.thread_a}) vs "
            f"{self.type_b}@{self.ins_b} (t{self.thread_b})"
        )


class _Epoch:
    """One access's epoch: who, when, with what access."""

    __slots__ = ("thread", "clock", "access", "atomic")

    def __init__(self, thread: int, clock: int, access: MemoryAccess, atomic: bool):
        self.thread = thread
        self.clock = clock
        self.access = access
        self.atomic = atomic


def _with_reader(readers: Tuple[_Epoch, ...], epoch: _Epoch) -> Tuple[_Epoch, ...]:
    """``readers`` with ``epoch`` as its thread's entry.  A thread that
    reads again keeps its position, so reports follow first-read order."""
    thread = epoch.thread
    for i, reader in enumerate(readers):
        if reader.thread == thread:
            return readers[:i] + (epoch,) + readers[i + 1 :]
    return readers + (epoch,)


#: A word's shadow: eight last-write epochs (None before any write) and
#: eight reader tuples (empty since the last write), one slot per byte.
_Cell = Tuple[List[Optional[_Epoch]], List[Tuple[_Epoch, ...]]]


class RaceDetector:
    """Precise happens-before detector over the serialised execution."""

    def __init__(self, nthreads: int = 2):
        self.nthreads = nthreads
        self._clock: List[List[int]] = [[0] * nthreads for _ in range(nthreads)]
        for t in range(nthreads):
            self._clock[t][t] = 1
        self._lock_clock: Dict[int, List[int]] = {}
        self._release_clock: Dict[int, List[int]] = {}
        self._rcu_clock: List[int] = [0] * nthreads
        # Shadow memory, one cell per aligned 8-byte word (``addr >> 3``).
        self._cells: Dict[int, _Cell] = {}
        self._reports: List[RaceReport] = []
        self._seen: set = set()

    # -- events ------------------------------------------------------------------

    def on_access(self, access: MemoryAccess, atomic: bool = False) -> None:
        """Process one traced (non-stack) memory access.

        Reports come out exactly as a per-byte check-then-record pass
        over the access's bytes would make them.  Within one access the
        same earlier epoch always gives the same verdict and the same
        report, so it is checked once.  When every byte of an access in
        one word shares its last write and its readers (the usual case:
        naturally aligned accesses of one size), they are checked and
        recorded once for the whole range; anything else (mixed sizes
        inside a word, an access crossing words) takes the per-byte path.
        """
        t = access.thread
        clock = self._clock[t]
        addr = access.addr
        size = access.size
        is_write = access.type is _WRITE

        if atomic:
            if is_write:
                self._release_clock[addr] = self._joined(
                    self._release_clock.get(addr), clock
                )
            else:
                rel = self._release_clock.get(addr)
                if rel is not None:
                    self._join_into(clock, rel)

        epoch = _Epoch(t, clock[t], access, atomic)
        lo = addr & 7
        hi = lo + size
        if lo < hi <= 8:
            cell = self._cells.get(addr >> 3)
            if cell is None:
                cell = self._cells[addr >> 3] = ([None] * 8, [()] * 8)
            writes, readers = cell
            prev = writes[lo]
            shared = readers[lo]
            if (
                writes[lo:hi].count(prev) == size
                and readers[lo:hi].count(shared) == size
            ):
                # The fast path: one last write and one reader tuple for
                # every byte, so each is checked and recorded once.
                if prev is not None and self._races(prev, t, clock, atomic):
                    self._report(prev.access, access)
                if is_write:
                    for reader in shared:
                        if self._races(reader, t, clock, atomic):
                            self._report(reader.access, access)
                    writes[lo:hi] = [epoch] * size
                    if shared:
                        readers[lo:hi] = [()] * size
                else:
                    readers[lo:hi] = [_with_reader(shared, epoch)] * size
                clock[t] += 1
                return
        self._on_bytes(access, epoch, clock, atomic, is_write)
        clock[t] += 1

    def on_sync(self, thread: int, op: SyncOp) -> None:
        """Process a synchronisation event from the executor."""
        clock = self._clock[thread]
        if op.kind == "acquire":
            held = self._lock_clock.get(op.obj)
            if held is not None:
                self._join_into(clock, held)
        elif op.kind == "release":
            self._lock_clock[op.obj] = self._joined(self._lock_clock.get(op.obj), clock)
            clock[thread] += 1
        elif op.kind == "rcu_read_unlock":
            self._join_into(self._rcu_clock, clock)
            clock[thread] += 1
        elif op.kind == "rcu_synchronize":
            self._join_into(clock, self._rcu_clock)
        # rcu_read_lock carries no edge.

    def reports(self) -> List[RaceReport]:
        """All deduplicated race reports so far."""
        return list(self._reports)

    def load_state(self, template: "RaceDetector") -> None:
        """Overwrite this detector's state with a copy of ``template``'s.

        Prefix-fork memoization replays a task's shared sequential prefix
        into one template detector, then each forked trial's fresh
        detector adopts that state here.  Vector clocks, the RCU clock
        and the shadow cells' slot lists are mutated in place by
        on_access/on_sync and must be copied per-container; lock/release
        clock lists are only ever replaced wholesale (``_joined`` builds
        new lists), and epochs and reader tuples are immutable, so those
        are shared.
        """
        self.nthreads = template.nthreads
        self._clock = [list(row) for row in template._clock]
        self._lock_clock = dict(template._lock_clock)
        self._release_clock = dict(template._release_clock)
        self._rcu_clock = list(template._rcu_clock)
        self._cells = {
            word: (writes[:], readers[:])
            for word, (writes, readers) in template._cells.items()
        }
        self._reports = list(template._reports)
        self._seen = set(template._seen)

    # -- internals -----------------------------------------------------------------

    def _on_bytes(
        self,
        access: MemoryAccess,
        epoch: _Epoch,
        clock: List[int],
        atomic: bool,
        is_write: bool,
    ) -> None:
        """The general path: check and record byte by byte, skipping
        epochs this access has already checked."""
        t = access.thread
        cells = self._cells
        races = self._races
        checked = set()
        word = None
        for byte in range(access.addr, access.addr + access.size):
            if byte >> 3 != word:
                word = byte >> 3
                cell = cells.get(word)
                if cell is None:
                    cell = cells[word] = ([None] * 8, [()] * 8)
                writes, readers = cell
            i = byte & 7
            prev = writes[i]
            if prev is not None and prev not in checked:
                checked.add(prev)
                if races(prev, t, clock, atomic):
                    self._report(prev.access, access)
            if is_write:
                for reader in readers[i]:
                    if reader not in checked:
                        checked.add(reader)
                        if races(reader, t, clock, atomic):
                            self._report(reader.access, access)
                writes[i] = epoch
                readers[i] = ()
            else:
                readers[i] = _with_reader(readers[i], epoch)

    @staticmethod
    def _races(prev: _Epoch, thread: int, clock: List[int], atomic: bool) -> bool:
        if prev.thread == thread:
            return False
        if prev.atomic and atomic:
            return False  # both marked: synchronised by definition
        return prev.clock > clock[prev.thread]

    def _report(self, a: MemoryAccess, b: MemoryAccess) -> None:
        """Record the race of earlier access ``a`` with ``b``.  Most
        calls repeat a known instruction pair, so the dedup key is
        checked before any report is built."""
        type_a = a.type.value
        type_b = b.type.value
        key = _pair_key((a.ins, type_a), (b.ins, type_b))
        if key in self._seen:
            return
        self._seen.add(key)
        self._reports.append(
            RaceReport(
                ins_a=a.ins,
                ins_b=b.ins,
                type_a=type_a,
                type_b=type_b,
                addr=b.addr,
                size=b.size,
                value_a=a.value,
                value_b=b.value,
                thread_a=a.thread,
                thread_b=b.thread,
            )
        )

    def _joined(self, base: Optional[List[int]], other: List[int]) -> List[int]:
        if base is None:
            return list(other)
        return [max(x, y) for x, y in zip(base, other)]

    def _join_into(self, target: List[int], other: List[int]) -> None:
        for i, value in enumerate(other):
            if value > target[i]:
                target[i] = value
