"""Unit tests for the happens-before race detector (synthetic streams)."""

import dataclasses
from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.datarace import RaceDetector, RaceReport
from repro.kernel.ops import SyncOp
from repro.machine.accesses import AccessType, MemoryAccess

_SEQ = [0]


def acc(thread, type, addr, size=8, value=0, ins=None):
    _SEQ[0] += 1
    return MemoryAccess(
        seq=_SEQ[0],
        thread=thread,
        type=AccessType.READ if type == "R" else AccessType.WRITE,
        addr=addr,
        size=size,
        value=value,
        ins=ins or f"mod.py:fn{thread}:{_SEQ[0]}",
    )


def sync(kind, obj=0x1000):
    return SyncOp(kind=kind, obj=obj, ins="sync.py:s:1")


class TestPlainRaces:
    def test_write_read_race_detected(self):
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100))
        d.on_access(acc(1, "R", 0x100))
        assert len(d.reports()) == 1

    def test_write_write_race_detected(self):
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100))
        d.on_access(acc(1, "W", 0x100))
        assert len(d.reports()) == 1

    def test_read_then_write_race_detected(self):
        d = RaceDetector()
        d.on_access(acc(0, "R", 0x100))
        d.on_access(acc(1, "W", 0x100))
        assert len(d.reports()) == 1

    def test_read_read_is_not_a_race(self):
        d = RaceDetector()
        d.on_access(acc(0, "R", 0x100))
        d.on_access(acc(1, "R", 0x100))
        assert d.reports() == []

    def test_same_thread_never_races(self):
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100))
        d.on_access(acc(0, "R", 0x100))
        d.on_access(acc(0, "W", 0x100))
        assert d.reports() == []

    def test_disjoint_addresses_do_not_race(self):
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100, size=4))
        d.on_access(acc(1, "R", 0x104, size=4))
        assert d.reports() == []

    def test_partial_overlap_races(self):
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100, size=8))
        d.on_access(acc(1, "R", 0x104, size=2))
        assert len(d.reports()) == 1

    def test_dedup_by_instruction_pair(self):
        d = RaceDetector()
        for _ in range(5):
            d.on_access(acc(0, "W", 0x100, ins="a.py:w:1"))
            d.on_access(acc(1, "R", 0x100, ins="a.py:r:2"))
        assert len(d.reports()) == 1

    def test_distinct_instruction_pairs_reported_separately(self):
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100, ins="a.py:w:1"))
        d.on_access(acc(1, "R", 0x100, ins="a.py:r:2"))
        d.on_access(acc(1, "R", 0x100, ins="a.py:r:3"))
        assert len(d.reports()) == 2


class TestLockSynchronisation:
    def test_lock_protected_accesses_do_not_race(self):
        d = RaceDetector()
        d.on_sync(0, sync("acquire"))
        d.on_access(acc(0, "W", 0x100))
        d.on_sync(0, sync("release"))
        d.on_sync(1, sync("acquire"))
        d.on_access(acc(1, "R", 0x100))
        d.on_sync(1, sync("release"))
        assert d.reports() == []

    def test_different_locks_do_not_synchronise(self):
        """The #9 MAC bug shape: writer under lock A, reader under lock B."""
        d = RaceDetector()
        d.on_sync(0, sync("acquire", obj=0x1000))
        d.on_access(acc(0, "W", 0x100))
        d.on_sync(0, sync("release", obj=0x1000))
        d.on_sync(1, sync("acquire", obj=0x2000))
        d.on_access(acc(1, "R", 0x100))
        d.on_sync(1, sync("release", obj=0x2000))
        assert len(d.reports()) == 1

    def test_lock_edge_covers_earlier_plain_writes(self):
        """Everything before a release is ordered for the next acquirer."""
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x300))  # plain, before the critical section
        d.on_sync(0, sync("acquire"))
        d.on_sync(0, sync("release"))
        d.on_sync(1, sync("acquire"))
        d.on_access(acc(1, "R", 0x300))
        assert d.reports() == []

    def test_reader_without_lock_races_with_locked_writer(self):
        d = RaceDetector()
        d.on_sync(0, sync("acquire"))
        d.on_access(acc(0, "W", 0x100))
        d.on_sync(0, sync("release"))
        d.on_access(acc(1, "R", 0x100))  # no lock at all
        assert len(d.reports()) == 1


class TestAtomics:
    def test_both_atomic_never_race(self):
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100), atomic=True)
        d.on_access(acc(1, "R", 0x100), atomic=True)
        assert d.reports() == []

    def test_atomic_vs_plain_still_races(self):
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100), atomic=True)
        d.on_access(acc(1, "R", 0x100), atomic=False)
        assert len(d.reports()) == 1

    def test_release_acquire_orders_prior_plain_stores(self):
        """The RCU-publish pattern: plain init, atomic publish, atomic
        consume, plain read of the init — no race."""
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x200))  # plain init of the object
        d.on_access(acc(0, "W", 0x100, value=0x200), atomic=True)  # publish
        d.on_access(acc(1, "R", 0x100, value=0x200), atomic=True)  # consume
        d.on_access(acc(1, "R", 0x200))  # read the object: ordered
        assert d.reports() == []

    def test_plain_write_after_publish_is_not_ordered(self):
        """The l2tp shape: a plain write *after* the publish would race
        with the consumer's plain read (which is why the kernel uses
        WRITE_ONCE there)."""
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100, value=0x200), atomic=True)  # publish
        d.on_access(acc(0, "W", 0x208))  # plain init AFTER publish (buggy)
        d.on_access(acc(1, "R", 0x100, value=0x200), atomic=True)  # consume
        d.on_access(acc(1, "R", 0x208))  # plain read: races
        assert len(d.reports()) == 1


class TestRcu:
    def test_synchronize_orders_after_reader_unlock(self):
        d = RaceDetector()
        d.on_sync(0, sync("rcu_read_lock"))
        d.on_access(acc(0, "R", 0x100))
        d.on_sync(0, sync("rcu_read_unlock"))
        d.on_sync(1, sync("rcu_synchronize"))
        d.on_access(acc(1, "W", 0x100))  # after the grace period: ordered
        assert d.reports() == []

    def test_reader_still_races_without_grace_period(self):
        d = RaceDetector()
        d.on_sync(0, sync("rcu_read_lock"))
        d.on_access(acc(0, "R", 0x100))
        d.on_sync(0, sync("rcu_read_unlock"))
        d.on_access(acc(1, "W", 0x100))  # no synchronize_rcu
        assert len(d.reports()) == 1


class TestReportShape:
    def test_report_carries_both_sides(self):
        d = RaceDetector()
        d.on_access(acc(0, "W", 0x100, value=7, ins="w.py:writer:9"))
        d.on_access(acc(1, "R", 0x100, value=3, ins="r.py:reader:4"))
        (report,) = d.reports()
        assert {report.ins_a, report.ins_b} == {"w.py:writer:9", "r.py:reader:4"}
        assert {report.type_a, report.type_b} == {"W", "R"}
        assert report.involves("writer")
        assert report.involves("reader")
        assert not report.involves("nothing")

    def test_key_is_order_insensitive(self):
        d1 = RaceDetector()
        d1.on_access(acc(0, "W", 0x100, ins="a.py:x:1"))
        d1.on_access(acc(1, "R", 0x100, ins="a.py:y:2"))
        d2 = RaceDetector()
        d2.on_access(acc(1, "R", 0x100, ins="a.py:y:2"))
        d2.on_access(acc(0, "W", 0x100, ins="a.py:x:1"))
        assert d1.reports()[0].key == d2.reports()[0].key


# -- the per-byte reference ---------------------------------------------------------


class _RefEpoch:
    __slots__ = ("thread", "clock", "access", "atomic")

    def __init__(self, thread, clock, access, atomic):
        self.thread = thread
        self.clock = clock
        self.access = access
        self.atomic = atomic


class ReferenceRaceDetector:
    """The per-byte detector: one last-write epoch and one reader dict
    (thread -> epoch, in first-read order) per byte, checked and recorded
    byte by byte.  The exact-order reference for RaceDetector, which keeps
    one shadow cell per word and checks a shared epoch once."""

    def __init__(self, nthreads: int = 2):
        self.nthreads = nthreads
        self._clock: List[List[int]] = [[0] * nthreads for _ in range(nthreads)]
        for t in range(nthreads):
            self._clock[t][t] = 1
        self._lock_clock: Dict[int, List[int]] = {}
        self._release_clock: Dict[int, List[int]] = {}
        self._rcu_clock: List[int] = [0] * nthreads
        self._last_write: Dict[int, _RefEpoch] = {}
        self._last_read: Dict[int, Dict[int, _RefEpoch]] = {}
        self._reports: List[RaceReport] = []
        self._seen: set = set()

    def on_access(self, access, atomic=False):
        t = access.thread
        clock = self._clock[t]
        if atomic:
            if access.is_write:
                self._release_clock[access.addr] = self._joined(
                    self._release_clock.get(access.addr), clock
                )
            else:
                rel = self._release_clock.get(access.addr)
                if rel is not None:
                    self._join_into(clock, rel)
        epoch = _RefEpoch(t, clock[t], access, atomic)
        for byte in range(access.addr, access.end):
            prev_write = self._last_write.get(byte)
            if prev_write is not None and self._races(prev_write, t, clock, atomic):
                self._report(prev_write.access, access)
            if access.is_write:
                readers = self._last_read.get(byte)
                if readers is not None:
                    for reader in readers.values():
                        if self._races(reader, t, clock, atomic):
                            self._report(reader.access, access)
                    del self._last_read[byte]
                self._last_write[byte] = epoch
            else:
                self._last_read.setdefault(byte, {})[t] = epoch
        clock[t] += 1

    def on_sync(self, thread, op):
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

    def reports(self):
        return list(self._reports)

    def load_state(self, template):
        self.nthreads = template.nthreads
        self._clock = [list(row) for row in template._clock]
        self._lock_clock = dict(template._lock_clock)
        self._release_clock = dict(template._release_clock)
        self._rcu_clock = list(template._rcu_clock)
        self._last_write = dict(template._last_write)
        self._last_read = {byte: dict(r) for byte, r in template._last_read.items()}
        self._reports = list(template._reports)
        self._seen = set(template._seen)

    @staticmethod
    def _races(prev, thread, clock, atomic):
        if prev.thread == thread:
            return False
        if prev.atomic and atomic:
            return False
        return prev.clock > clock[prev.thread]

    def _report(self, a, b):
        report = RaceReport(
            ins_a=a.ins,
            ins_b=b.ins,
            type_a=a.type.value,
            type_b=b.type.value,
            addr=b.addr,
            size=b.size,
            value_a=a.value,
            value_b=b.value,
            thread_a=a.thread,
            thread_b=b.thread,
        )
        key = tuple(sorted(((a.ins, report.type_a), (b.ins, report.type_b))))
        if key in self._seen:
            return
        self._seen.add(key)
        self._reports.append(report)

    @staticmethod
    def _joined(base, other):
        if base is None:
            return list(other)
        return [max(x, y) for x, y in zip(base, other)]

    @staticmethod
    def _join_into(target, other):
        for i, value in enumerate(other):
            if value > target[i]:
                target[i] = value


# -- differential property -----------------------------------------------------------

#: Two shadow words, so accesses collide, straddle and mix sizes.
_BASE = 0x100
_SPAN = 16
_SYNC_KINDS = ("acquire", "release", "rcu_read_lock", "rcu_read_unlock", "rcu_synchronize")


@st.composite
def _access_event(draw, nthreads):
    size = draw(st.sampled_from((1, 2, 4, 8)))
    if draw(st.booleans()):  # naturally aligned
        addr = _BASE + draw(st.integers(0, _SPAN // size - 1)) * size
    else:  # any offset: unaligned, and cross-word when it straddles
        addr = _BASE + draw(st.integers(0, _SPAN - size))
    return (
        "access",
        draw(st.integers(0, nthreads - 1)),
        draw(st.sampled_from("RRW")),  # reads pile up between writes
        addr,
        size,
        draw(st.sampled_from((False, False, False, True))),  # atomic
        # Enough instructions that most races are fresh, few enough that
        # dedup keys repeat.
        draw(st.integers(0, 15)),
    )


@st.composite
def _streams(draw):
    nthreads = draw(st.sampled_from((2, 3, 3)))
    access = _access_event(nthreads)
    event = st.one_of(
        access,
        access,
        access,
        access,
        st.tuples(
            st.just("sync"),
            st.integers(0, nthreads - 1),
            st.sampled_from(_SYNC_KINDS),
            st.sampled_from((0x1000, 0x2000)),
        ),
        st.just(("fork",)),
    )
    return nthreads, draw(st.lists(event, min_size=20, max_size=100))


def _fields(detector):
    return [dataclasses.astuple(report) for report in detector.reports()]


@given(_streams())
@settings(max_examples=300, deadline=None)
def test_word_cells_match_the_per_byte_reference(stream):
    """Every report field, in order, equals the per-byte reference's, on
    each detector of a stream that forks (load_state) midway; every live
    detector sees every later event, so a fork sharing mutable state with
    its template shows."""
    nthreads, events = stream
    live = [(RaceDetector(nthreads), ReferenceRaceDetector(nthreads))]
    for seq, event in enumerate(events):
        if event[0] == "fork":
            detector, reference = live[-1]
            fork, fork_reference = RaceDetector(nthreads), ReferenceRaceDetector(nthreads)
            fork.load_state(detector)
            fork_reference.load_state(reference)
            live.append((fork, fork_reference))
        elif event[0] == "sync":
            _, thread, kind, obj = event
            for pair in live:
                for d in pair:
                    d.on_sync(thread, SyncOp(kind=kind, obj=obj, ins="s.py:sync:1"))
        else:
            _, thread, rw, addr, size, atomic, ins = event
            access = MemoryAccess(
                seq=seq,
                thread=thread,
                type=AccessType.READ if rw == "R" else AccessType.WRITE,
                addr=addr,
                size=size,
                value=seq,
                ins=f"m.py:f:{ins}",
            )
            for pair in live:
                for d in pair:
                    d.on_access(access, atomic=atomic)
    for detector, reference in live:
        assert _fields(detector) == _fields(reference)
