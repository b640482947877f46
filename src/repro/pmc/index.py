"""The ordered nested access index of Algorithm 1 (the ``A`` structure).

As in section 4.2.1: the outer index orders accesses by range start
address; for one start address, a nested index orders them by range
length and instruction address, then groups equal values.  A probe
only visits the bounded start-address window that can still overlap
it, so there is no quadratic scan over all access pairs.

The scan is *grouped* and *incremental*: every insert is stamped with a
monotone sequence number, and ``overlap_groups_since(mark)`` yields the
overlaps involving at least one access inserted at or after ``mark``
(``mark()`` snapshots the current position) as key groups — one new
access against one value group of the other side, every holder of one
(range, instruction, value) key — so Stage 2 classifies a key once, not
once per holder.  ``read_write_overlaps_since`` and
``read_write_overlaps()`` flatten the groups into one :class:`Overlap`
per pair, in the per-overlap order.  The union of the per-round delta
scans equals the full scan, because each overlapping (read, write) pair
is yielded exactly once — in the round where its *later* access
arrived (§4.3, §6: a continuous campaign re-classifies only the delta).

The index is also *tiered* (DESIGN.md §2.14): constructed with a
``store=`` (or ``spill_dir=``) it writes every insert through to an
:class:`~repro.pmc.store.AccessStore`, and with ``hot_capacity=`` it
evicts least-recently-touched buckets from RAM once the hot tier
exceeds that many records.  Evicted buckets leave their key in the
outer dict (a sentinel preserves outer iteration order — the property
the golden-equivalence tests pin) and stay cold: an insert into one
appends to the store only, and a probe of one reconstructs it by
replaying the store's records in seq order, which reproduces the exact
nested first-occurrence iteration order of the in-memory bucket.  A
spilled scan therefore yields groups and overlaps in the bit-identical
order of an unspilled one.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.profile.profiler import ProfiledAccess

# The largest access the kernel context can emit (one word-sized chunk).
MAX_ACCESS_SIZE = 8

#: Reconstructed cold buckets kept in RAM between probes.
DEFAULT_COLD_CACHE = 64

#: Outer-dict slot of a bucket whose records live only in the store.
#: A sentinel (not deletion) so the dict keeps the bucket's position in
#: insertion order — outer scan order must survive eviction.
_COLD = object()

_MUTATED = "index mutated during overlap scan"


@dataclass(frozen=True, slots=True)
class Overlap:
    """One read/write pair with intersecting memory ranges."""

    write: ProfiledAccess
    write_test: int
    read: ProfiledAccess
    read_test: int
    lo: int
    hi: int


#: One record of a bucket value group: (access, test_id, insertion seq).
Holder = Tuple[ProfiledAccess, int, int]
#: ``(writes, reads, lo, hi)``; see :meth:`AccessIndex.overlap_groups_since`.
OverlapGroup = Tuple[Sequence[Holder], Sequence[Holder], int, int]


class _Bucket:
    """All accesses of one kind sharing a start address.

    Nested ordering: by range length, then instruction address; each
    (length, ins) slot keeps the distinct values seen and the tests that
    produced them, each stamped with its insertion sequence number.
    """

    __slots__ = ("entries", "nrecords")

    def __init__(self):
        # (size, ins) -> {value -> [(access, test_id, seq), ...]}
        self.entries: Dict[Tuple[int, str], Dict[int, List[Holder]]] = {}
        self.nrecords = 0

    def insert(self, access: ProfiledAccess, test_id: int, seq: int) -> None:
        # .get instead of setdefault: setdefault allocates a fresh
        # default dict/list on every call, hit or miss; this path runs
        # once per profiled access of every test.
        entries = self.entries
        key = (access.size, access.ins)
        slot = entries.get(key)
        if slot is None:
            slot = entries[key] = {}
        holders = slot.get(access.value)
        if holders is None:
            slot[access.value] = [(access, test_id, seq)]
        else:
            holders.append((access, test_id, seq))
        self.nrecords += 1

    def iter_entries(self) -> Iterator[Holder]:
        for by_value in self.entries.values():
            for holders in by_value.values():
                yield from holders


class AccessIndex:
    """Ordered nested index over profiled accesses of one kind per side.

    With no arguments the index is fully in-memory, exactly as before.
    ``store=`` (an :class:`~repro.pmc.store.AccessStore`) or
    ``spill_dir=`` (a directory; a store is opened there) turns on
    write-through spilling, and ``hot_capacity=`` bounds the number of
    records the hot tier may hold before least-recently-touched buckets
    are evicted to their segments.
    """

    def __init__(
        self,
        store=None,
        spill_dir: Optional[str] = None,
        hot_capacity: Optional[int] = None,
        cold_cache_size: int = DEFAULT_COLD_CACHE,
    ):
        if store is None and spill_dir is not None:
            from repro.pmc.store import AccessStore

            store = AccessStore.open(spill_dir)
        if hot_capacity is not None and store is None:
            raise ValueError("hot_capacity requires a store (or spill_dir)")
        self.store = store
        self.hot_capacity = hot_capacity
        self._writes: Dict[int, object] = {}
        self._reads: Dict[int, object] = {}
        # is_write -> sorted start addresses, the scan's bisect lists.
        self._starts: Dict[bool, List[int]] = {True: [], False: []}
        # Monotone insertion stamp: the delta scan's notion of "new".
        self._seq = 0
        # Bumped on every insert; a running overlap scan that observes a
        # bump raises instead of silently using stale start lists.
        self._generation = 0
        # Running totals, maintained on insert so counts() is O(1)
        # instead of a full re-iteration of every bucket.
        self._nwrites = 0
        self._nreads = 0
        # Spill bookkeeping (all empty/unused in pure-memory mode):
        # hot-tier LRU of (is_write, addr) -> _Bucket, total hot records,
        # per-(side, addr) max seq zone map so delta scans can skip cold
        # buckets with no new records without loading them, and a small
        # cache of reconstructed cold buckets.
        self._hot_lru: "OrderedDict[Tuple[bool, int], _Bucket]" = OrderedDict()
        self._hot_records = 0
        self._write_maxseq: Dict[int, int] = {}
        self._read_maxseq: Dict[int, int] = {}
        self._cold_cache: "OrderedDict[Tuple[bool, int], _Bucket]" = OrderedDict()
        self._cold_cache_size = max(1, cold_cache_size)

    # -- construction -------------------------------------------------------

    def insert(self, access: ProfiledAccess, test_id: int) -> None:
        """Index one profiled access of one test.

        Raises ``ValueError`` for sizes outside ``1..MAX_ACCESS_SIZE``:
        the overlap scan's bisect window assumes no access is wider than
        :data:`MAX_ACCESS_SIZE`, so an oversized access would be indexed
        but its overlaps silently never scanned, and a zero/negative
        size can never overlap anything yet would still bump counts().
        """
        if not 0 < access.size <= MAX_ACCESS_SIZE:
            raise ValueError(
                f"access size {access.size} at {access.addr:#x} is outside "
                f"1..{MAX_ACCESS_SIZE}; the overlap scan window cannot see it"
            )
        self._generation += 1
        is_write = access.is_write
        if is_write:
            side = self._writes
            self._nwrites += 1
        else:
            side = self._reads
            self._nreads += 1
        seq = self._seq
        self._seq = seq + 1
        bucket = side.get(access.addr)
        cold = bucket is _COLD
        if bucket is None:
            bucket = side[access.addr] = _Bucket()
            if self.store is not None:
                self._hot_lru[(is_write, access.addr)] = bucket
        elif cold:
            # A cold bucket stays cold: the store and the zone map take
            # the record, and so does a cold-cache copy, which must stay
            # complete.  The next scan that needs the bucket loads it.
            bucket = self._cold_cache.get((is_write, access.addr))
        if bucket is not None:
            bucket.insert(access, test_id, seq)
        if self.store is not None:
            self.store.append(access, test_id, seq)
            if is_write:
                self._write_maxseq[access.addr] = seq
            else:
                self._read_maxseq[access.addr] = seq
            if not cold:
                self._hot_records += 1
                self._hot_lru.move_to_end((is_write, access.addr))
                if self.hot_capacity is not None and self._hot_records > self.hot_capacity:
                    self._evict()

    def insert_profile(self, profile) -> None:
        """Index every access of a test profile."""
        for access in profile.accesses:
            self.insert(access, profile.test_id)

    def mark(self) -> int:
        """Watermark for :meth:`read_write_overlaps_since`.

        Snapshot before inserting a round's new profiles; accesses
        inserted afterwards count as "new" relative to the mark.
        """
        return self._seq

    # -- the spill tier -----------------------------------------------------

    def _evict(self) -> None:
        """Drop least-recently-touched hot buckets down to capacity.

        Write-through makes eviction free: every record of the bucket is
        already owned by the store (durable segment or pending buffer),
        so the hot copy is simply dropped and its outer-dict slot turns
        into the cold sentinel.  At least one bucket — the one just
        inserted into — always stays hot.
        """
        stats = self.store.stats
        while self._hot_records > self.hot_capacity and len(self._hot_lru) > 1:
            (is_write, addr), bucket = self._hot_lru.popitem(last=False)
            side = self._writes if is_write else self._reads
            side[addr] = _COLD
            self._hot_records -= bucket.nrecords
            stats["evictions"] += 1

    def _build_bucket(self, is_write: bool, addr: int) -> _Bucket:
        """Reconstruct one bucket from the store.

        Records come back in seq (= original insertion) order, so
        replaying them through ``_Bucket.insert`` reproduces the exact
        nested first-occurrence iteration order the in-memory bucket
        had — the property that keeps spilled scans bit-identical.

        Records at or past the index's own insertion stamp are *future*
        records: a resumed campaign replays its insert stream against a
        store whose durable extent already covers later rounds, and a
        bucket probed mid-replay must contain exactly what the index has
        re-inserted so far, not what the killed run eventually spilled.
        """
        self.store.stats["rebuilds"] += 1
        bucket = _Bucket()
        seq_limit = self._seq
        for access, test_id, seq in self.store.load_bucket(is_write, addr):
            if seq >= seq_limit:
                break  # seq-ordered: everything after is future too
            bucket.insert(access, test_id, seq)
        return bucket

    def _cold_bucket(self, is_write: bool, addr: int) -> _Bucket:
        """A probe of an evicted bucket: cold-cache hit or store load."""
        key = (is_write, addr)
        cache = self._cold_cache
        bucket = cache.get(key)
        if bucket is not None:
            cache.move_to_end(key)
            return bucket
        bucket = self._build_bucket(is_write, addr)
        cache[key] = bucket
        while len(cache) > self._cold_cache_size:
            cache.popitem(last=False)
        return bucket

    def flush(self) -> None:
        """Flush write-through buffers to the store (no-op in memory mode)."""
        if self.store is not None:
            self.store.flush()

    def checkpoint(self) -> str:
        """Make the spilled state durable; returns the manifest digest.

        Returns ``""`` in pure-memory mode so round records stay
        byte-identical to pre-spill journals.
        """
        if self.store is None:
            return ""
        return self.store.checkpoint(self._seq)

    # -- the overlap scan ------------------------------------------------------

    def read_write_overlaps(self) -> Iterator[Overlap]:
        """Yield every read/write pair whose ranges intersect.

        For each read at [a, a+s), candidate writes start in
        (a - MAX_ACCESS_SIZE, a + s): a bounded window found by bisection
        over the ordered write start addresses.
        """
        return self.read_write_overlaps_since(0)

    def read_write_overlaps_since(self, mark: int) -> Iterator[Overlap]:
        """Yield every overlap involving at least one access with
        insertion stamp ``>= mark``, one :class:`Overlap` per pair.

        The flattening of :meth:`overlap_groups_since`, in its order.
        """
        gen = self._generation
        for writes, reads, lo, hi in self.overlap_groups_since(mark):
            for write, write_test, _ in writes:
                for read, read_test, _ in reads:
                    yield Overlap(write, write_test, read, read_test, lo, hi)
                    # Resumes only here: catch a consumer's insert at once.
                    if self._generation != gen:
                        raise RuntimeError(_MUTATED)

    def overlap_groups_since(self, mark: int) -> Iterator[OverlapGroup]:
        """The delta overlaps as key groups ``(writes, reads, lo, hi)``.

        One side is a new access, as the 1-tuple of its ``(access,
        test_id, seq)`` holder; the other is one value group of a bucket
        (``(size, ins) -> value``): holders sharing one (range,
        instruction, value) key and so one ``[lo, hi)`` window.  The
        group's overlaps are the product ``writes x reads``.

        Pass one pairs new reads with *all* writes, pass two new writes
        with *old* reads only (pass one had the new ones), so each pair
        appears once; ``mark == 0`` is the full scan and skips pass two.
        Loops nest new holder, window bucket, slot, value group: the
        per-overlap scan minus its holder loop, so flattening the groups
        gives the per-overlap order.  An ``insert`` while the scan is
        live (its bisect start lists would go stale) raises
        ``RuntimeError``, like dict iteration.
        """
        gen = self._generation
        spilled = self.store is not None
        stats = self.store.stats if spilled else None
        passes = [(False, self._reads, self._writes, self._read_maxseq)]
        if mark > 0:
            passes.append((True, self._writes, self._reads, self._write_maxseq))
        for new_writes, new_side, others, maxseq in passes:
            starts = self._sorted_starts(not new_writes)
            for new_start, bucket in new_side.items():
                if bucket is _COLD:
                    if maxseq.get(new_start, -1) < mark:
                        continue  # zone map: no new records spilled here
                    stats["cold_probes"] += 1
                    bucket = self._cold_bucket(new_writes, new_start)
                for holder in bucket.iter_entries():
                    if holder[2] < mark:
                        continue
                    access = holder[0]
                    new = (holder,)
                    first = bisect.bisect_left(starts, access.addr - MAX_ACCESS_SIZE + 1)
                    last = bisect.bisect_left(starts, access.end)
                    for start in starts[first:last]:
                        other = others[start]
                        if spilled:
                            if other is _COLD:
                                stats["cold_probes"] += 1
                                other = self._cold_bucket(not new_writes, start)
                            else:
                                stats["hot_hits"] += 1
                        for (size, _ins), by_value in other.entries.items():
                            lo = max(access.addr, start)
                            hi = min(access.end, start + size)
                            if lo >= hi:
                                continue
                            for holders in by_value.values():
                                if not new_writes:
                                    yield holders, new, lo, hi
                                else:
                                    if holders[-1][2] >= mark:
                                        # Seq-ordered: the new reads are a
                                        # suffix, paired by the first pass.
                                        holders = [h for h in holders if h[2] < mark]
                                        if not holders:
                                            continue
                                    yield new, holders, lo, hi
                                if self._generation != gen:
                                    raise RuntimeError(_MUTATED)

    # -- stats -------------------------------------------------------------------

    def counts(self) -> Tuple[int, int]:
        """(number of indexed writes, number of indexed reads) — O(1)."""
        return self._nwrites, self._nreads

    def tier_counts(self) -> Tuple[int, int]:
        """(hot-tier records, spill-eligible records) — O(1).

        In pure-memory mode everything is "hot": returns
        ``(total, total)``.
        """
        total = self._nwrites + self._nreads
        if self.store is None:
            return total, total
        return self._hot_records, total

    def _sorted_starts(self, is_write: bool) -> List[int]:
        """One side's start addresses, sorted again only when it gained
        one: keys are never removed (eviction leaves a sentinel), so an
        unchanged length means an unchanged key set."""
        side = self._writes if is_write else self._reads
        starts = self._starts[is_write]
        if len(starts) != len(side):
            starts = self._starts[is_write] = sorted(side)
        return starts
