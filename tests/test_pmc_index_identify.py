"""Tests for the access index and Algorithm 1 (PMC identification),
including their incremental (delta) forms."""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.prog import Program
from repro.machine.accesses import AccessType, project_value
from repro.pmc.identify import PmcSet, identify_delta, identify_pmcs
from repro.pmc.index import MAX_ACCESS_SIZE, AccessIndex, Overlap
from repro.pmc.model import PMC, AccessKey
from repro.profile.profiler import ProfiledAccess, TestProfile

EMPTY = Program(())


def pa(type, addr, size, value, ins, df=False):
    return ProfiledAccess(
        type=AccessType.READ if type == "R" else AccessType.WRITE,
        addr=addr,
        size=size,
        value=value,
        ins=ins,
        df_leader=df,
    )


def profile(test_id, *accesses):
    return TestProfile(test_id=test_id, program=EMPTY, accesses=tuple(accesses), instructions=0)


class TestAccessIndex:
    def test_overlap_found(self):
        index = AccessIndex()
        index.insert(pa("W", 0x100, 8, 1, "w:1"), test_id=0)
        index.insert(pa("R", 0x104, 4, 2, "r:1"), test_id=1)
        overlaps = list(index.read_write_overlaps())
        assert len(overlaps) == 1
        assert (overlaps[0].lo, overlaps[0].hi) == (0x104, 0x108)

    def test_adjacent_ranges_do_not_overlap(self):
        index = AccessIndex()
        index.insert(pa("W", 0x100, 4, 1, "w:1"), test_id=0)
        index.insert(pa("R", 0x104, 4, 2, "r:1"), test_id=1)
        assert list(index.read_write_overlaps()) == []

    def test_read_read_pairs_not_returned(self):
        index = AccessIndex()
        index.insert(pa("R", 0x100, 4, 1, "r:1"), test_id=0)
        index.insert(pa("R", 0x100, 4, 2, "r:2"), test_id=1)
        assert list(index.read_write_overlaps()) == []

    def test_counts(self):
        index = AccessIndex()
        index.insert(pa("W", 0x100, 4, 1, "w:1"), test_id=0)
        index.insert(pa("R", 0x100, 4, 1, "r:1"), test_id=0)
        index.insert(pa("R", 0x200, 4, 1, "r:2"), test_id=0)
        assert index.counts() == (1, 2)

    def test_same_test_can_pair_with_itself(self):
        index = AccessIndex()
        index.insert(pa("W", 0x100, 8, 1, "w:1"), test_id=3)
        index.insert(pa("R", 0x100, 8, 0, "r:1"), test_id=3)
        (overlap,) = index.read_write_overlaps()
        assert overlap.write_test == overlap.read_test == 3


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=96),
            st.integers(min_value=1, max_value=8),
        ),
        max_size=12,
    ),
    reads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=96),
            st.integers(min_value=1, max_value=8),
        ),
        max_size=12,
    ),
)
@settings(max_examples=100, deadline=None)
def test_property_index_matches_naive_quadratic_scan(writes, reads):
    """The ordered nested index finds exactly the naive overlap set."""
    index = AccessIndex()
    waccs, raccs = [], []
    for i, (addr, size) in enumerate(writes):
        access = pa("W", addr, size, i, f"w:{i}")
        index.insert(access, test_id=i)
        waccs.append(access)
    for i, (addr, size) in enumerate(reads):
        access = pa("R", addr, size, i, f"r:{i}")
        index.insert(access, test_id=100 + i)
        raccs.append(access)

    naive = {
        (w.ins, r.ins)
        for w in waccs
        for r in raccs
        if max(w.addr, r.addr) < min(w.end, r.end)
    }
    indexed = {(o.write.ins, o.read.ins) for o in index.read_write_overlaps()}
    assert indexed == naive


class TestAccessIndexIncremental:
    """Inserts interleaved with scans: the delta contract and the
    start-address caches behind ``_sorted_starts``."""

    def test_scan_between_inserts_sees_later_inserts(self):
        index = AccessIndex()
        index.insert(pa("W", 0x100, 8, 1, "w:1"), test_id=0)
        assert list(index.read_write_overlaps()) == []  # caches built here
        index.insert(pa("R", 0x104, 4, 2, "r:1"), test_id=1)
        (overlap,) = index.read_write_overlaps()
        assert (overlap.write.ins, overlap.read.ins) == ("w:1", "r:1")

    def test_delta_scan_yields_only_new_overlaps(self):
        index = AccessIndex()
        index.insert(pa("W", 0x100, 8, 1, "w:1"), test_id=0)
        index.insert(pa("R", 0x100, 8, 2, "r:1"), test_id=1)
        mark = index.mark()
        assert len(list(index.read_write_overlaps_since(mark))) == 0
        # A new read pairs with the old write (pass 1)...
        index.insert(pa("R", 0x104, 4, 3, "r:2"), test_id=2)
        # ...and a new write pairs with old and new reads (pass 2 + pass 1).
        index.insert(pa("W", 0x102, 4, 4, "w:2"), test_id=3)
        delta = {(o.write.ins, o.read.ins) for o in index.read_write_overlaps_since(mark)}
        assert delta == {("w:1", "r:2"), ("w:2", "r:2"), ("w:2", "r:1")}
        # The full scan still sees everything, exactly once.
        full = [(o.write.ins, o.read.ins) for o in index.read_write_overlaps()]
        assert sorted(full) == sorted(delta | {("w:1", "r:1")})

    def test_mark_zero_equals_full_scan_in_order(self):
        index = AccessIndex()
        for i in range(6):
            index.insert(pa("W", 0x100 + 4 * i, 8, i, f"w:{i}"), test_id=i)
            index.insert(pa("R", 0x102 + 4 * i, 8, 100 + i, f"r:{i}"), test_id=10 + i)
        full = [(o.write.ins, o.read.ins) for o in index.read_write_overlaps()]
        since_zero = [
            (o.write.ins, o.read.ins) for o in index.read_write_overlaps_since(0)
        ]
        assert full == since_zero  # same pairs, same iteration order

    def test_interleaved_rounds_partition_the_full_scan(self):
        """Round deltas are disjoint and union to the one-shot scan."""
        accesses = [
            pa("W", 0x100, 8, 1, "w:1"),
            pa("R", 0x104, 4, 2, "r:1"),
            pa("W", 0x106, 2, 3, "w:2"),
            pa("R", 0x100, 8, 4, "r:2"),
            pa("W", 0x0FC, 8, 5, "w:3"),
            pa("R", 0x107, 1, 6, "r:3"),
        ]
        for split in range(len(accesses) + 1):
            index = AccessIndex()
            seen = []
            for chunk in (accesses[:split], accesses[split:]):
                mark = index.mark()
                for i, access in enumerate(chunk):
                    index.insert(access, test_id=i)
                seen.extend(
                    (o.write.ins, o.read.ins)
                    for o in index.read_write_overlaps_since(mark)
                )
            full = [(o.write.ins, o.read.ins) for o in index.read_write_overlaps()]
            assert sorted(seen) == sorted(full)
            assert len(seen) == len(set(seen))  # each overlap exactly once

    def test_counts_stay_correct_across_rounds(self):
        index = AccessIndex()
        index.insert(pa("W", 0x100, 4, 1, "w:1"), test_id=0)
        list(index.read_write_overlaps())
        index.insert(pa("R", 0x100, 4, 2, "r:1"), test_id=1)
        index.insert(pa("R", 0x200, 4, 3, "r:2"), test_id=1)
        assert index.counts() == (1, 2)

    def test_access_at_mark_is_new_in_pass_one(self):
        """An access whose seq is *exactly* the mark counts as new: the
        pass-1 filter is ``read_seq < mark: continue``."""
        index = AccessIndex()
        index.insert(pa("W", 0x100, 8, 1, "w:old"), test_id=0)  # seq 0
        mark = index.mark()  # == 1
        index.insert(pa("R", 0x100, 8, 2, "r:atmark"), test_id=1)  # seq 1 == mark
        delta = [(o.write.ins, o.read.ins) for o in index.read_write_overlaps_since(mark)]
        assert delta == [("w:old", "r:atmark")]

    def test_read_at_mark_excluded_from_pass_two(self):
        """Pass 2 pairs new writes with *old* reads only: a read whose
        seq is exactly the mark was already handled by pass 1
        (``read_seq >= mark`` exclusion), so its pair with the new write
        must appear exactly once."""
        index = AccessIndex()
        index.insert(pa("R", 0x100, 8, 1, "r:old"), test_id=0)  # seq 0
        mark = index.mark()  # == 1
        index.insert(pa("R", 0x100, 8, 2, "r:atmark"), test_id=1)  # seq 1 == mark
        index.insert(pa("W", 0x100, 8, 3, "w:new"), test_id=2)  # seq 2
        delta = [(o.write.ins, o.read.ins) for o in index.read_write_overlaps_since(mark)]
        # Pass 1: the at-mark read x all writes; pass 2: the new write x
        # strictly-old reads.  (w:new, r:atmark) appears exactly once.
        assert sorted(delta) == [("w:new", "r:atmark"), ("w:new", "r:old")]

    def test_write_at_mark_is_new_in_pass_two(self):
        index = AccessIndex()
        index.insert(pa("R", 0x100, 8, 1, "r:old"), test_id=0)  # seq 0
        mark = index.mark()  # == 1
        index.insert(pa("W", 0x100, 8, 2, "w:atmark"), test_id=1)  # seq 1 == mark
        delta = [(o.write.ins, o.read.ins) for o in index.read_write_overlaps_since(mark)]
        assert delta == [("w:atmark", "r:old")]


class TestInsertValidation:
    """Oversized/empty accesses must be rejected, not silently lost.

    The scan's bisect window assumes ``size <= MAX_ACCESS_SIZE``: an
    oversized access used to be indexed but its overlaps never scanned;
    a non-positive size can never satisfy ``lo < hi`` yet still bumped
    ``counts()``."""

    @pytest.mark.parametrize("size", [0, -1, MAX_ACCESS_SIZE + 1, 1000])
    def test_bad_sizes_raise_value_error(self, size):
        index = AccessIndex()
        with pytest.raises(ValueError):
            index.insert(pa("W", 0x100, size, 1, "w:1"), test_id=0)
        with pytest.raises(ValueError):
            index.insert(pa("R", 0x100, size, 1, "r:1"), test_id=0)
        assert index.counts() == (0, 0)
        assert list(index.read_write_overlaps()) == []

    def test_boundary_sizes_accepted(self):
        index = AccessIndex()
        index.insert(pa("W", 0x100, 1, 1, "w:1"), test_id=0)
        index.insert(pa("R", 0x100, MAX_ACCESS_SIZE, 2, "r:1"), test_id=1)
        assert len(list(index.read_write_overlaps())) == 1


class TestMutationDuringScan:
    """Inserting while an overlap scan is live raises instead of
    silently probing the scan's stale start-address snapshot."""

    @staticmethod
    def _index():
        index = AccessIndex()
        index.insert(pa("W", 0x100, 4, 1, "w:1"), test_id=0)
        index.insert(pa("R", 0x100, 4, 2, "r:1"), test_id=1)
        index.insert(pa("R", 0x102, 4, 2, "r:2"), test_id=1)
        return index

    @pytest.mark.parametrize(
        "mutation",
        [
            pa("R", 0x100, 4, 9, "r:new"),  # existing bucket: no dict growth
            pa("W", 0x900, 4, 9, "w:new"),  # new write addr: stale starts
            pa("R", 0x900, 4, 9, "r:new"),  # new read addr
        ],
        ids=["same-bucket", "new-write-start", "new-read-start"],
    )
    def test_insert_mid_scan_raises(self, mutation):
        index = self._index()
        scan = index.read_write_overlaps()
        next(scan)
        index.insert(mutation, test_id=2)
        with pytest.raises(RuntimeError, match="index mutated during overlap scan"):
            list(scan)

    def test_insert_mid_delta_scan_raises(self):
        index = self._index()
        mark = index.mark()
        index.insert(pa("W", 0x102, 4, 5, "w:2"), test_id=2)
        scan = index.read_write_overlaps_since(mark)
        next(scan)  # a pass-2 overlap (new write x old read)
        index.insert(pa("W", 0x104, 4, 6, "w:3"), test_id=3)
        with pytest.raises(RuntimeError, match="index mutated during overlap scan"):
            list(scan)

    @pytest.mark.parametrize("scan", ["read_write_overlaps_since", "overlap_groups_since"])
    @pytest.mark.parametrize("mark_at_start", [True, False], ids=["full", "delta"])
    def test_insert_mid_scan_raises_for_both_generators(self, scan, mark_at_start):
        index = self._index()
        mark = 0 if mark_at_start else index.mark()
        if not mark_at_start:
            index.insert(pa("W", 0x102, 4, 5, "w:2"), test_id=2)
        live = getattr(index, scan)(mark)
        next(live)
        index.insert(pa("R", 0x100, 4, 9, "r:new"), test_id=3)
        with pytest.raises(RuntimeError, match="index mutated during overlap scan"):
            list(live)

    def test_exhausted_scan_then_insert_is_fine(self):
        index = self._index()
        list(index.read_write_overlaps())
        index.insert(pa("W", 0x104, 4, 5, "w:2"), test_id=2)
        assert len(list(index.read_write_overlaps())) > 0


@given(
    accesses=st.lists(
        st.tuples(
            st.booleans(),  # is_write
            st.integers(min_value=0, max_value=64),  # addr
            st.integers(min_value=1, max_value=8),  # size
            st.integers(min_value=0, max_value=3),  # value
        ),
        max_size=16,
    ),
    split=st.integers(min_value=0, max_value=16),
)
@settings(max_examples=100, deadline=None)
def test_property_delta_scans_partition_full_scan(accesses, split):
    """Any two-round split of the inserts yields each overlap exactly
    once across the deltas, and the union equals the full scan."""
    split = min(split, len(accesses))
    built = [
        pa("W" if w else "R", addr, size, value, f"{'w' if w else 'r'}:{i}")
        for i, (w, addr, size, value) in enumerate(accesses)
    ]
    index = AccessIndex()
    delta_pairs = []
    for chunk in (built[:split], built[split:]):
        mark = index.mark()
        for i, access in enumerate(chunk):
            index.insert(access, test_id=i)
        delta_pairs.extend(
            (o.write.ins, o.read.ins) for o in index.read_write_overlaps_since(mark)
        )
    full_pairs = [(o.write.ins, o.read.ins) for o in index.read_write_overlaps()]
    assert sorted(delta_pairs) == sorted(full_pairs)


class TestIdentifyDelta:
    def test_delta_counts_returned(self):
        pmcset = PmcSet()
        index = AccessIndex()
        first = [profile(0, pa("W", 0x100, 8, 0xAA, "w:1"))]
        second = [profile(1, pa("R", 0x100, 8, 0xBB, "r:1"))]
        assert identify_delta(pmcset, index, first) == (0, 0)
        assert identify_delta(pmcset, index, second) == (1, 1)
        assert len(pmcset) == 1
        assert pmcset.total_pairs() == 1

    def test_existing_pmc_gains_pair_not_pmc(self):
        pmcset = PmcSet()
        index = AccessIndex()
        identify_delta(
            pmcset,
            index,
            [
                profile(0, pa("W", 0x100, 8, 1, "w:1")),
                profile(1, pa("R", 0x100, 8, 0, "r:1")),
            ],
        )
        # A later test with the *same* access keys joins the existing PMC.
        new_pmcs, new_pairs = identify_delta(
            pmcset, index, [profile(2, pa("W", 0x100, 8, 1, "w:1"))]
        )
        assert (new_pmcs, new_pairs) == (0, 1)
        (pmc,) = pmcset
        assert set(pmcset.pairs(pmc)) == {(0, 1), (2, 1)}

    def test_dedup_survives_across_deltas(self):
        """A pair classified in round 1 is not re-added when round 2's
        scan happens to cover it again via a new identical access."""
        pmcset = PmcSet()
        index = AccessIndex()
        identify_delta(
            pmcset,
            index,
            [
                profile(0, pa("W", 0x100, 8, 1, "w:1")),
                profile(1, pa("R", 0x100, 8, 0, "r:1")),
            ],
        )
        # The same (writer, reader) tests, same keys, inserted again.
        new_pmcs, new_pairs = identify_delta(
            pmcset,
            index,
            [
                profile(0, pa("W", 0x100, 8, 1, "w:1")),
                profile(1, pa("R", 0x100, 8, 0, "r:1")),
            ],
        )
        assert (new_pmcs, new_pairs) == (0, 0)
        (pmc,) = pmcset
        assert pmcset.pairs(pmc) == [(0, 1)]

    def test_profiles_accumulate(self):
        pmcset = PmcSet()
        index = AccessIndex()
        identify_delta(pmcset, index, [profile(0, pa("W", 0x100, 8, 1, "w:1"))])
        identify_delta(pmcset, index, [profile(1, pa("R", 0x100, 8, 0, "r:1"))])
        assert [p.test_id for p in pmcset.profiles] == [0, 1]
        assert pmcset.profile_by_id(1).test_id == 1

    def test_extend_profiles_extends_built_index_incrementally(self):
        """Once ``_profile_index`` is built, extend_profiles keeps it in
        sync instead of discarding it — no O(corpus) rebuild per round."""
        pmcset = PmcSet()
        index = AccessIndex()
        identify_delta(pmcset, index, [profile(0, pa("W", 0x100, 8, 1, "w:1"))])
        assert pmcset.profile_by_id(0).test_id == 0  # forces index build
        built = pmcset._profile_index
        assert built is not None
        identify_delta(pmcset, index, [profile(1, pa("R", 0x100, 8, 0, "r:1"))])
        assert pmcset._profile_index is built  # same dict, extended in place
        assert pmcset.profile_by_id(1).test_id == 1

    def test_extend_profiles_first_profile_still_wins(self):
        """Duplicate test_ids resolve to the earliest profile, matching
        the full-rebuild path's ``setdefault`` semantics."""
        early = profile(0, pa("W", 0x100, 8, 1, "w:early"))
        late = profile(0, pa("W", 0x100, 8, 2, "w:late"))
        # Index built before the duplicate arrives (incremental path):
        pmcset = PmcSet()
        pmcset.extend_profiles([early])
        assert pmcset.profile_by_id(0) is early
        pmcset.extend_profiles([late])
        assert pmcset.profile_by_id(0) is early
        # Index built after (rebuild path) must agree:
        rebuilt = PmcSet()
        rebuilt.extend_profiles([early])
        rebuilt.extend_profiles([late])
        assert rebuilt.profile_by_id(0) is early

    def test_extend_profiles_accepts_tuple_seeded_set(self):
        seeded = PmcSet(profiles=(profile(0, pa("W", 0x100, 8, 1, "w:1")),))
        seeded.extend_profiles([profile(1, pa("R", 0x100, 8, 0, "r:1"))])
        assert [p.test_id for p in seeded.profiles] == [0, 1]


def _access_strategy():
    return st.tuples(
        st.booleans(),  # is_write
        st.integers(min_value=0, max_value=48),  # addr
        st.integers(min_value=1, max_value=8),  # size
        st.integers(min_value=0, max_value=2),  # value (small: collisions)
        st.integers(min_value=0, max_value=3),  # ins tag (collisions)
    )


@given(
    tests=st.lists(st.lists(_access_strategy(), max_size=6), max_size=8),
    cuts=st.lists(st.integers(min_value=0, max_value=8), max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_property_identify_delta_over_any_split_equals_one_shot(tests, cuts):
    """identify_delta over *any* split of the profiles — including empty
    chunks — matches identify_pmcs: same PMCs, same pair sets, same
    overlaps_scanned."""
    profiles = []
    for tid, accesses in enumerate(tests):
        built = tuple(
            pa(
                "W" if w else "R",
                addr,
                size,
                value,
                f"{'w' if w else 'r'}:{tag}",
            )
            for (w, addr, size, value, tag) in accesses
        )
        profiles.append(profile(tid, *built))

    one_shot = identify_pmcs(profiles)

    bounds = sorted(min(c, len(profiles)) for c in cuts)
    chunks = []
    prev = 0
    for bound in bounds + [len(profiles)]:
        chunks.append(profiles[prev:bound])
        prev = bound

    incremental = PmcSet()
    index = AccessIndex()
    total_new_pmcs = 0
    total_new_pairs = 0
    for chunk in chunks:
        new_pmcs, new_pairs = identify_delta(incremental, index, chunk)
        total_new_pmcs += new_pmcs
        total_new_pairs += new_pairs

    assert set(incremental.pmcs) == set(one_shot.pmcs)
    for pmc in one_shot:
        assert set(incremental.pairs(pmc)) == set(one_shot.pairs(pmc))
    assert incremental.overlaps_scanned == one_shot.overlaps_scanned
    assert incremental.total_pairs() == one_shot.total_pairs() == total_new_pairs
    assert len(incremental) == len(one_shot) == total_new_pmcs
    assert [p.test_id for p in incremental.profiles] == [
        p.test_id for p in one_shot.profiles
    ]


class NaiveOrderedIndex:
    """The per-overlap scan order, written out naively.

    Reads in first-insertion order of their start address, each start's
    records in nested first-occurrence order ((size, ins), then value,
    then insertion), each against every write start in ascending order;
    then, for a delta, new writes against old reads the same way.
    Quadratic, and independent of AccessIndex's buckets, bisect window
    and spill tier."""

    def __init__(self):
        self.records = []

    def mark(self):
        return len(self.records)

    def insert_profile(self, prof):
        for access in prof.accesses:
            self.records.append((access, prof.test_id, len(self.records)))

    def _by_start(self, is_write):
        by_start = {}
        for record in self.records:
            if record[0].is_write == is_write:
                by_start.setdefault(record[0].addr, []).append(record)
        return {start: self._nested(records) for start, records in by_start.items()}

    @staticmethod
    def _nested(records):
        slots = {}
        for record in records:
            access = record[0]
            slot = slots.setdefault((access.size, access.ins), {})
            slot.setdefault(access.value, []).append(record)
        return [r for by_value in slots.values() for rs in by_value.values() for r in rs]

    def read_write_overlaps_since(self, mark):
        reads, writes = self._by_start(False), self._by_start(True)
        passes = [(reads, writes, False)] + ([(writes, reads, True)] if mark > 0 else [])
        for new_side, other_side, new_writes in passes:
            for records in new_side.values():
                for new in (r for r in records if r[2] >= mark):
                    for start in sorted(other_side):
                        for other in other_side[start]:
                            if new_writes and other[2] >= mark:
                                continue  # paired in the first pass
                            write, read = (new, other) if new_writes else (other, new)
                            lo = max(write[0].addr, read[0].addr)
                            hi = min(write[0].end, read[0].end)
                            if lo < hi:
                                yield Overlap(write[0], write[1], read[0], read[1], lo, hi)


def reference_identify_delta(pmcset, index, new_profiles):
    """The per-overlap classification loop: one projection, one PMC and
    one dedup lookup per overlap.  The exact-order reference for
    identify_delta, which classifies once per key group."""
    mark = index.mark()
    for prof in new_profiles:
        index.insert_profile(prof)
    new_pmcs = new_pairs = 0
    for overlap in index.read_write_overlaps_since(mark):
        pmcset.overlaps_scanned += 1
        read, write = overlap.read, overlap.write
        lo, hi = overlap.lo, overlap.hi
        if project_value(read.addr, read.size, read.value, lo, hi) == project_value(
            write.addr, write.size, write.value, lo, hi
        ):
            continue
        pmc = PMC(write=AccessKey.of(write), read=AccessKey.of(read), df_leader=read.df_leader)
        pair = (overlap.write_test, overlap.read_test)
        holders = pmcset._seen_pairs.setdefault(pmc, set())
        if pair not in holders:
            holders.add(pair)
            if pmc in pmcset.pmcs:
                pmcset.pmcs[pmc].append(pair)
            else:
                pmcset.pmcs[pmc] = [pair]
                new_pmcs += 1
            new_pairs += 1
    pmcset.extend_profiles(new_profiles)
    return new_pmcs, new_pairs


def _keyed_access_strategy():
    """Few addresses, instructions and values, so value groups hold many
    tests; reads carry a random df_leader, so one read value group can
    mix both annotations."""
    return st.tuples(
        st.booleans(),  # is_write
        st.integers(min_value=0, max_value=24),  # addr
        st.sampled_from([1, 2, 4, 8]),  # size
        st.integers(min_value=0, max_value=1),  # value
        st.integers(min_value=0, max_value=1),  # ins tag
        st.booleans(),  # df_leader (reads only)
    )


@pytest.mark.parametrize("hot_capacity", [None, 3], ids=["in-memory", "spilled"])
@given(
    tests=st.lists(st.lists(_keyed_access_strategy(), max_size=6), max_size=10),
    cuts=st.lists(st.integers(min_value=0, max_value=10), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_property_grouped_identify_matches_per_overlap_reference(hot_capacity, tests, cuts):
    """Over any split into deltas, the grouped identify_delta builds the
    PmcSet of the per-overlap reference exactly: the same PMC insertion
    order, the same pair-list order per PMC, the same overlaps_scanned
    and the same (new_pmcs, new_pairs) per delta, whether the index is
    in memory or spilled with a hot tier of a few records.  Each delta's
    flattened scan also yields the naive per-overlap order."""
    profiles = [
        profile(
            tid,
            *(
                pa(
                    "W" if w else "R",
                    addr,
                    size,
                    value,
                    f"{'w' if w else 'r'}:{tag}",
                    df=df and not w,
                )
                for (w, addr, size, value, tag, df) in accesses
            ),
        )
        for tid, accesses in enumerate(tests)
    ]
    bounds = sorted(min(c, len(profiles)) for c in cuts) + [len(profiles)]
    chunks = [profiles[lo:hi] for lo, hi in zip([0] + bounds, bounds)]

    expected, naive = PmcSet(), NaiveOrderedIndex()
    grouped = PmcSet()
    with tempfile.TemporaryDirectory() as spill:
        index = (
            AccessIndex()
            if hot_capacity is None
            else AccessIndex(spill_dir=spill, hot_capacity=hot_capacity)
        )
        for chunk in chunks:
            mark = index.mark()
            want = reference_identify_delta(expected, naive, chunk)
            assert identify_delta(grouped, index, chunk) == want
            index.flush()  # as the pipeline does after each delta
            assert list(index.read_write_overlaps_since(mark)) == list(
                naive.read_write_overlaps_since(mark)
            )
        if index.store is not None:
            index.store.close()
    assert list(grouped.pmcs.items()) == list(expected.pmcs.items())
    assert grouped.overlaps_scanned == expected.overlaps_scanned


def test_read_value_group_mixing_df_leader_splits_the_pmc():
    """A new write meeting an old read value group whose holders differ
    only in df_leader: each holder's pair goes to its own PMC, in holder
    order, exactly as the per-overlap loop classifies them."""
    reads = [
        profile(0, pa("R", 0x100, 8, 0, "r:1", df=False)),
        profile(1, pa("R", 0x100, 8, 0, "r:1", df=True)),
        profile(2, pa("R", 0x100, 8, 0, "r:1", df=False)),
    ]
    write = [profile(3, pa("W", 0x100, 8, 1, "w:1"))]
    grouped, index = PmcSet(), AccessIndex()
    identify_delta(grouped, index, reads)
    assert identify_delta(grouped, index, write) == (2, 3)
    expected, naive = PmcSet(), NaiveOrderedIndex()
    reference_identify_delta(expected, naive, reads)
    reference_identify_delta(expected, naive, write)
    assert list(grouped.pmcs.items()) == list(expected.pmcs.items())
    assert [(pmc.df_leader, pairs) for pmc, pairs in grouped.pmcs.items()] == [
        (False, [(3, 0), (3, 2)]),
        (True, [(3, 1)]),
    ]


def test_pmc_missing_from_dedup_sets_is_appended_not_replaced():
    """A PmcSet whose ``pmcs`` holds a PMC its dedup sets lack (built by
    hand, not by identify) keeps that PMC's pairs and appends to them."""
    pmc = PMC(write=AccessKey(0x100, 8, "w:1", 1), read=AccessKey(0x100, 8, "r:1", 0))
    pmcset = PmcSet(pmcs={pmc: [(7, 8)]})
    index = AccessIndex()
    identify_delta(
        pmcset,
        index,
        [profile(0, pa("W", 0x100, 8, 1, "w:1")), profile(1, pa("R", 0x100, 8, 0, "r:1"))],
    )
    assert pmcset.pmcs == {pmc: [(7, 8), (0, 1)]}


class TestOverlapGroups:
    def test_groups_flatten_to_the_overlap_scan(self):
        index = AccessIndex()
        for tid in range(3):
            index.insert(pa("W", 0x100, 8, 1, "w:1"), test_id=tid)
        index.insert(pa("W", 0x104, 4, 2, "w:2"), test_id=3)
        index.insert(pa("R", 0x102, 4, 0, "r:1"), test_id=4)
        index.insert(pa("R", 0x102, 4, 0, "r:1", df=True), test_id=5)
        groups = list(index.overlap_groups_since(0))
        flat = [
            (w, wt, r, rt, lo, hi)
            for writes, reads, lo, hi in groups
            for w, wt, _ in writes
            for r, rt, _ in reads
        ]
        assert flat == [
            (o.write, o.write_test, o.read, o.read_test, o.lo, o.hi)
            for o in index.read_write_overlaps()
        ]
        # One group per (new read, write value group): the three
        # identical w:1 holders fold into one.
        assert [(len(writes), len(reads)) for writes, reads, _, _ in groups] == [
            (3, 1),
            (1, 1),
            (3, 1),
            (1, 1),
        ]

    def test_pass_two_groups_hold_old_reads_only(self):
        index = AccessIndex()
        index.insert(pa("R", 0x100, 8, 0, "r:1"), test_id=0)
        mark = index.mark()
        index.insert(pa("R", 0x100, 8, 0, "r:1"), test_id=1)  # same group, new
        index.insert(pa("W", 0x100, 8, 1, "w:1"), test_id=2)
        groups = [
            ([wt for _, wt, _ in writes], [rt for _, rt, _ in reads], lo, hi)
            for writes, reads, lo, hi in index.overlap_groups_since(mark)
        ]
        # Pass 1: the new read against the write; pass 2: the new write
        # against the old read only.
        assert groups == [([2], [1], 0x100, 0x108), ([2], [0], 0x100, 0x108)]


class TestIdentifyPmcs:
    def test_differing_values_make_a_pmc(self):
        profiles = [
            profile(0, pa("W", 0x100, 8, 0xAA, "w:1")),
            profile(1, pa("R", 0x100, 8, 0xBB, "r:1")),
        ]
        pmcset = identify_pmcs(profiles)
        assert len(pmcset) == 1
        (pmc,) = pmcset
        assert pmcset.pairs(pmc) == [(0, 1)]

    def test_equal_values_are_not_a_pmc(self):
        """Algorithm 1 line 11: same projected value -> no communication."""
        profiles = [
            profile(0, pa("W", 0x100, 8, 0xAA, "w:1")),
            profile(1, pa("R", 0x100, 8, 0xAA, "r:1")),
        ]
        assert len(identify_pmcs(profiles)) == 0

    def test_projection_on_partial_overlap(self):
        """Values equal on the overlapping window -> no PMC, even though
        the full access values differ."""
        profiles = [
            # write bytes 0x100..0x108 with low word 0x55 at offset 4..
            profile(0, pa("W", 0x100, 8, 0x55_00000000, "w:1")),
            # read bytes 0x104..0x108: sees 0x55 as well
            profile(1, pa("R", 0x104, 4, 0x55, "r:1")),
        ]
        assert len(identify_pmcs(profiles)) == 0

    def test_projection_detects_window_difference(self):
        profiles = [
            profile(0, pa("W", 0x100, 8, 0x99_00000000, "w:1")),
            profile(1, pa("R", 0x104, 4, 0x55, "r:1")),
        ]
        pmcset = identify_pmcs(profiles)
        assert len(pmcset) == 1

    def test_multiple_pairs_map_to_one_pmc(self):
        """Identical access keys from different tests share the PMC entry."""
        profiles = [
            profile(0, pa("W", 0x100, 8, 1, "w:1")),
            profile(1, pa("W", 0x100, 8, 1, "w:1")),
            profile(2, pa("R", 0x100, 8, 0, "r:1")),
        ]
        pmcset = identify_pmcs(profiles)
        assert len(pmcset) == 1
        (pmc,) = pmcset
        assert set(pmcset.pairs(pmc)) == {(0, 2), (1, 2)}

    def test_df_leader_carried_onto_pmc(self):
        profiles = [
            profile(0, pa("W", 0x100, 8, 1, "w:1")),
            profile(1, pa("R", 0x100, 8, 0, "r:1", df=True)),
        ]
        (pmc,) = identify_pmcs(profiles)
        assert pmc.df_leader

    def test_writes_do_not_pair_with_writes(self):
        profiles = [
            profile(0, pa("W", 0x100, 8, 1, "w:1")),
            profile(1, pa("W", 0x100, 8, 2, "w:2")),
        ]
        assert len(identify_pmcs(profiles)) == 0

    def test_pair_order_is_writer_then_reader(self):
        profiles = [
            profile(5, pa("R", 0x100, 8, 0, "r:1")),
            profile(9, pa("W", 0x100, 8, 1, "w:1")),
        ]
        (pmc,) = identify_pmcs(profiles)
        assert identify_pmcs(profiles).pairs(pmc) == [(9, 5)]


class TestPmcModel:
    def test_overlap_window(self):
        pmc = PMC(
            write=AccessKey(0x100, 8, "w:1", 1),
            read=AccessKey(0x104, 8, "r:1", 2),
        )
        assert pmc.overlap == (0x104, 0x108)

    def test_unaligned_flag(self):
        aligned = PMC(write=AccessKey(0x100, 8, "w", 1), read=AccessKey(0x100, 8, "r", 2))
        unaligned = PMC(write=AccessKey(0x100, 8, "w", 1), read=AccessKey(0x104, 4, "r", 2))
        assert not aligned.unaligned
        assert unaligned.unaligned

    def test_pmcs_are_hashable_and_comparable(self):
        a = PMC(write=AccessKey(0x100, 8, "w", 1), read=AccessKey(0x100, 8, "r", 2))
        b = PMC(write=AccessKey(0x100, 8, "w", 1), read=AccessKey(0x100, 8, "r", 2))
        assert a == b
        assert len({a, b}) == 1
