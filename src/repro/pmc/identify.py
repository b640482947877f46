"""PMC identification — Algorithm 1 of the paper.

Index every profiled shared access of every sequential test, scan the
read/write overlaps, project both values onto the overlap window, and
classify pairs with differing projected values as PMCs.  Each PMC maps
to the (writer test, reader test) pairs that exhibit it — the raw
material for concurrent test generation.

The scan hands out key groups
(:meth:`~repro.pmc.index.AccessIndex.overlap_groups_since`): one new
access against every holder of one access key on the other side.  A
PMC is a (write key, read key) pair, so projection, comparison and the
PMC are computed once per group and only the test pairs per holder.

Identification is *incremental*: :func:`identify_delta` folds a batch
of newly profiled tests into an existing :class:`PmcSet` by scanning
only the overlaps that involve at least one new access.  The batch
:func:`identify_pmcs` is the degenerate one-round case — an empty index
plus one delta — so the two paths cannot drift; a property test pins
that any split of the profiles into deltas yields the same PmcSet as
the one-shot identification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.machine.accesses import project_value
from repro.obs import NULL_OBSERVER
from repro.pmc.index import AccessIndex
from repro.pmc.model import PMC, AccessKey
from repro.profile.profiler import TestProfile


@dataclass
class PmcSet:
    """The identified PMCs and the tests exhibiting each (the ``C`` map)."""

    pmcs: Dict[PMC, List[Tuple[int, int]]] = field(default_factory=dict)
    overlaps_scanned: int = 0
    profiles: Sequence[TestProfile] = ()
    # Lazily built test_id -> profile index: profile_by_id is called per
    # exemplar in the composition/inspection paths, and a linear scan
    # over all profiles there is quadratic in corpus size.
    _profile_index: Optional[Dict[int, TestProfile]] = field(
        default=None, repr=False, compare=False
    )
    # Per-PMC pair dedup sets, mirroring ``pmcs``.  Kept on the set (not
    # local to one identify call) so delta rounds keep deduplicating
    # against everything classified before.
    _seen_pairs: Dict[PMC, Set[Tuple[int, int]]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.pmcs)

    def __iter__(self):
        return iter(self.pmcs)

    def pairs(self, pmc: PMC) -> List[Tuple[int, int]]:
        """(writer test id, reader test id) pairs exhibiting ``pmc``."""
        return self.pmcs[pmc]

    def all_pmcs(self) -> List[PMC]:
        return list(self.pmcs)

    def total_pairs(self) -> int:
        """Total (writer, reader) pairs across all PMCs."""
        return sum(len(pairs) for pairs in self.pmcs.values())

    def profile_by_id(self, test_id: int) -> TestProfile:
        index = self._profile_index
        if index is None:
            index = {}
            for profile in self.profiles:
                # First profile wins, like the linear scan it replaces.
                index.setdefault(profile.test_id, profile)
            self._profile_index = index
        try:
            return index[test_id]
        except KeyError:
            raise KeyError(test_id) from None

    def extend_profiles(self, new_profiles: Sequence[TestProfile]) -> None:
        """Append a round's profiles in amortised O(len(new_profiles)).

        The old per-round ``profiles = tuple(profiles) + tuple(new)``
        re-copied the whole corpus every round — O(corpus²) across a
        campaign — and discarded ``_profile_index``, re-paying an
        O(corpus) rebuild on the next ``profile_by_id``.  Instead the
        profiles live in an internal list that is extended in place, and
        an already-built index is extended incrementally (first profile
        still wins, as in the full rebuild).
        """
        if not isinstance(self.profiles, list):
            self.profiles = list(self.profiles)
        self.profiles.extend(new_profiles)
        index = self._profile_index
        if index is not None:
            for profile in new_profiles:
                index.setdefault(profile.test_id, profile)


def identify_pmcs(profiles: Sequence[TestProfile], obs=NULL_OBSERVER) -> PmcSet:
    """Algorithm 1: index all tests, scan overlaps, classify PMCs."""
    result = PmcSet()
    identify_delta(result, AccessIndex(), profiles, obs=obs)
    return result


def identify_delta(
    pmcset: PmcSet,
    index: AccessIndex,
    new_profiles: Sequence[TestProfile],
    obs=NULL_OBSERVER,
) -> Tuple[int, int]:
    """Fold newly profiled tests into ``pmcset``, scanning only the delta.

    Inserts ``new_profiles`` into ``index``, classifies every overlap
    involving at least one new access, and extends ``pmcset`` in place
    (new PMCs appended, new pairs appended to existing PMCs, dedup
    preserved across calls).  Returns ``(new_pmcs, new_pairs)`` — the
    counts this delta contributed.

    The union over any sequence of deltas equals the one-shot
    :func:`identify_pmcs` over the concatenated profiles: each
    overlapping (read, write) pair is scanned exactly once, in the delta
    where its later access arrived.  Pairs are formed in the flattened
    scan's order, so the result is the per-overlap loop's exactly.
    """
    store = getattr(index, "store", None)
    tier_before = dict(store.stats) if store is not None else None
    with obs.span("stage2.identify", profiles=len(new_profiles)) as span:
        mark = index.mark()
        for profile in new_profiles:
            index.insert_profile(profile)

        pmcs = pmcset.pmcs
        seen_pairs = pmcset._seen_pairs
        new_pmcs = 0
        new_pairs = 0
        delta_overlaps = 0

        for writes, reads, lo, hi in index.overlap_groups_since(mark):
            delta_overlaps += len(writes) * len(reads)
            write, read = writes[0][0], reads[0][0]
            write_value = project_value(write.addr, write.size, write.value, lo, hi)
            if project_value(read.addr, read.size, read.value, lo, hi) == write_value:
                continue
            write_key, read_key = AccessKey.of(write), AccessKey.of(read)
            pmc = None
            for read, read_test, _ in reads:
                # One PMC per group, except that a new write meeting a
                # read value group takes df_leader from each read.
                if pmc is None or read.df_leader != pmc.df_leader:
                    pmc = PMC(write=write_key, read=read_key, df_leader=read.df_leader)
                    seen = seen_pairs.setdefault(pmc, set())
                    pairs = pmcs.get(pmc)
                for _, write_test, _ in writes:
                    pair = (write_test, read_test)
                    if pair not in seen:
                        seen.add(pair)
                        if pairs is None:
                            pairs = pmcs[pmc] = [pair]
                            new_pmcs += 1
                        else:
                            pairs.append(pair)
                        new_pairs += 1
        pmcset.overlaps_scanned += delta_overlaps
        pmcset.extend_profiles(new_profiles)
        span.set(pmcs=len(pmcs), new_pmcs=new_pmcs, overlaps=delta_overlaps)
    if obs.enabled:
        obs.count("stage2.overlaps", delta_overlaps)
        obs.count("stage2.pmcs", new_pmcs)
        obs.count("stage2.pairs", new_pairs)
        if tier_before is not None:
            # Tier traffic this delta contributed (store.stats is
            # cumulative across the store's lifetime).
            for key in ("hot_hits", "cold_probes", "evictions", "rebuilds"):
                delta = store.stats[key] - tier_before[key]
                if delta:
                    obs.count(f"store.{key}", delta)
    return new_pmcs, new_pairs
