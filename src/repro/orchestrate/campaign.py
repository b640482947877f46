"""Incremental campaign state: what a round-based Snowboard remembers.

The paper's real deployment ran continuously for weeks (§4.3, §6):
Syzkaller kept producing sequential tests, profiles and PMCs accumulated
incrementally, and each round tested exemplars from clusters not yet
covered.  :class:`CampaignState` is the cross-round memory that makes
that loop possible without ever rebuilding from scratch:

* the fuzzer's :class:`~repro.fuzz.generator.ProgramGenerator` (its RNG
  state carries across rounds, so later rounds mutate earlier rounds'
  survivors),
* the profiled-test watermark into the growing corpus (only the
  unprofiled tail is executed each round),
* the incremental :class:`~repro.pmc.index.AccessIndex` (delta overlap
  scans instead of full rescans),
* the :class:`~repro.pmc.selection.SelectionHistory` of tested clusters
  and exemplars (the §4.3 "excluding those tested before" rule),
* the (writer, reader) pair -> PMCs index and each strategy's cluster
  map, grown by each round's new pairs and PMCs rather than rebuilt
  (PMCs and their pairs are only ever appended),
* the global Stage-4 test position (schedulers stay seeded
  ``seed + test_index``, so round campaigns checkpoint/resume exactly
  like batch ones).

Round one of the engine *is* the historical batch pipeline: with the
full budget it produces bit-identical results, which the golden
equivalence tests pin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fuzz.generator import ProgramGenerator
from repro.pmc.clustering import ClusteringStrategy
from repro.pmc.identify import PmcSet
from repro.pmc.index import AccessIndex
from repro.pmc.model import PMC
from repro.pmc.selection import SelectionHistory, grow_clusters

#: The batch path's selection-RNG salt (``seed ^ SELECTION_SALT``); kept
#: as a named constant so the round derivation provably matches it.
SELECTION_SALT = 0x5B0A

#: Per-round stride of the selection RNG stream (golden-ratio constant:
#: consecutive rounds land far apart in seed space).  Round 1 adds zero
#: strides, making it bit-identical to the batch derivation.
ROUND_STRIDE = 0x9E3779B9


def selection_rng(seed: int, round_number: int) -> random.Random:
    """The Stage-3 selection RNG of one round.

    ``round_number`` is 1-based; round 1 yields exactly the batch
    pipeline's ``random.Random(seed ^ 0x5B0A)``.
    """
    if round_number < 1:
        raise ValueError(f"round_number is 1-based, got {round_number}")
    return random.Random((seed ^ SELECTION_SALT) + (round_number - 1) * ROUND_STRIDE)


@dataclass(frozen=True)
class RoundInfo:
    """What one completed round contributed (reporting + journal guard)."""

    round: int
    first_test_index: int  # global Stage-4 index of the round's first test
    ntests: int  # concurrent tests the round generated
    corpus_size: int  # corpus entries after the round's growth
    new_corpus_tests: int  # entries this round's fuzzing kept
    new_profiles: int  # sequential tests profiled this round
    pmcs_total: int  # PMCs identified so far
    new_pmcs: int  # PMCs this round's delta classification added
    new_pairs: int  # (writer, reader) pairs the delta added
    exemplars: Tuple[Optional[PMC], ...] = ()  # scheduling hints, test order
    store_digest: str = ""  # PMC-store manifest digest at the round boundary

    def to_obj(self) -> dict:
        """The JSON-ready journal record (exemplars stay in memory)."""
        obj = {
            "round": self.round,
            "first_test_index": self.first_test_index,
            "ntests": self.ntests,
            "corpus_size": self.corpus_size,
            "new_corpus_tests": self.new_corpus_tests,
            "new_profiles": self.new_profiles,
            "pmcs_total": self.pmcs_total,
            "new_pmcs": self.new_pmcs,
            "new_pairs": self.new_pairs,
        }
        # Only spilled campaigns record a digest; in-memory journals
        # stay byte-identical to the pre-spill format.
        if self.store_digest:
            obj["store_digest"] = self.store_digest
        return obj


@dataclass
class CampaignState:
    """Cross-round campaign memory, threaded through every layer."""

    generator: ProgramGenerator
    index: AccessIndex = field(default_factory=AccessIndex)
    history: SelectionHistory = field(default_factory=SelectionHistory)
    round: int = 0  # rounds completed (absolute, survives repeat calls)
    corpus_epoch: int = 0  # fuzzing growth passes applied to the corpus
    profiled_watermark: int = 0  # corpus entries profiled so far
    next_test_index: int = 0  # global Stage-4 test position
    rounds_log: List[RoundInfo] = field(default_factory=list)
    pair_index: Dict[Tuple[int, int], List[PMC]] = field(default_factory=dict)
    pairs_indexed: List[int] = field(default_factory=list)  # per PmcSet position
    # Strategy name -> (its cluster map, PmcSet prefix length it covers).
    cluster_maps: Dict[str, Tuple[Dict, int]] = field(default_factory=dict)

    @classmethod
    def fresh(cls, seed: int) -> "CampaignState":
        return cls(generator=ProgramGenerator(seed))

    def grow_pair_index(self, pmcset: PmcSet) -> None:
        """Add the pairs ``pmcset`` gained since the last call to
        :attr:`pair_index`.  Each has a new test in it, so it is a new
        key, and visiting PMCs in PmcSet order lists its PMCs as a
        rebuild would.  Progress is kept by PmcSet position: hashing a
        PMC is slow."""
        indexed = self.pairs_indexed
        indexed.extend([0] * (len(pmcset) - len(indexed)))
        for position, (pmc, pairs) in enumerate(pmcset.pmcs.items()):
            if indexed[position] < len(pairs):
                for pair in pairs[indexed[position] :]:
                    self.pair_index.setdefault(pair, []).append(pmc)
                indexed[position] = len(pairs)

    def clusters(
        self, strategy: ClusteringStrategy, pmcs: List[PMC]
    ) -> Dict[Tuple, List[PMC]]:
        """``cluster_pmcs(pmcs, strategy)`` over the PmcSet's PMCs, grown
        from the last call's map: PMCs are only ever appended, so
        clustering the new tail alone keeps keys in first-seen order and
        members in PmcSet order."""
        clusters, done = self.cluster_maps.get(strategy.name, ({}, 0))
        grow_clusters(clusters, pmcs[done:], strategy)
        self.cluster_maps[strategy.name] = (clusters, len(pmcs))
        return clusters
