"""PMC selection: clustering, uncommon-first ordering, exemplar draws.

Section 4.3: cluster all PMCs under a strategy, count cluster
cardinalities, and test one randomly drawn exemplar per cluster from the
*least* to the *most* populous cluster — uncommon communication first.
``Random S-INS-PAIR`` (Table 3) keeps the per-cluster exemplar draw but
randomises the cluster order instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.obs import NULL_OBSERVER
from repro.pmc.clustering import ClusteringStrategy
from repro.pmc.model import PMC


@dataclass
class SelectionHistory:
    """Cross-round memory of what has already been tested (§4.3).

    The paper's continuous deployment selects exemplars "from each
    cluster *excluding those tested before*": a cluster whose key was
    drawn from in an earlier round is skipped (until a later strategy
    change gives it a new key), and a PMC that was an exemplar before is
    never a candidate again.  Cluster keys are namespaced by strategy
    name, so switching strategies between rounds re-opens the space the
    way iterative composition prescribes.
    """

    clusters: Set[Tuple] = field(default_factory=set)
    pmcs: Set[PMC] = field(default_factory=set)

    def record(self, strategy_name: str, key: Tuple, pmc: PMC) -> None:
        self.clusters.add((strategy_name, key))
        self.pmcs.add(pmc)

    def tested_cluster(self, strategy_name: str, key: Tuple) -> bool:
        return (strategy_name, key) in self.clusters

    def __len__(self) -> int:
        return len(self.pmcs)


def cluster_pmcs(
    pmcs: Sequence[PMC], strategy: ClusteringStrategy
) -> Dict[Tuple, List[PMC]]:
    """Group PMCs by the strategy's cluster key(s), applying its filter."""
    return grow_clusters({}, pmcs, strategy)


def grow_clusters(
    clusters: Dict[Tuple, List[PMC]], pmcs: Sequence[PMC], strategy: ClusteringStrategy
) -> Dict[Tuple, List[PMC]]:
    """Add ``pmcs`` to the cluster map ``clusters`` in place; returns it."""
    for pmc in pmcs:
        for key in strategy.cluster_keys(pmc):
            clusters.setdefault(key, []).append(pmc)
    return clusters


def ordered_exemplars(
    pmcs: Sequence[PMC],
    strategy: ClusteringStrategy,
    rng: random.Random,
    random_order: bool = False,
    limit: Optional[int] = None,
    obs=NULL_OBSERVER,
    history: Optional[SelectionHistory] = None,
    clusters: Optional[Dict[Tuple, List[PMC]]] = None,
) -> List[PMC]:
    """One exemplar per cluster, uncommon (smallest) clusters first.

    ``clusters`` is ``cluster_pmcs(pmcs, strategy)`` when the caller
    has it already (round-based campaigns grow it); it is only read.

    With ``random_order`` the cluster order is shuffled instead (the
    Random S-INS-PAIR baseline).  A PMC already chosen as another
    cluster's exemplar is skipped, so the result has no duplicates (this
    matters for S-INS, where every PMC sits in two clusters).

    With a ``history`` (round-based campaigns), clusters tested in an
    earlier round are skipped outright, previously tested PMCs are
    removed from the candidate pools, and every exemplar chosen here is
    recorded back into the history — the §4.3 "excluding those tested
    before" rule.  An *empty* history filters nothing, so round one is
    bit-identical to the history-free batch path.

    Stage-3 funnel quantities — clusters kept, PMCs dropped by the
    strategy filter, clusters deduplicated away because their candidates
    were already exemplars elsewhere, clusters skipped as already tested
    — land on ``obs``.
    """
    with obs.span("stage3.select", strategy=strategy.name) as span:
        if clusters is None:
            clusters = cluster_pmcs(pmcs, strategy)
        items = list(clusters.items())
        if random_order:
            # Stable order first so the shuffle is reproducible from the seed.
            items.sort(key=lambda kv: repr(kv[0]))
            rng.shuffle(items)
        else:
            items.sort(key=lambda kv: (len(kv[1]), repr(kv[0])))

        chosen: List[PMC] = []
        taken = set()
        deduped = 0
        skipped_tested = 0
        for key, members in items:
            if history is not None and history.tested_cluster(strategy.name, key):
                skipped_tested += 1
                continue
            if history is not None:
                tested = history.pmcs
                candidates = [
                    p for p in members if p not in taken and p not in tested
                ]
            else:
                candidates = [p for p in members if p not in taken]
            if not candidates:
                deduped += 1
                continue
            exemplar = rng.choice(candidates)
            taken.add(exemplar)
            chosen.append(exemplar)
            if history is not None:
                history.record(strategy.name, key, exemplar)
            if limit is not None and len(chosen) >= limit:
                break
        span.set(
            clusters=len(clusters),
            exemplars=len(chosen),
            deduped=deduped,
            tested_before=skipped_tested,
        )
    if obs.enabled:
        obs.count("stage3.clusters", len(clusters))
        # Every accepted PMC sits in one cluster per key function.
        accepted = sum(map(len, clusters.values())) // len(strategy.keys)
        obs.count("stage3.filtered", len(pmcs) - accepted)
        obs.count("stage3.duplicates", deduped)
        obs.count("stage3.tested_before", skipped_tested)
        obs.count("stage3.exemplars", len(chosen))
    return chosen


def select_exemplars(
    pmcs: Sequence[PMC],
    strategy: ClusteringStrategy,
    seed: int = 0,
    random_order: bool = False,
    limit: Optional[int] = None,
) -> List[PMC]:
    """Convenience wrapper seeding its own RNG."""
    return ordered_exemplars(
        pmcs, strategy, random.Random(seed), random_order=random_order, limit=limit
    )


def cluster_stats(
    pmcs: Sequence[PMC], strategy: ClusteringStrategy
) -> Tuple[int, int]:
    """(number of clusters == exemplar PMCs, number of clustered PMCs)."""
    clusters = cluster_pmcs(pmcs, strategy)
    members = sum(len(v) for v in clusters.values())
    return len(clusters), members
