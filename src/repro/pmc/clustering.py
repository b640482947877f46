"""The PMC clustering strategies of Table 1.

A strategy is a clustering key plus a filter predicate over PMC
features: PMCs sharing a key land in one cluster; clusters whose PMCs
fail the filter are discarded.  S-INS is the paper's "strategy pair"
(one clustering by write instruction, one by read instruction): each PMC
contributes to two clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.pmc.model import PMC


@dataclass(frozen=True)
class PmcFeatures:
    """The eight features of Table 1 plus the double-fetch flag."""

    ins_w: str
    addr_w: int
    byte_w: int
    value_w: int
    ins_r: str
    addr_r: int
    byte_r: int
    value_r: int
    df_leader: bool


def pmc_features(pmc: PMC) -> PmcFeatures:
    """Extract the Table 1 feature vector from a PMC."""
    return PmcFeatures(
        ins_w=pmc.write.ins,
        addr_w=pmc.write.addr,
        byte_w=pmc.write.size,
        value_w=pmc.write.value,
        ins_r=pmc.read.ins,
        addr_r=pmc.read.addr,
        byte_r=pmc.read.size,
        value_r=pmc.read.value,
        df_leader=pmc.df_leader,
    )


KeyFn = Callable[[PmcFeatures], Tuple]
FilterFn = Callable[[PmcFeatures], bool]


@dataclass(frozen=True)
class ClusteringStrategy:
    """One row of Table 1: a name, clustering key(s) and a filter."""

    name: str
    keys: Tuple[KeyFn, ...]  # S-INS has two key functions; the rest one
    filter: FilterFn

    def cluster_keys(self, pmc: PMC) -> List[Tuple]:
        """The cluster key(s) this PMC belongs to (empty if filtered)."""
        features = pmc_features(pmc)
        if not self.filter(features):
            return []
        return [(i,) + key(features) for i, key in enumerate(self.keys)]


def _true(_: PmcFeatures) -> bool:
    return True


_CH_KEY: KeyFn = lambda f: (f.ins_w, f.addr_w, f.byte_w, f.ins_r, f.addr_r, f.byte_r)

S_FULL = ClusteringStrategy(
    name="S-FULL",
    keys=(
        lambda f: (
            f.ins_w,
            f.addr_w,
            f.byte_w,
            f.value_w,
            f.ins_r,
            f.addr_r,
            f.byte_r,
            f.value_r,
        ),
    ),
    filter=_true,
)

S_CH = ClusteringStrategy(name="S-CH", keys=(_CH_KEY,), filter=_true)

S_CH_NULL = ClusteringStrategy(
    name="S-CH-NULL",
    keys=(_CH_KEY,),
    filter=lambda f: f.value_w == 0,
)

S_CH_UNALIGNED = ClusteringStrategy(
    name="S-CH-UNALIGNED",
    keys=(_CH_KEY,),
    filter=lambda f: f.addr_r != f.addr_w or f.byte_r != f.byte_w,
)

S_CH_DOUBLE = ClusteringStrategy(
    name="S-CH-DOUBLE",
    keys=(_CH_KEY,),
    filter=lambda f: f.df_leader,
)

S_INS = ClusteringStrategy(
    name="S-INS",
    keys=(lambda f: (f.ins_w,), lambda f: (f.ins_r,)),
    filter=_true,
)

S_INS_PAIR = ClusteringStrategy(
    name="S-INS-PAIR",
    keys=(lambda f: (f.ins_w, f.ins_r),),
    filter=_true,
)

S_MEM = ClusteringStrategy(
    name="S-MEM",
    keys=(lambda f: (f.addr_w, f.byte_w, f.addr_r, f.byte_r),),
    filter=_true,
)

ALL_STRATEGIES: Tuple[ClusteringStrategy, ...] = (
    S_FULL,
    S_CH,
    S_CH_NULL,
    S_CH_UNALIGNED,
    S_CH_DOUBLE,
    S_INS,
    S_INS_PAIR,
    S_MEM,
)

STRATEGIES_BY_NAME: Dict[str, ClusteringStrategy] = {
    strategy.name: strategy for strategy in ALL_STRATEGIES
}
