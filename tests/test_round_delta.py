"""Rounds pay for their delta (DESIGN.md §2.12, §2.14).

Three pieces of cross-round state grow by each round's delta instead of
being rebuilt from everything found so far:

* an insert into an evicted access-index bucket appends to the store
  only, and the bucket stays cold;
* the (writer, reader) pair -> PMCs index gains only the new pairs;
* each strategy's cluster map gains only the new PMCs.

Pinned here: each grown structure equals its from-scratch rebuild after
every round (in memory, spilled, across a kill-and-resume and across
``run_rounds`` calls that switch strategy), a cold append loads nothing
and keeps a cold-cache copy exact, and random interleavings of inserts,
marks and scans over a tiny hot tier scan exactly like memory.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.accesses import AccessType
from repro.obs import MemorySink, Observer
from repro.obs.stats import aggregate_trace, stats_to_obj, store_tiers
from repro.orchestrate.pipeline import Snowboard, SnowboardConfig
from repro.pmc.clustering import STRATEGIES_BY_NAME
from repro.pmc.index import _COLD, AccessIndex
from repro.pmc.selection import cluster_pmcs
from repro.pmc.store import AccessStore
from repro.profile.profiler import ProfiledAccess

CONFIG = SnowboardConfig(seed=7, corpus_budget=40)
ROUNDS = dict(round_budget=2, trials=2, corpus_growth=12)
HOT_RECORDS = 4


class Killed(BaseException):
    """Stands in for SIGKILL: not an Exception, nothing may catch it."""


def pa(kind, addr, size, value, ins):
    return ProfiledAccess(
        type=AccessType.WRITE if kind == "W" else AccessType.READ,
        addr=addr,
        size=size,
        value=value,
        ins=ins,
    )


def spilled_config(tmp_path):
    return dataclasses.replace(
        CONFIG, pmc_spill_dir=str(tmp_path / "pmcstore"), pmc_hot_records=HOT_RECORDS
    )


# -- grown state == rebuilt state, every round --------------------------------


def assert_grown_equals_rebuild(snowboard, strategy_name):
    state, pmcset = snowboard.state, snowboard.pmcset
    rebuilt = {}
    for pmc, pairs in pmcset.pmcs.items():
        for pair in pairs:
            rebuilt.setdefault(pair, []).append(pmc)
    # The same keys, and each key's PMCs in the same order.  Key order
    # is first-seen per delta, which no reader depends on: a delta's
    # pair joins an older PMC's list, so a rebuild sees it earlier.
    assert state.pair_index == rebuilt
    assert state.pairs_indexed == [len(pairs) for pairs in pmcset.pmcs.values()]
    pmcs = pmcset.all_pmcs()
    for name, (clusters, covered) in state.cluster_maps.items():
        expected = cluster_pmcs(pmcs[:covered], STRATEGIES_BY_NAME[name])
        assert list(clusters.items()) == list(expected.items())
    # The map the round selected from covers every PMC found so far.
    assert state.cluster_maps[strategy_name][1] == len(pmcs)


def checked_every_round(snowboard, strategy_name):
    """Wrap ``snowboard``'s round step to check its state after each round;
    returns the list of rounds checked."""
    run_round = snowboard._run_round
    checked = []

    def run_and_check(*args, **kwargs):
        info = run_round(*args, **kwargs)
        assert_grown_equals_rebuild(snowboard, strategy_name)
        checked.append(info.round)
        return info

    snowboard._run_round = run_and_check
    return checked


@pytest.fixture(scope="module")
def reference():
    """The in-memory three-round campaign, checked every round."""
    snowboard = Snowboard(CONFIG)
    checked = checked_every_round(snowboard, "S-INS-PAIR")
    campaign = snowboard.run_rounds(3, **ROUNDS)
    assert checked == [1, 2, 3]
    return snowboard, campaign


class TestGrownStateEqualsRebuild:
    def test_in_memory(self, reference):
        snowboard, _ = reference
        # Rounds 2 and 3 really grew both structures.
        assert [info.new_pairs > 0 for info in snowboard.state.rounds_log] == [True] * 3
        assert len(snowboard.state.pair_index) > 0

    def test_spilled_with_a_tiny_hot_tier(self, reference, tmp_path):
        snowboard = Snowboard(spilled_config(tmp_path))
        checked = checked_every_round(snowboard, "S-INS-PAIR")
        campaign = snowboard.run_rounds(3, **ROUNDS)
        assert checked == [1, 2, 3]
        assert campaign.summary() == reference[1].summary()
        assert snowboard.state.index.store.stats["evictions"] > 0

    def test_after_a_kill_and_resume(self, reference, tmp_path):
        config = spilled_config(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        kill_after = reference[0].state.rounds_log[0].ntests + 1
        killed = Snowboard(config)
        real = killed.execute_test
        calls = [0]

        def dying(*args, **kwargs):
            if calls[0] >= kill_after:
                raise Killed()
            calls[0] += 1
            return real(*args, **kwargs)

        killed.execute_test = dying
        with pytest.raises(Killed):
            killed.run_rounds(3, checkpoint_path=journal, **ROUNDS)

        resumed = Snowboard(config)
        checked = checked_every_round(resumed, "S-INS-PAIR")
        campaign = resumed.run_rounds(3, checkpoint_path=journal, resume=True, **ROUNDS)
        assert checked == [1, 2, 3]
        assert campaign.summary() == reference[1].summary()

    @pytest.mark.parametrize("spilled", [False, True])
    def test_across_calls_that_switch_strategy(self, tmp_path, spilled):
        snowboard = Snowboard(spilled_config(tmp_path) if spilled else CONFIG)
        # Random S-INS-PAIR clusters by S-INS-PAIR and shares its map.
        for strategy, clustering in (
            ("S-INS-PAIR", "S-INS-PAIR"),
            ("S-INS", "S-INS"),
            ("Random S-INS-PAIR", "S-INS-PAIR"),
        ):
            checked = checked_every_round(snowboard, clustering)
            snowboard.run_rounds(1, strategy=strategy, **ROUNDS)
            assert len(checked) == 1
            del snowboard._run_round
        assert set(snowboard.state.cluster_maps) == {"S-INS-PAIR", "S-INS"}
        # S-INS's map stopped at round 2's PMCs; it grows when next used.
        assert snowboard.state.cluster_maps["S-INS"][1] < len(snowboard.pmcset)


# -- cold appends ---------------------------------------------------------------


def evicted_index(tmp_path, cold_cache_size=4):
    """An index whose write bucket at 0x100 has been evicted."""
    store = AccessStore.open(str(tmp_path / "store"))
    index = AccessIndex(store=store, hot_capacity=1, cold_cache_size=cold_cache_size)
    index.insert(pa("W", 0x100, 4, 1, "w:a"), 0)
    index.insert(pa("W", 0x100, 4, 2, "w:a"), 1)
    index.insert(pa("W", 0x200, 4, 3, "w:b"), 2)
    assert index._writes[0x100] is _COLD
    return index


def nested(bucket):
    """A bucket's full nested content, in iteration order."""
    return [
        (slot, [(value, list(holders)) for value, holders in by_value.items()])
        for slot, by_value in bucket.entries.items()
    ], bucket.nrecords


class TestColdAppend:
    def test_insert_into_an_evicted_bucket_loads_nothing(self, tmp_path, monkeypatch):
        index = evicted_index(tmp_path)
        store = index.store
        real = store.load_bucket
        loads = []
        monkeypatch.setattr(
            store, "load_bucket", lambda *key: loads.append(key) or real(*key)
        )
        mark = index.mark()
        index.insert(pa("W", 0x100, 4, 9, "w:a"), 3)
        assert loads == []
        assert index._writes[0x100] is _COLD
        assert store.stats["rebuilds"] == 0
        # The zone map saw it: the next delta scan loads the bucket.
        index.insert(pa("R", 0x100, 4, 7, "r:x"), 4)
        found = {(o.write.ins, o.write.value) for o in index.read_write_overlaps_since(mark)}
        assert ("w:a", 9) in found
        assert len(loads) == 1  # the scan's load, not the insert's

    def test_cold_cache_copy_that_takes_the_append_equals_a_rebuild(self, tmp_path):
        index = evicted_index(tmp_path)
        # A scan probing the cold bucket leaves a copy in the cold cache.
        index.insert(pa("R", 0x100, 4, 5, "r:x"), 3)
        assert list(index.read_write_overlaps_since(3))
        copy = index._cold_cache[(True, 0x100)]
        # A repeated value, a new value, and a new (size, ins) slot.
        index.insert(pa("W", 0x100, 4, 2, "w:a"), 4)
        index.insert(pa("W", 0x100, 4, 6, "w:a"), 5)
        index.insert(pa("W", 0x100, 2, 6, "w:c"), 6)
        assert index._cold_cache[(True, 0x100)] is copy
        assert nested(copy) == nested(index._build_bucket(True, 0x100))


def _ops():
    access = st.tuples(
        st.just("insert"),
        st.booleans(),  # is_write
        st.integers(min_value=0, max_value=40),  # addr
        st.integers(min_value=1, max_value=8),  # size
        st.integers(min_value=0, max_value=2),  # value
        st.integers(min_value=0, max_value=2),  # instruction
    )
    return st.lists(
        st.one_of(access, st.tuples(st.just("mark")), st.tuples(st.just("scan"))),
        max_size=40,
    )


def _groups(index, mark):
    return [
        (list(writes), list(reads), lo, hi)
        for writes, reads, lo, hi in index.overlap_groups_since(mark)
    ]


@given(ops=_ops(), hot_capacity=st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_property_cold_appends_scan_like_memory(tmp_path_factory, ops, hot_capacity):
    """Random interleavings of inserts, marks and delta scans over a hot
    tier of 1-3 records and a one-bucket cold cache: every scan yields
    the in-memory index's groups, in order."""
    store = AccessStore.open(
        str(tmp_path_factory.mktemp("cold")), shard_shift=4, pending_limit=3
    )
    spilled = AccessIndex(store=store, hot_capacity=hot_capacity, cold_cache_size=1)
    memory = AccessIndex()
    marks = [0, 0]
    for n, op in enumerate(ops):
        if op[0] == "insert":
            _, is_write, addr, size, value, ins = op
            access = pa("W" if is_write else "R", addr, size, value, f"i{ins}")
            memory.insert(access, test_id=n)
            spilled.insert(access, test_id=n)
        elif op[0] == "mark":
            marks = [memory.mark(), spilled.mark()]
        else:
            assert _groups(spilled, marks[1]) == _groups(memory, marks[0])
    assert _groups(spilled, 0) == _groups(memory, 0)


# -- the rebuild counter ----------------------------------------------------------


def test_store_rebuilds_counted_on_spilled_traces_only(tmp_path):
    traces = []
    for config in (CONFIG, spilled_config(tmp_path)):
        sink = MemorySink()
        snowboard = Snowboard(config, observer=Observer(sink))
        snowboard.run_rounds(2, **ROUNDS)
        traces.append(aggregate_trace({}, sink.events))
    memory, spilled = traces
    assert "store.rebuilds" not in memory.counters
    assert store_tiers(memory) is None
    assert spilled.counters["store.rebuilds"] > 0
    assert store_tiers(spilled)["rebuilds"] == spilled.counters["store.rebuilds"]
    obj = stats_to_obj(spilled)
    assert obj["store_tiers"]["rebuilds"] == spilled.counters["store.rebuilds"]
    assert obj["funnel"]["store.rebuilds"] == spilled.counters["store.rebuilds"]
