"""Pruning soundness: ``--prune-commuting`` must not lose Table-2 bugs.

Commuting-schedule pruning trades trials for analysis: switch positions
between which the writer touches nothing the reader shares are claimed
to be interchangeable, so the trial budget is cut to a few
representatives per commuting class.  That claim is about *yield*, not
bit-identity — the pruned run executes strictly fewer trials — so the
test is a hunt over every Table-2 trigger pair (the same programs as
``tests/test_bugs_table2.py``), PMC-guided exactly like the pipeline:
every bug the full budget detects, the pruned budget must detect too.

The structural half of the guarantee — surviving trials run with
unchanged seeds, so the pruned outcome stream is a prefix of the full
one — is also pinned here, per pair, which is what makes yield loss
*beyond* the cut impossible by construction.  At the end, one campaign
pins what pruning and prefix forking save together, as exact counts.
"""

from __future__ import annotations

import pytest

from repro.detect.catalog import match_observations
from repro.fuzz.prog import Call, Res, prog
from repro.kernel.kernel import boot_kernel
from repro.orchestrate.pipeline import (
    ConcurrentTest,
    Snowboard,
    SnowboardConfig,
    Stage4Task,
    run_task_trials,
)
from repro.pmc.identify import identify_pmcs
from repro.profile.profiler import profile_from_result
from repro.sched.executor import Executor
from repro.sched.snowboard import SnowboardScheduler

# The Table-2 trigger pairs of tests/test_bugs_table2.py, verbatim.
PAIRS = {
    "SB01": (
        prog(Call("msgget", (2,)), Call("msgctl", (2, 0))),
        prog(Call("msgget", (2,))),
    ),
    "SB02": (
        prog(Call("open", (1,)), Call("ioctl", (Res(0), 1, 0))),
        prog(Call("open", (1,)), Call("ioctl", (Res(0), 1, 0))),
    ),
    "SB03": (
        prog(Call("open", (2,)), Call("write", (Res(0), 9))),
        prog(Call("open", (2,)), Call("write", (Res(0), 9))),
    ),
    "SB04": (
        prog(Call("open", (1,)), Call("ioctl", (Res(0), 2, 1))),
        prog(Call("open", (2,)), Call("read", (Res(0), 2))),
    ),
    "SB05": (
        prog(Call("open", (1,)), Call("ioctl", (Res(0), 3, 64))),
        prog(Call("open", (2,)), Call("fadvise", (Res(0),))),
    ),
    "SB06": (
        prog(Call("open", (1,)), Call("ioctl", (Res(0), 2, 1))),
        prog(Call("open", (2,)), Call("read", (Res(0), 2))),
    ),
    "SB07": (
        prog(Call("socket", (3,)), Call("ioctl", (Res(0), 6, 900))),
        prog(Call("socket", (3,)), Call("sendmsg", (Res(0), 4000))),
    ),
    "SB08": (
        prog(Call("socket", (0,)), Call("ioctl", (Res(0), 4, 0xAABBCCDDEEFF))),
        prog(Call("socket", (1,)), Call("getsockname", (Res(0),))),
    ),
    "SB09": (
        prog(Call("socket", (0,)), Call("ioctl", (Res(0), 4, 0xAABBCCDDEEFF))),
        prog(Call("socket", (0,)), Call("ioctl", (Res(0), 5, 0))),
    ),
    "SB10": (
        prog(*[Call("route_update", (v,)) for v in (1, 2, 3, 4, 5, 6)]),
        prog(Call("socket", (3,)), Call("sendmsg", (Res(0), 100))),
    ),
    "SB11": (prog(Call("mkdir", (2,))), prog(Call("lookup", (2,)))),
    "SB12": (
        prog(Call("socket", (2,)), Call("connect", (Res(0), 1))),
        prog(
            Call("socket", (2,)), Call("connect", (Res(0), 1)), Call("sendmsg", (Res(0), 5))
        ),
    ),
    "SB13": (prog(Call("msgget", (1,))), prog(Call("msgget", (1,)))),
    "SB14": (
        prog(Call("tty_open", ()), Call("ioctl", (Res(0), 7, 0))),
        prog(Call("tty_open", ())),
    ),
    "SB15": (prog(Call("snd_ctl_add", (100,))), prog(Call("snd_ctl_add", (100,)))),
    "SB16": (
        prog(Call("socket", (0,)), Call("setsockopt", (Res(0), 2, 5))),
        prog(Call("socket", (0,)), Call("setsockopt", (Res(0), 1, 0))),
    ),
    "SB17": (
        prog(Call("socket", (1,)), Call("setsockopt", (Res(0), 3, 0)), Call("close", (Res(0),))),
        prog(
            Call("socket", (1,)), Call("setsockopt", (Res(0), 3, 0)), Call("sendmsg", (Res(0), 1))
        ),
    ),
}

TRIALS = 40
MAX_PMCS_PER_PAIR = 6


def observed_bugs(outcomes):
    observations = [o for outcome in outcomes for o in outcome.observations]
    return set(match_observations(observations)) - {"unmatched"}


def run_task(executor, test, prune, seed):
    task = Stage4Task(task_id=0, test=test, trials=TRIALS, prune_commuting=prune)
    outcomes, _, _ = run_task_trials(executor, task, SnowboardScheduler(test.pmc, seed=seed))
    return outcomes


@pytest.fixture(scope="module")
def hunts():
    """PMC-guided full-vs-pruned hunt results for every trigger pair."""
    kernel, snapshot = boot_kernel()
    executor = Executor(kernel, snapshot)
    results = {}
    for bug_id, (writer, reader) in PAIRS.items():
        pw = profile_from_result(0, writer, executor.run_sequential(writer))
        pr = profile_from_result(1, reader, executor.run_sequential(reader))
        pmcset = identify_pmcs([pw, pr])
        pmcs = [p for p in pmcset if (0, 1) in pmcset.pairs(p)][:MAX_PMCS_PER_PAIR]
        per_pmc = []
        for seed, pmc in enumerate(pmcs):
            test = ConcurrentTest(
                writer=writer, reader=reader, writer_test=0, reader_test=1, pmc=pmc
            )
            per_pmc.append(
                (
                    run_task(executor, test, prune=False, seed=seed),
                    run_task(executor, test, prune=True, seed=seed),
                )
            )
        results[bug_id] = per_pmc
    return results


@pytest.mark.parametrize("bug_id", sorted(PAIRS))
def test_pruning_preserves_bug_yield(hunts, bug_id):
    """Every bug the full budget detects, the pruned budget detects."""
    full_ids, pruned_ids = set(), set()
    for full, pruned in hunts[bug_id]:
        full_ids |= observed_bugs(full)
        pruned_ids |= observed_bugs(pruned)
    assert full_ids - pruned_ids == set()


def outcome_key(outcome):
    """Every deterministic field (restore_seconds is wall-clock)."""
    return (
        outcome.trial,
        outcome.instructions,
        outcome.pages_restored,
        outcome.races,
        outcome.observations,
        outcome.channel_hit,
        outcome.switch_points,
        outcome.console,
        outcome.panic_message,
        outcome.forked,
    )


@pytest.mark.parametrize("bug_id", sorted(PAIRS))
def test_pruned_stream_is_prefix_of_full_stream(hunts, bug_id):
    """Surviving trials are the full run's first trials, bit for bit."""
    for full, pruned in hunts[bug_id]:
        assert 0 < len(pruned) <= len(full)
        for mine, theirs in zip(pruned, full):
            assert outcome_key(mine) == outcome_key(theirs)


def test_pruning_actually_prunes(hunts):
    """The sweep is not vacuous: most pairs run far fewer trials."""
    total_full = sum(len(f) for runs in hunts.values() for f, _ in runs)
    total_pruned = sum(len(p) for runs in hunts.values() for _, p in runs)
    assert total_pruned < total_full / 2


def test_every_catalog_bug_has_a_pair_here():
    for i in range(1, 18):
        assert f"SB{i:02d}" in PAIRS


def test_memoized_pruned_campaign_cuts_instructions_per_observation():
    """The campaign-level figure, as exact counts: prefix forking plus
    pruning runs 54 of 160 trials and 9,215 of 29,101 instructions for
    the same 10 observations and the same bug table, 68.3% fewer
    instructions per observation."""

    def campaign(optimised):
        config = SnowboardConfig(
            seed=7,
            corpus_budget=120,
            trials_per_pmc=24,
            prefix_fork=optimised,
            prune_commuting=optimised,
        )
        return Snowboard(config).prepare().run_campaign("S-INS-PAIR", test_budget=10)

    full, pruned = campaign(False), campaign(True)
    full_summary, pruned_summary = full.summary(), pruned.summary()
    assert (full.trials, full.instructions, full_summary["observations"]) == (160, 29_101, 10)
    assert (pruned.trials, pruned.instructions, pruned_summary["observations"]) == (54, 9_215, 10)
    assert pruned_summary["bugs"] == full_summary["bugs"]
    full_ipo = full.instructions / full_summary["observations"]
    pruned_ipo = pruned.instructions / pruned_summary["observations"]
    assert round(100 * (1 - pruned_ipo / full_ipo), 1) == 68.3
