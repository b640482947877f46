#!/usr/bin/env python
"""CI smoke: kill-and-resume a campaign spilled to the tiered PMC store.

Runs a 3-round checkpointed campaign with the access index spilled to
an on-disk store and the hot tier forced to a hundredth of the access
set (so most buckets are cold: inserts into them append to the store
only, and scans rebuild them), kills the process-equivalent
mid-round-3, then resumes from the journal *and* the store manifest in
a fresh Snowboard, which replays two delta rounds through the cold
appends and the grown pair index and cluster maps.  The resumed
summary and round log must be bit-identical to an uninterrupted fully
in-memory run of the same campaign — the end-to-end contract of
DESIGN.md §2.14, exercised
through the same code path the CLI's ``campaign --pmc-spill-dir
--pmc-hot-mb --checkpoint --resume`` uses, cheap enough for every CI
run.

Usage:
    python scripts/smoke_store.py [WORK_DIR]
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.orchestrate.pipeline import Snowboard, SnowboardConfig  # noqa: E402
from repro.pmc.store import MANIFEST_NAME  # noqa: E402

CONFIG = SnowboardConfig(seed=7, corpus_budget=120, trials_per_pmc=4)
ROUNDS = 3
ROUND_BUDGET = 3


class Killed(BaseException):
    """Stands in for SIGKILL: not an Exception, so nothing catches it."""


def run_until_killed(config: SnowboardConfig, path: str, kill_after: int) -> None:
    """Start the spilled campaign, 'crash' after ``kill_after`` tasks."""
    sb = Snowboard(config)
    executed = 0
    real = sb.execute_test

    def dying_execute_test(*args, **kwargs):
        nonlocal executed
        if executed >= kill_after:
            raise Killed()
        executed += 1
        return real(*args, **kwargs)

    sb.execute_test = dying_execute_test
    try:
        sb.run_rounds(ROUNDS, ROUND_BUDGET, checkpoint_path=path)
    except Killed:
        return
    raise AssertionError("campaign finished before the injected kill")


def main() -> int:
    work = sys.argv[1] if len(sys.argv) > 1 else "smoke_store_work"
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)
    journal = os.path.join(work, "journal.jsonl")
    spill_dir = os.path.join(work, "pmcstore")

    # The uninterrupted, fully in-memory reference run.
    reference = Snowboard(CONFIG)
    expected = reference.run_rounds(ROUNDS, ROUND_BUDGET)

    # Force the hot tier to a hundredth of the reference access set.
    writes, reads = reference.state.index.counts()
    hot_capacity = max(1, (writes + reads) // 100)
    config = dataclasses.replace(
        CONFIG, pmc_spill_dir=spill_dir, pmc_hot_records=hot_capacity
    )

    # Kill mid-round-3, after the round boundary is journalled.
    log = reference.state.rounds_log
    kill_after = log[0].ntests + log[1].ntests + 1
    run_until_killed(config, journal, kill_after=kill_after)
    if not os.path.exists(os.path.join(spill_dir, MANIFEST_NAME)):
        print("smoke_store: FAILED — no store manifest after the kill")
        return 1

    resumed_sb = Snowboard(config)
    resumed = resumed_sb.run_rounds(
        ROUNDS, ROUND_BUDGET, checkpoint_path=journal, resume=True
    )

    if resumed.summary() != expected.summary():
        print("smoke_store: FAILED — resumed spilled summary diverged")
        print(f"  expected: {expected.summary()}")
        print(f"  resumed:  {resumed.summary()}")
        return 1
    stripped = [
        dataclasses.replace(info, store_digest="")
        for info in resumed_sb.state.rounds_log
    ]
    if stripped != reference.state.rounds_log:
        print("smoke_store: FAILED — rounds_log diverged after spilled resume")
        return 1
    if not all(info.store_digest for info in resumed_sb.state.rounds_log):
        print("smoke_store: FAILED — a round record is missing its store digest")
        return 1

    stats = resumed_sb.state.index.store.stats
    if stats["evictions"] == 0:
        print("smoke_store: FAILED — hot tier never evicted (capacity too big?)")
        return 1

    hot, total = resumed_sb.state.index.tier_counts()
    print(
        f"smoke_store: green — killed mid-round-3 (after {kill_after} tests), "
        f"resumed from journal + store manifest to an identical summary "
        f"(hot {hot}/{total} records, evictions={stats['evictions']}, "
        f"cold probes={stats['cold_probes']}, rebuilds={stats['rebuilds']}, "
        f"trials={resumed.trials})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
