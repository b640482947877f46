#!/usr/bin/env python
"""CI smoke: the schedule trie end to end, and kill-and-resume a pruned
+ memoized campaign.

The two trial-side optimisations (the schedule trie and
commuting-schedule pruning, DESIGN §2.15) must compose with the
checkpoint journal: a campaign running with both enabled is killed
mid-flight and resumed, and the resumed summary must be bit-identical
to an uninterrupted pruned run.  The smoke also pins the optimisation
contract end to end: a traced, unpruned, memoized run equals the
memo-off reference exactly and serves every repeated schedule from the
trie, and the pruned campaign runs strictly fewer trials than the
reference while reporting the same bugs and the same observation count.

Usage:
    python scripts/smoke_trial_memo.py [CHECKPOINT_PATH]
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.obs import MemorySink, Observer  # noqa: E402
from repro.orchestrate.pipeline import Snowboard, SnowboardConfig  # noqa: E402

# trials_per_pmc is above the pruning floor so commuting classes bite.
CONFIG = SnowboardConfig(
    seed=7, corpus_budget=120, trials_per_pmc=24, prune_commuting=True
)
BASELINE_CONFIG = SnowboardConfig(
    seed=7, corpus_budget=120, trials_per_pmc=24, prefix_fork=False
)
MEMO_CONFIG = SnowboardConfig(seed=7, corpus_budget=120, trials_per_pmc=24)
BUDGET = 10


class Killed(BaseException):
    """Stands in for SIGKILL: not an Exception, so nothing catches it."""


def run_until_killed(path: str, kill_after: int) -> None:
    """Start the campaign, 'crash' after ``kill_after`` Stage-4 tasks."""
    sb = Snowboard(CONFIG)
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
        sb.run_campaign("S-INS-PAIR", test_budget=BUDGET, checkpoint_path=path)
    except Killed:
        return
    raise AssertionError("campaign finished before the injected kill")


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "smoke_trial_memo_checkpoint.jsonl"
    if os.path.exists(path):
        os.remove(path)

    # Unpruned, unmemoized reference: the yield pruning must preserve.
    baseline = Snowboard(BASELINE_CONFIG).run_campaign(
        "S-INS-PAIR", test_budget=BUDGET
    )
    # Traced, unpruned, memoized: the reference's summary, with every
    # repeated schedule served from the trie.
    observer = Observer(MemorySink())
    memoized = Snowboard(MEMO_CONFIG, observer=observer).run_campaign(
        "S-INS-PAIR", test_budget=BUDGET
    )
    if memoized.summary() != baseline.summary():
        print("smoke_trial_memo: FAILED — memoized summary differs from memo-off")
        print(f"  memo-off: {baseline.summary()}")
        print(f"  memo-on:  {memoized.summary()}")
        return 1
    count = observer.metrics.counter_value
    hits, schedules = count("stage4.schedule_hits"), count("stage4.schedules")
    trials = count("stage4.trials")
    if hits <= 0 or hits + schedules < trials:
        print(
            f"smoke_trial_memo: FAILED — {hits} schedule hits + {schedules} "
            f"distinct schedules do not cover {trials} trials"
        )
        return 1

    # Uninterrupted pruned + memoized run: the summary resume must match.
    expected = Snowboard(CONFIG).run_campaign("S-INS-PAIR", test_budget=BUDGET)

    if expected.trials >= baseline.trials:
        print(
            f"smoke_trial_memo: FAILED — pruning did not prune "
            f"({expected.trials} vs {baseline.trials} trials)"
        )
        return 1
    if expected.summary()["bugs"] != baseline.summary()["bugs"]:
        print("smoke_trial_memo: FAILED — pruning lost bugs")
        print(f"  baseline: {baseline.summary()['bugs']}")
        print(f"  pruned:   {expected.summary()['bugs']}")
        return 1
    if expected.summary()["observations"] != baseline.summary()["observations"]:
        print("smoke_trial_memo: FAILED — pruning lost observations")
        return 1

    run_until_killed(path, kill_after=BUDGET // 2)

    resumed = Snowboard(CONFIG).run_campaign(
        "S-INS-PAIR", test_budget=BUDGET, checkpoint_path=path, resume=True
    )
    if resumed.summary() != expected.summary():
        print("smoke_trial_memo: FAILED — resumed summary diverged")
        print(f"  expected: {expected.summary()}")
        print(f"  resumed:  {resumed.summary()}")
        return 1

    print(
        f"smoke_trial_memo: green — memoized run equals memo-off "
        f"({hits} of {trials} trials served from the trie, {schedules} "
        f"distinct schedules); pruned {baseline.trials} -> "
        f"{expected.trials} trials with identical bugs "
        f"{expected.summary()['bugs']}, killed after {BUDGET // 2} tasks, "
        f"resumed to an identical summary (journal={path})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
