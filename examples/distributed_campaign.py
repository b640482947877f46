#!/usr/bin/env python3
"""Distributed concurrent-test execution over the multi-process fleet.

The paper integrates its execution platform "with a lightweight
distributed queue so that concurrent tests can be distributed in a cloud
platform" (section 4.4.1).  This example reproduces that topology with
real process isolation: one analysis instance (the coordinator)
generates prioritised concurrent tests and serialises them into
versioned, fully picklable ``TaskEnvelope``s; N worker *processes* —
each booting a private kernel, like one cloud VM each — execute them and
stream back ``ResultEnvelope``s.  Everything crossing the boundary is
plain picklable data, the same shape a real network transport (Redis,
gRPC) would carry.

The coordinator owns the fault model too: if a worker process dies
mid-task its lease is reclaimed and re-dispatched, and the worker is
respawned with a fresh kernel — run the drills in ``tests/test_fleet.py``
and ``scripts/smoke_fleet.py`` to see that under fire.

Run:  python examples/distributed_campaign.py [workers]
"""

import pickle
import sys

from repro import Snowboard, SnowboardConfig
from repro.detect.catalog import match_observations
from repro.orchestrate.fleet import FleetCoordinator, TaskEnvelope, WorkerSpec
from repro.orchestrate.pipeline import Stage4Task
from repro.orchestrate.queue import TaskFailure
from repro.orchestrate.transport import MultiprocessingTransport

TRIALS = 12
BUDGET = 12


def main() -> None:
    nworkers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    config = SnowboardConfig(seed=7, corpus_budget=200, trials_per_pmc=TRIALS)

    print("== coordinator: generate prioritised tests ==")
    snowboard = Snowboard(config).prepare()
    tests, nclusters = snowboard.generate_tests("S-INS-PAIR", limit=BUDGET)
    print(f"{len(tests)} concurrent tests from {nclusters} clusters")

    print("\n== serialise onto the wire ==")
    envelopes = [
        TaskEnvelope.from_task(
            Stage4Task(task_id=i, test=test, trials=TRIALS)
        )
        for i, test in enumerate(tests)
    ]
    wire_bytes = sum(len(pickle.dumps(e)) for e in envelopes)
    print(
        f"{len(envelopes)} task envelopes, {wire_bytes:,} bytes pickled "
        f"(version {envelopes[0].version})"
    )

    print(f"\n== dispatch to {nworkers} worker processes ==")
    spec = WorkerSpec(config=config)
    fleet = FleetCoordinator(MultiprocessingTransport(spec), nworkers=nworkers)
    results = fleet.run(envelopes)
    for stats in fleet.worker_stats:
        print(
            f"  worker {stats.worker_id}: {stats.tasks_done} tasks, "
            f"{stats.retries} retries, {stats.respawns} respawns"
        )

    print("\n== collected observations ==")
    all_obs = []
    for task_id in sorted(results):
        result = results[task_id]
        if isinstance(result, TaskFailure):
            print(f"  task {task_id}: FAILED ({result.message})")
            continue
        outcomes, _, _ = result.decode()
        for outcome in outcomes:
            all_obs.extend(outcome.observations)
    grouped = match_observations(all_obs)
    for bug_id, observations in sorted(grouped.items()):
        print(f"  {bug_id}: {len(observations)} observation(s)")
        for obs in observations[:2]:
            print(f"    {obs}")
    if not all_obs:
        print("  (no observations in this slice; the campaign runner applies"
              " race detection and dedup — see quickstart.py)")


if __name__ == "__main__":
    main()
