"""Parallel Stage 4: campaigns on a worker fleet.

The contract under test is the paper's distribution story (section
4.4.1): concurrent tests are independent work items, so spreading them
over workers — each owning a private kernel booted from the same
deterministic snapshot — must find exactly the same bugs as the serial
loop for the same seed, with the same trial counts and first-find
positions.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.orchestrate.transport as transport_mod
from repro.fuzz.prog import Call, prog
from repro.orchestrate.fleet import FleetFault
from repro.orchestrate.pipeline import Snowboard, SnowboardConfig, run_task_trials
from repro.orchestrate.queue import TaskFailure
from tests.test_transport import StubTransport, boot_fails


CONFIG = SnowboardConfig(
    seed=7, corpus_budget=120, trials_per_pmc=8, max_instructions=40_000
)
BUDGET = 10


@pytest.fixture(scope="module")
def serial_campaign():
    sb = Snowboard(CONFIG).prepare()
    return sb.run_campaign("S-INS-PAIR", test_budget=BUDGET)


@pytest.fixture(scope="module")
def parallel_run():
    sb = Snowboard(CONFIG).prepare()
    campaign = sb.run_campaign("S-INS-PAIR", test_budget=BUDGET, workers=3)
    return sb, campaign


class TestSerialParallelEquivalence:
    def test_identical_bug_sets(self, serial_campaign, parallel_run):
        _, parallel = parallel_run
        assert parallel.bugs_found() == serial_campaign.bugs_found()

    def test_identical_summaries(self, serial_campaign, parallel_run):
        # Stronger than bug sets: trial counts, instructions, exercised
        # PMCs and first-find positions all survive parallelisation.
        _, parallel = parallel_run
        assert parallel.summary() == serial_campaign.summary()

    def test_identical_repro_packages(self, parallel_run):
        sb_parallel, _ = parallel_run
        sb_serial = Snowboard(CONFIG).prepare()
        sb_serial.run_campaign("S-INS-PAIR", test_budget=BUDGET)
        assert set(sb_parallel.repro_packages) == set(sb_serial.repro_packages)
        for bug_id, package in sb_serial.repro_packages.items():
            assert sb_parallel.repro_packages[bug_id].to_json() == package.to_json()

    def test_worker_count_recorded(self, serial_campaign, parallel_run):
        _, parallel = parallel_run
        assert serial_campaign.workers == 1
        assert parallel.workers == 3
        assert parallel.task_failures == 0

    def test_throughput_figures_populated(self, parallel_run):
        _, parallel = parallel_run
        assert parallel.wall_seconds > 0
        assert parallel.trials_per_second > 0
        assert parallel.executions_per_minute == pytest.approx(
            parallel.trials_per_second * 60
        )
        assert parallel.pages_per_trial > 0
        assert 0 < parallel.restore_fraction <= 1


def fleet_stub(failed):
    """A stand-in for ``Snowboard._run_transport_fleet``: runs every task
    on the campaign executor, as a worker would, except the task ids in
    ``failed``, whose value (a ``TaskFailure``, or ``None`` for no result
    at all) is what the fleet hands the merge instead."""

    def run(self, todo, campaign, scheduler_kind, trials, workers, fleet):
        results = {}
        for index, test in todo:
            if index in failed:
                if failed[index] is not None:
                    results[index] = failed[index]
                continue
            scheduler = self.make_scheduler(
                test, seed=self.config.seed + index, kind=scheduler_kind
            )
            task = self._task(index, test, scheduler_kind, trials)
            results[index] = run_task_trials(self.executor, task, scheduler)
        return results

    return run


class BootFailingTransport(StubTransport):
    """Stands in for ``MultiprocessingTransport``: every worker it
    spawns reports that its kernel failed to boot."""

    def __init__(self, spec, start_method=None):
        super().__init__([{"on_spawn": boot_fails}])


class TestFailureSurfacing:
    def test_crashed_task_counted_not_merged(self, monkeypatch):
        failure = TaskFailure(task_id=1, message="injected worker crash", attempts=2)
        monkeypatch.setattr(Snowboard, "_run_transport_fleet", fleet_stub({1: failure}))
        sb = Snowboard(CONFIG).prepare()
        campaign = sb.run_campaign("S-INS-PAIR", test_budget=4, workers=2)
        assert campaign.task_failures == 1
        # The crashed task still consumes its test index, so positions of
        # later finds stay aligned with a serial run.
        assert campaign.tested_pmcs == 4
        assert campaign.summary()["task_failures"] == 1
        serial = Snowboard(CONFIG).prepare().run_campaign("S-INS-PAIR", test_budget=4)
        indexes = {r.test_index for r in campaign.records}
        assert 1 not in indexes and max(indexes) > 1
        assert [
            (r.test_index, r.trial, r.observation.key)
            for r in campaign.records
            if r.test_index == 0
        ] == [
            (r.test_index, r.trial, r.observation.key)
            for r in serial.records
            if r.test_index == 0
        ]

    def test_all_factories_crash_campaign_terminates(self, monkeypatch):
        """Every worker boot fails: the campaign must complete cleanly
        with one task failure per test — no hang, no TypeError from the
        merge loop iterating a missing result."""
        monkeypatch.setattr(
            transport_mod, "MultiprocessingTransport", BootFailingTransport
        )
        sb = Snowboard(CONFIG).prepare()
        campaign = sb.run_campaign("S-INS-PAIR", test_budget=5, workers=3)
        assert campaign.task_failures == 5
        assert campaign.tested_pmcs == 5
        assert campaign.bugs_found() == {}
        assert campaign.worker_respawns > 0
        assert campaign.summary()["task_failures"] == 5

    def test_transient_worker_death_is_contained(self, tmp_path):
        """A worker dying mid-task (SIGKILL) is respawned and the task
        re-executed deterministically — the campaign result is
        bit-identical to an undisturbed serial run."""
        # Fast liveness: the death is noticed at the heartbeat deadline.
        config = dataclasses.replace(
            CONFIG, fleet_heartbeat_interval=0.1, fleet_heartbeat_timeout=1.5
        )
        serial = Snowboard(config).prepare().run_campaign(
            "S-INS-PAIR", test_budget=4
        )
        sb = Snowboard(config).prepare()
        sb.fleet_fault = FleetFault(
            kill_task_id=2, once_marker=str(tmp_path / "kill.marker")
        )
        campaign = sb.run_campaign("S-INS-PAIR", test_budget=4, workers=2)
        assert campaign.task_failures == 0
        assert campaign.worker_respawns == 1
        assert campaign.task_retries == 1
        assert campaign.summary() == serial.summary()

    def test_missing_result_treated_as_task_failure(self, monkeypatch):
        """A fleet result without an entry for a task (dead worker pool
        edge) must count as a failure, not crash the merge."""
        monkeypatch.setattr(
            Snowboard, "_run_transport_fleet", fleet_stub({0: None, 1: None})
        )
        sb = Snowboard(CONFIG).prepare()
        campaign = sb.run_campaign("S-INS-PAIR", test_budget=2, workers=2)
        assert campaign.task_failures == 2
        assert campaign.tested_pmcs == 2
        assert campaign.trials == 0


class TestIncidentalAdoptionParallel:
    def test_parallel_matches_serial_with_incidental_adoption(self):
        """adopt_incidental_pmcs needs the pair index, which fleet
        workers lack; it is precomputed before dispatch and the universe
        shipped with each task, so parallel campaigns stay bit-identical
        to serial ones."""
        config = SnowboardConfig(
            seed=7,
            corpus_budget=100,
            trials_per_pmc=6,
            max_instructions=40_000,
            adopt_incidental_pmcs=True,
        )
        serial = Snowboard(config).prepare().run_campaign(
            "S-INS-PAIR", test_budget=6
        )
        sb = Snowboard(config).prepare()
        parallel = sb.run_campaign("S-INS-PAIR", test_budget=6, workers=3)
        assert sb._pair_index is not None  # precomputed, not lazily raced
        assert parallel.summary() == serial.summary()


class TestWorkerIsolation:
    def test_fixed_kernel_campaign_raises_no_alarms_in_parallel(self):
        config = SnowboardConfig(
            seed=7,
            corpus_budget=80,
            trials_per_pmc=4,
            max_instructions=40_000,
            fixed_kernel=True,
        )
        sb = Snowboard(config).prepare()
        campaign = sb.run_campaign("S-INS-PAIR", test_budget=5, workers=2)
        assert campaign.bugs_found() == {}

    def test_setup_program_honored_by_workers(self):
        setup = prog(Call("msgget", (3,)))
        config = SnowboardConfig(
            seed=5,
            corpus_budget=60,
            trials_per_pmc=4,
            max_instructions=40_000,
            setup_program=setup,
        )
        serial = Snowboard(config).prepare().run_campaign(
            "S-INS-PAIR", test_budget=4
        )
        parallel = Snowboard(config).prepare().run_campaign(
            "S-INS-PAIR", test_budget=4, workers=2
        )
        assert parallel.summary() == serial.summary()
