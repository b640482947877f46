"""Tests for the orchestration layer: task queue, results, pipeline."""

from typing import List

import pytest

from repro.detect.report import observe
from repro.orchestrate.fleet import ResultEnvelope
from repro.orchestrate.pipeline import (
    DUPLICATE_PAIRING,
    RANDOM_PAIRING,
    RANDOM_S_INS_PAIR,
    Snowboard,
    SnowboardConfig,
)
from repro.orchestrate.queue import TaskFailure
from repro.orchestrate.results import CampaignResult
from repro.sched.executor import ExecutionResult
from tests.test_transport import (
    StubTransport,
    answer,
    boot_fails,
    hello,
    make_coordinator,
    make_envelope,
)


class TestWorkQueue:
    """The coordinator's task queue, driven through scripted stub
    workers: every task gets exactly one result, and a task that raises
    never takes the rest of the queue down with it."""

    def test_fifo_results(self):
        def double(handle, envelope):
            handle.emit(
                ResultEnvelope(
                    task_id=envelope.task_id,
                    worker_id=handle.worker_id,
                    status="ok",
                    message=str(envelope.task_id * 2),
                    generation=handle.generation,
                )
            )

        transport = StubTransport([{"on_spawn": hello, "on_task": double}])
        coordinator = make_coordinator(transport, nworkers=3)
        results = coordinator.run([make_envelope(i) for i in range(10)])
        assert {i: int(r.message) for i, r in results.items()} == {
            i: i * 2 for i in range(10)
        }

    def test_worker_factory_called_per_worker(self):
        transport = StubTransport([{"on_spawn": hello, "on_task": answer({}, [])}])
        coordinator = make_coordinator(transport, nworkers=4)
        coordinator.run([make_envelope(0)])
        assert [h.worker_id for h in transport.spawned] == [0, 1, 2, 3]

    def test_empty_queue_completes(self):
        transport = StubTransport([{"on_spawn": hello}])
        assert make_coordinator(transport, nworkers=2).run([]) == {}
        assert transport.closed

    def test_worker_exception_wrapped_as_task_failure(self):
        # A raising task comes back as a TaskFailure record, so it stays
        # distinguishable from a result the worker returned.
        calls: List[int] = []
        transport = StubTransport(
            [{"on_spawn": hello, "on_task": answer({1: 1}, calls)}]
        )
        coordinator = make_coordinator(transport, nworkers=2, max_task_retries=0)
        results = coordinator.run([make_envelope(0), make_envelope(1)])

        assert isinstance(results[0], ResultEnvelope)  # not wrapped
        assert results[0].status == "ok"
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.task_id == 1
        assert isinstance(failure.error, RuntimeError)

    def test_failure_does_not_strand_queue(self):
        calls: List[int] = []
        odd_tasks_crash = {i: 99 for i in range(1, 8, 2)}
        transport = StubTransport(
            [{"on_spawn": hello, "on_task": answer(odd_tasks_crash, calls)}]
        )
        coordinator = make_coordinator(transport, nworkers=3)
        results = coordinator.run([make_envelope(i) for i in range(8)])
        assert len(results) == 8
        assert sum(isinstance(r, TaskFailure) for r in results.values()) == 4
        assert all(results[i].status == "ok" for i in range(0, 8, 2))


class TestWorkerFaultTolerance:
    def test_task_retry_recovers_transient_failure(self):
        calls: List[int] = []
        each_fails_once = {i: 1 for i in range(4)}
        transport = StubTransport(
            [{"on_spawn": hello, "on_task": answer(each_fails_once, calls)}]
        )
        coordinator = make_coordinator(transport, nworkers=2, max_task_retries=1)
        results = coordinator.run([make_envelope(i) for i in range(4)])
        assert all(results[i].status == "ok" for i in range(4))
        assert sorted(calls) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert sum(s.retries for s in coordinator.worker_stats) == 4
        assert all(not s.failed for s in coordinator.worker_stats)

    def test_retry_budget_exhausted_records_attempts(self):
        calls: List[int] = []
        transport = StubTransport(
            [{"on_spawn": hello, "on_task": answer({0: 99}, calls)}]
        )
        coordinator = make_coordinator(transport, max_task_retries=2)
        results = coordinator.run([make_envelope(0)])
        failure = results[0]
        assert isinstance(failure, TaskFailure)
        assert failure.attempts == 3  # 1 initial + 2 retries
        assert sum(s.retries for s in coordinator.worker_stats) == 2

    def test_base_exception_respawns_worker_and_retries(self):
        """Generation 1 serves task 0, then dies on task 1 without a
        word; the coordinator reclaims the lease at the heartbeat
        deadline and the respawned worker re-runs only task 1."""

        def ok(handle, envelope):
            handle.emit(
                ResultEnvelope(
                    task_id=envelope.task_id,
                    worker_id=handle.worker_id,
                    status="ok",
                    generation=handle.generation,
                )
            )

        def dies_on_task_1(handle, envelope):
            if envelope.task_id != 1:
                ok(handle, envelope)

        transport = StubTransport(
            [
                {"on_spawn": hello, "on_task": dies_on_task_1},
                {"on_spawn": hello, "on_task": ok},
            ]
        )
        coordinator = make_coordinator(
            transport, max_task_retries=1, max_worker_respawns=2
        )
        results = coordinator.run([make_envelope(0), make_envelope(1)])
        assert results[0].status == "ok" and results[0].generation == 1
        assert results[1].status == "ok" and results[1].generation == 2
        assert len(transport.spawned) == 2  # original boot + one respawn
        stats = coordinator.worker_stats[0]
        assert stats.respawns == 1
        assert stats.retries == 1
        assert stats.tasks_done == 2
        assert not stats.failed

    def test_all_factories_crash_drains_every_task(self):
        transport = StubTransport([{"on_spawn": boot_fails}])
        coordinator = make_coordinator(
            transport, nworkers=3, max_worker_respawns=1
        )
        results = coordinator.run([make_envelope(i) for i in range(6)])
        assert len(results) == 6  # no missing keys, no hang
        for i in range(6):
            failure = results[i]
            assert isinstance(failure, TaskFailure)
            assert "worker pool exhausted" in str(failure.error)
            assert failure.cause_message == "boot failed: RuntimeError: kernel boot failed"
        # The first three tasks were leased to the booting workers and
        # reclaimed once each; the rest never ran.
        assert [results[i].attempts for i in range(6)] == [1, 1, 1, 0, 0, 0]
        assert all(s.failed for s in coordinator.worker_stats)
        assert all(s.respawns == 2 for s in coordinator.worker_stats)  # 1 + 1 respawn
        assert all(s.tasks_done == 0 for s in coordinator.worker_stats)

    def test_worker_stats_count_tasks_done(self):
        calls: List[int] = []
        transport = StubTransport(
            [{"on_spawn": hello, "on_task": answer({}, calls)}]
        )
        coordinator = make_coordinator(transport, nworkers=3)
        coordinator.run([make_envelope(i) for i in range(10)])
        assert sorted(calls) == list(range(10))
        assert sum(s.tasks_done for s in coordinator.worker_stats) == 10
        assert sum(s.retries for s in coordinator.worker_stats) == 0
        assert sum(s.respawns for s in coordinator.worker_stats) == 0


class TestCampaignResult:
    def _result_with_console(self, line):
        result = ExecutionResult()
        result.console = [line]
        return result

    def test_deduplicates_across_trials(self):
        campaign = CampaignResult(strategy="t")
        obs = observe(self._result_with_console("EXT4-fs error: x: checksum invalid"))
        first = campaign.record_observations(obs, test_index=0, trial=0)
        second = campaign.record_observations(obs, test_index=1, trial=0)
        assert len(first) == 1
        assert second == []

    def test_bug_matching_and_first_find(self):
        campaign = CampaignResult(strategy="t")
        line = (
            "EXT4-fs error (device sda): swap_inode_boot_loader:1: "
            "comm test: checksum invalid"
        )
        campaign.record_observations(
            observe(self._result_with_console(line)), test_index=7, trial=3
        )
        assert campaign.bugs_found() == {"SB02": 7}
        assert campaign.distinct_bugs == 1

    def test_accuracy(self):
        campaign = CampaignResult(strategy="t")
        campaign.tested_pmcs = 10
        campaign.exercised_pmcs = 3
        assert campaign.accuracy == pytest.approx(0.3)

    def test_accuracy_empty(self):
        assert CampaignResult(strategy="t").accuracy == 0.0

    def test_table_row_and_summary(self):
        campaign = CampaignResult(strategy="S-CH", exemplar_pmcs=5)
        campaign.tested_pmcs = 3
        row = campaign.table_row()
        assert "S-CH" in row and "5" in row and "3" in row
        summary = campaign.summary()
        assert summary["strategy"] == "S-CH"
        assert summary["bugs"] == {}


class TestObservationSerialisation:
    def _roundtrip(self, obs):
        import json

        from repro.detect.report import observation_from_obj, observation_to_obj
        from repro.orchestrate.results import (
            ObservationRecord,
            record_from_obj,
            record_to_obj,
        )

        obj = observation_to_obj(obs)
        assert json.loads(json.dumps(obj)) == obj  # JSON-safe
        restored = observation_from_obj(obj)
        assert restored == obs
        assert restored.key == obs.key
        record = ObservationRecord(observation=obs, test_index=3, trial=2)
        back = record_from_obj(record_to_obj(record))
        assert back.observation == obs
        assert back.test_index == 3 and back.trial == 2

    def test_race_observation_roundtrip(self):
        from repro.detect.datarace import RaceReport
        from repro.detect.report import BugObservation

        race = RaceReport(
            ins_a="net.py:ioctl_set_mac:3",
            ins_b="net.py:ioctl_get_mac:1",
            type_a="write",
            type_b="read",
            addr=0x1000,
            size=8,
            value_a=0xAB,
            value_b=0xCD,
            thread_a=0,
            thread_b=1,
        )
        self._roundtrip(BugObservation(kind="race", race=race))

    def test_console_observation_roundtrip(self):
        from repro.detect.console import ConsoleFinding
        from repro.detect.report import BugObservation

        finding = ConsoleFinding(kind="panic", line="BUG: NULL deref at rht_ptr")
        self._roundtrip(BugObservation(kind="console", console=finding))

    def test_deadlock_observation_roundtrip(self):
        from repro.detect.report import BugObservation

        self._roundtrip(BugObservation(kind="deadlock", detail="all threads stuck"))


@pytest.fixture(scope="module")
def small_snowboard():
    config = SnowboardConfig(
        seed=7, corpus_budget=120, trials_per_pmc=8, max_instructions=40_000
    )
    return Snowboard(config).prepare()


class TestPipeline:
    def test_prepare_builds_all_stages(self, small_snowboard):
        sb = small_snowboard
        assert len(sb.corpus) > 10
        assert len(sb.profiles) == len(sb.corpus)
        assert len(sb.pmcset) > 100

    def test_prepare_is_idempotent(self, small_snowboard):
        pmcs_before = len(small_snowboard.pmcset)
        small_snowboard.prepare()
        assert len(small_snowboard.pmcset) == pmcs_before

    def test_generate_tests_all_strategies(self, small_snowboard):
        for name in ("S-FULL", "S-CH", "S-INS", "S-INS-PAIR", "S-MEM"):
            tests, nclusters = small_snowboard.generate_tests(name, limit=10)
            assert nclusters > 0
            assert 0 < len(tests) <= 10
            for test in tests:
                assert test.pmc is not None

    def test_generate_random_pairing_baseline(self, small_snowboard):
        tests, nclusters = small_snowboard.generate_tests(RANDOM_PAIRING, limit=20)
        assert nclusters == 0
        assert len(tests) == 20
        assert all(t.pmc is None for t in tests)

    def test_generate_duplicate_pairing_is_duplicate(self, small_snowboard):
        tests, _ = small_snowboard.generate_tests(DUPLICATE_PAIRING, limit=20)
        assert all(t.duplicate for t in tests)

    def test_random_s_ins_pair_same_clusters_other_order(self, small_snowboard):
        ordered, n1 = small_snowboard.generate_tests("S-INS-PAIR")
        shuffled, n2 = small_snowboard.generate_tests(RANDOM_S_INS_PAIR)
        assert n1 == n2
        assert len(ordered) == len(shuffled)

    def test_campaign_records_metrics(self, small_snowboard):
        campaign = small_snowboard.run_campaign("S-INS-PAIR", test_budget=10)
        assert campaign.tested_pmcs == 10
        assert campaign.trials >= 10
        assert campaign.instructions > 0
        assert 0 <= campaign.exercised_pmcs <= campaign.tested_pmcs

    def test_campaign_determinism(self):
        config = SnowboardConfig(seed=3, corpus_budget=60, trials_per_pmc=4)
        a = Snowboard(config).prepare().run_campaign("S-INS", test_budget=5)
        b = Snowboard(config).prepare().run_campaign("S-INS", test_budget=5)
        assert a.summary() == b.summary()

    def test_uncommon_first_means_smallest_clusters_lead(self, small_snowboard):
        from repro.pmc.clustering import STRATEGIES_BY_NAME
        from repro.pmc.selection import cluster_pmcs

        tests, _ = small_snowboard.generate_tests("S-INS-PAIR", limit=50)
        strategy = STRATEGIES_BY_NAME["S-INS-PAIR"]
        clusters = cluster_pmcs(small_snowboard.pmcset.all_pmcs(), strategy)
        sizes_by_key = {key: len(v) for key, v in clusters.items()}

        def size_of(test):
            (key,) = strategy.cluster_keys(test.pmc)
            return sizes_by_key[key]

        sizes = [size_of(t) for t in tests]
        assert sizes == sorted(sizes)
