"""Focused tests for pipeline internals and scheduler selection."""

import dataclasses

import pytest

from repro.orchestrate.fleet import TaskEnvelope, WorkerSpec, _execute_envelope
from repro.orchestrate.pipeline import (
    ConcurrentTest,
    Snowboard,
    SnowboardConfig,
    build_scheduler,
)
from repro.orchestrate.queue import TaskFailure
from repro.sched.random_sched import RandomScheduler
from repro.sched.ski import SkiScheduler
from repro.sched.snowboard import SnowboardScheduler
from tests.test_transport import StubTransport, hello, make_coordinator


@pytest.fixture(scope="module")
def sb():
    return Snowboard(
        SnowboardConfig(seed=3, corpus_budget=80, trials_per_pmc=4)
    ).prepare()


class TestSchedulerSelection:
    def _one_test(self, sb):
        tests, _ = sb.generate_tests("S-INS-PAIR", limit=1)
        return tests[0]

    def test_default_is_snowboard(self, sb):
        scheduler = sb.make_scheduler(self._one_test(sb), seed=0)
        assert isinstance(scheduler, SnowboardScheduler)

    def test_ski_kind(self, sb):
        scheduler = sb.make_scheduler(self._one_test(sb), seed=0, kind="ski")
        assert isinstance(scheduler, SkiScheduler)

    def test_random_kind(self, sb):
        scheduler = sb.make_scheduler(self._one_test(sb), seed=0, kind="random")
        assert isinstance(scheduler, RandomScheduler)

    def test_unknown_kind_rejected(self, sb):
        with pytest.raises(ValueError, match="unknown scheduler kind"):
            build_scheduler(sb.config, self._one_test(sb), seed=0, kind="nope")

    def test_baseline_tests_get_random_scheduler(self, sb):
        from repro.orchestrate.pipeline import RANDOM_PAIRING

        tests, _ = sb.generate_tests(RANDOM_PAIRING, limit=1)
        scheduler = sb.make_scheduler(tests[0], seed=0)
        assert isinstance(scheduler, RandomScheduler)

    def test_incidental_universe_respects_config(self):
        config = SnowboardConfig(
            seed=3, corpus_budget=80, trials_per_pmc=4, adopt_incidental_pmcs=True
        )
        snowboard = Snowboard(config).prepare()
        tests, _ = snowboard.generate_tests("S-INS-PAIR", limit=1)
        scheduler = snowboard.make_scheduler(tests[0], seed=0)
        assert scheduler.universe  # populated from the pair index


class TestPairIndex:
    def test_pmcs_for_pair_consistent_with_pmcset(self, sb):
        pmc = sb.pmcset.all_pmcs()[0]
        pair = sb.pmcset.pairs(pmc)[0]
        assert pmc in sb._pmcs_for_pair(pair)

    def test_unknown_pair_is_empty(self, sb):
        assert sb._pmcs_for_pair((9999, 9998)) == []


class TestTestsFromExemplars:
    def test_respects_exemplar_order(self, sb):
        exemplars = sb.pmcset.all_pmcs()[:5]
        tests = sb.tests_from_exemplars(exemplars)
        assert [t.pmc for t in tests] == exemplars

    def test_pairs_come_from_pmcset(self, sb):
        exemplars = sb.pmcset.all_pmcs()[:5]
        for test in sb.tests_from_exemplars(exemplars):
            assert (test.writer_test, test.reader_test) in sb.pmcset.pairs(test.pmc)

    def test_duplicate_flag(self, sb):
        test = ConcurrentTest(
            writer=sb.corpus.entries[0].program,
            reader=sb.corpus.entries[0].program,
            writer_test=0,
            reader_test=0,
        )
        assert test.duplicate


class TestQueueRobustness:
    def test_worker_survives_task_exception(self, sb):
        """A task that raises inside the fleet worker body comes back as
        a task error, not an exception: the worker serves the tasks after
        it, and the coordinator strands none of them."""
        tests, _ = sb.generate_tests("S-INS-PAIR", limit=5)
        envelopes = [
            TaskEnvelope.from_task(sb._task(i, test, "snowboard", 2))
            for i, test in enumerate(tests)
        ]
        # An unknown scheduler kind makes the worker's build_scheduler raise.
        envelopes[2] = dataclasses.replace(envelopes[2], scheduler_kind="nope")
        spec = WorkerSpec(config=sb.config)

        def run_in_worker(handle, envelope):
            handle.emit(
                _execute_envelope(
                    sb.executor, spec, handle.worker_id, envelope, handle.generation
                )
            )

        transport = StubTransport([{"on_spawn": hello, "on_task": run_in_worker}])
        # Stub workers run tasks inline and never beat: a generous
        # heartbeat deadline keeps real trials from looking like deaths.
        coordinator = make_coordinator(
            transport, nworkers=2, max_task_retries=0, heartbeat_timeout=60.0
        )
        results = coordinator.run(envelopes)
        assert len(results) == 5  # nothing stranded
        for i in (0, 1, 3, 4):
            assert results[i].status == "ok"
            assert len(results[i].decode()[0]) == 2  # both trials ran
        # Failures arrive wrapped, so a task legitimately *returning* an
        # exception object stays distinguishable from a worker crash.
        assert isinstance(results[2], TaskFailure)
        assert results[2].task_id == 2
        assert isinstance(results[2].error, ValueError)
        assert "unknown scheduler kind" in results[2].message
        assert sum(s.tasks_done for s in coordinator.worker_stats) == 4
        assert sum(s.respawns for s in coordinator.worker_stats) == 0


class TestIterativeCampaign:
    def test_runs_strategies_in_order_without_repeats(self, sb):
        campaign = sb.run_iterative_campaign(
            ["S-INS-PAIR", "S-CH-NULL"], test_budget=12, trials=4
        )
        assert campaign.strategy == "S-INS-PAIR -> S-CH-NULL"
        assert campaign.tested_pmcs == 12
        assert campaign.trials >= 12

    def test_single_strategy_matches_plain_selection_size(self, sb):
        campaign = sb.run_iterative_campaign(["S-INS"], test_budget=6, trials=2)
        assert campaign.tested_pmcs == 6

    def test_unknown_strategy_rejected(self, sb):
        with pytest.raises(KeyError):
            sb.run_iterative_campaign(["NOT-A-STRATEGY"], test_budget=3)
