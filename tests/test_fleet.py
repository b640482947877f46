"""Multi-process Stage 4: the coordinator/worker fleet and its wire format.

The contract under test is the paper's §4.4.1 distributed queue: tasks
and results cross the process boundary as versioned, fully picklable
envelopes; each worker process boots a private kernel; leases are
reclaimed from dead or wedged workers; and ``--fleet processes`` produces
summaries, reproduction packages and funnel totals bit-identical to
serial — including after SIGKILLing a worker mid-task or killing and
resuming the coordinator itself.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.obs import JsonlSink, Observer
from repro.obs.stats import funnel_totals, load_stats
from repro.orchestrate.fleet import (
    WIRE_VERSION,
    FleetFault,
    ResultEnvelope,
    TaskEnvelope,
    WireFormatError,
    pmc_from_obj,
    pmc_to_obj,
)
from repro.orchestrate.persistence import CheckpointWriter, load_checkpoint
from repro.orchestrate.pipeline import Snowboard, SnowboardConfig, Stage4Task
from repro.orchestrate.queue import TaskFailure
from repro.pmc.model import AccessKey, PMC

CONFIG = SnowboardConfig(
    seed=7,
    corpus_budget=120,
    trials_per_pmc=8,
    max_instructions=40_000,
    # Fast liveness so fault drills (boot kills, mid-task SIGKILLs)
    # are detected in seconds, not the production 10s deadline.  The
    # boot grace stays generous: a spawned interpreter importing the
    # kernel has not beaten yet and must not be declared dead.
    fleet_heartbeat_interval=0.1,
    fleet_heartbeat_timeout=1.5,
    fleet_boot_grace=30.0,
)
STRATEGY = "S-INS-PAIR"
BUDGET = 6
FAULT_BUDGET = 4


class Killed(BaseException):
    """Stands in for SIGKILL of the *coordinator*: nothing may catch it."""


@pytest.fixture(scope="module")
def serial_campaign():
    sb = Snowboard(CONFIG).prepare()
    return sb, sb.run_campaign(STRATEGY, test_budget=BUDGET)


@pytest.fixture(scope="module")
def process_run():
    sb = Snowboard(CONFIG).prepare()
    campaign = sb.run_campaign(
        STRATEGY, test_budget=BUDGET, workers=2, fleet="processes"
    )
    return sb, campaign


@pytest.fixture(scope="module")
def socket_run():
    sb = Snowboard(CONFIG).prepare()
    campaign = sb.run_campaign(
        STRATEGY, test_budget=BUDGET, workers=2, fleet="sockets"
    )
    return sb, campaign


@pytest.fixture(scope="module")
def fault_serial():
    """The undisturbed reference the fault-injection runs must match."""
    sb = Snowboard(CONFIG).prepare()
    return sb.run_campaign(STRATEGY, test_budget=FAULT_BUDGET)


# -- wire format -------------------------------------------------------------------


class TestWireFormat:
    def _sample_task(self, sb) -> Stage4Task:
        tests, _ = sb.generate_tests(STRATEGY, limit=2)
        return Stage4Task(task_id=3, test=tests[0], trials=5)

    def test_pmc_round_trip(self):
        pmc = PMC(
            write=AccessKey(addr=0x1000, size=4, ins=0x40_00, value=7),
            read=AccessKey(addr=0x1000, size=4, ins=0x41_00, value=7),
            df_leader=True,
        )
        assert pmc_from_obj(pmc_to_obj(pmc)) == pmc

    def test_task_envelope_round_trip(self, serial_campaign):
        sb, _ = serial_campaign
        task = self._sample_task(sb)
        envelope = TaskEnvelope.from_task(task)
        decoded = pickle.loads(pickle.dumps(envelope)).to_task()
        assert decoded.task_id == task.task_id
        assert decoded.trials == task.trials
        assert decoded.scheduler_kind == task.scheduler_kind
        assert decoded.test.writer == task.test.writer
        assert decoded.test.reader == task.test.reader
        assert decoded.test.pmc == task.test.pmc

    def test_task_envelope_version_guard(self, serial_campaign):
        sb, _ = serial_campaign
        envelope = TaskEnvelope.from_task(self._sample_task(sb))
        assert envelope.version == WIRE_VERSION
        stale = dataclasses.replace(envelope, version=WIRE_VERSION + 1)
        with pytest.raises(WireFormatError):
            stale.to_task()

    def test_result_envelope_version_guard(self):
        result = ResultEnvelope(
            task_id=0, worker_id=0, status="ok", version=WIRE_VERSION + 1
        )
        with pytest.raises(WireFormatError):
            result.decode()

    def test_universe_travels_with_envelope(self, serial_campaign):
        sb, _ = serial_campaign
        task = self._sample_task(sb)
        universe = [
            PMC(
                write=AccessKey(addr=0x2000, size=8, ins=1, value=0),
                read=AccessKey(addr=0x2000, size=8, ins=2, value=0),
            )
        ]
        envelope = TaskEnvelope.from_task(task, universe=universe)
        shipped = pickle.loads(pickle.dumps(envelope))
        assert shipped.universe_pmcs() == universe
        assert TaskEnvelope.from_task(task).universe_pmcs() is None


# -- queue regressions (the bugs that blocked pickling) ----------------------------


class LocalError(Exception):
    """Module-local, but its *instances* may hold unpicklable payloads."""


class TestQueueRegressions:
    def test_task_failure_is_picklable_with_cause(self):
        try:
            try:
                raise ValueError("root cause")
            except ValueError as inner:
                raise RuntimeError("outer") from inner
        except RuntimeError as error:
            failure = TaskFailure.from_exception(7, error, attempts=2)
        clone = pickle.loads(pickle.dumps(failure))
        assert clone == failure
        assert clone.error_type == "RuntimeError"
        assert clone.cause_type == "ValueError"
        assert "root cause" in clone.cause_message
        rebuilt = clone.error
        assert isinstance(rebuilt, RuntimeError)
        assert isinstance(rebuilt.__cause__, ValueError)

    def test_task_failure_survives_unpicklable_exception(self):
        error = LocalError("boom")
        error.payload = lambda: None  # a pickle-hostile attribute
        failure = TaskFailure.from_exception(1, error)
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.error_type == "LocalError"
        assert "boom" in clone.message
        # Non-builtin types rebuild as RuntimeError — the record, not the
        # class, is the contract.
        assert isinstance(clone.error, RuntimeError)


# -- golden equivalence: serial == processes == sockets ----------------------------


class TestProcessSerialEquivalence:
    def test_identical_summaries(self, serial_campaign, process_run):
        _, serial = serial_campaign
        _, process = process_run
        assert process.summary() == serial.summary()

    def test_no_failures_and_workers_recorded(self, process_run):
        _, campaign = process_run
        assert campaign.workers == 2
        assert campaign.task_failures == 0

    def test_identical_repro_packages(self, serial_campaign, process_run):
        sb_serial, _ = serial_campaign
        sb_process, _ = process_run
        assert set(sb_process.repro_packages) == set(sb_serial.repro_packages)
        for bug_id, package in sb_serial.repro_packages.items():
            assert sb_process.repro_packages[bug_id].to_json() == package.to_json()

    def test_socket_fleet_identical_summary(self, serial_campaign, socket_run):
        _, serial = serial_campaign
        _, socketc = socket_run
        assert socketc.summary() == serial.summary()
        assert socketc.workers == 2
        assert socketc.task_failures == 0

    def test_socket_fleet_identical_repro_packages(
        self, serial_campaign, socket_run
    ):
        sb_serial, _ = serial_campaign
        sb_socket, _ = socket_run
        assert set(sb_socket.repro_packages) == set(sb_serial.repro_packages)
        for bug_id, package in sb_serial.repro_packages.items():
            assert sb_socket.repro_packages[bug_id].to_json() == package.to_json()

    def test_traced_funnels_identical_across_fleets(self, tmp_path):
        """Worker obs buffers replay in task order: serial, process- and
        socket-fleet traces produce identical funnel totals, and tracing
        changes no campaign's summary."""
        totals = {}
        summaries = {}
        for fleet in ("serial", "processes", "sockets"):
            path = str(tmp_path / f"{fleet}.jsonl")
            obs = Observer(JsonlSink(path))
            sb = Snowboard(CONFIG, observer=obs).prepare()
            if fleet == "serial":
                campaign = sb.run_campaign(STRATEGY, test_budget=FAULT_BUDGET)
            else:
                campaign = sb.run_campaign(
                    STRATEGY, test_budget=FAULT_BUDGET, workers=2, fleet=fleet
                )
            obs.close()
            totals[fleet] = funnel_totals(load_stats(path))
            summaries[fleet] = campaign.summary()
        assert totals["processes"] == totals["serial"]
        assert totals["sockets"] == totals["serial"]
        assert summaries["processes"] == summaries["serial"]
        assert summaries["sockets"] == summaries["serial"]

    @pytest.mark.parametrize("fleet", ["processes", "sockets"])
    def test_rounds_campaign_identical(self, fleet):
        serial = Snowboard(CONFIG)
        serial_result = serial.run_rounds(
            2, round_budget=3, strategy=STRATEGY, corpus_growth=40
        )
        parallel = Snowboard(CONFIG)
        fleet_result = parallel.run_rounds(
            2,
            round_budget=3,
            strategy=STRATEGY,
            corpus_growth=40,
            workers=2,
            fleet=fleet,
        )
        assert fleet_result.summary() == serial_result.summary()


# -- fault injection across the process boundary -----------------------------------


class TestFleetFaults:
    def test_sigkilled_worker_is_respawned_bit_identical(
        self, fault_serial, tmp_path
    ):
        """A worker SIGKILLs itself mid-task: the lease is reclaimed, the
        worker respawned, and the campaign is bit-identical to serial."""
        sb = Snowboard(CONFIG).prepare()
        sb.fleet_fault = FleetFault(
            kill_task_id=1, once_marker=str(tmp_path / "kill.marker")
        )
        campaign = sb.run_campaign(
            STRATEGY, test_budget=FAULT_BUDGET, workers=2, fleet="processes"
        )
        assert campaign.task_failures == 0
        assert campaign.worker_respawns == 1
        assert campaign.task_retries == 1
        assert campaign.summary() == fault_serial.summary()

    def test_wedged_worker_lease_expires(self, fault_serial, tmp_path):
        """A worker hangs without dying: the lease deadline passes, the
        coordinator kills and respawns it, results stay bit-identical."""
        config = dataclasses.replace(CONFIG, fleet_lease_timeout=1.5)
        sb = Snowboard(config).prepare()
        sb.fleet_fault = FleetFault(
            hang_task_id=2, once_marker=str(tmp_path / "hang.marker")
        )
        campaign = sb.run_campaign(
            STRATEGY, test_budget=FAULT_BUDGET, workers=2, fleet="processes"
        )
        assert campaign.task_failures == 0
        assert campaign.worker_respawns == 1
        assert campaign.summary() == fault_serial.summary()

    def test_sigkilled_socket_worker_reclaimed_via_heartbeat(
        self, fault_serial, tmp_path
    ):
        """A socket worker SIGKILLs itself mid-task.  There is no local
        process handle and no exitcode — the coordinator notices purely
        through the missed heartbeat deadline, reclaims the lease, and
        the respawned worker converges bit-identical to serial."""
        sb = Snowboard(CONFIG).prepare()
        sb.fleet_fault = FleetFault(
            kill_task_id=1, once_marker=str(tmp_path / "kill.marker")
        )
        campaign = sb.run_campaign(
            STRATEGY, test_budget=FAULT_BUDGET, workers=2, fleet="sockets"
        )
        assert campaign.task_failures == 0
        assert campaign.worker_respawns == 1
        assert campaign.task_retries == 1
        assert sum(s.heartbeats_missed for s in campaign.worker_stats) == 1
        assert campaign.summary() == fault_serial.summary()

    def test_boot_death_exhausts_pool_without_hanging(self):
        """Every spawn dies at boot: the respawn budget burns down and
        every task surfaces as a failure — no hang, no missing result."""
        sb = Snowboard(CONFIG).prepare()
        sb.fleet_fault = FleetFault(kill_at_boot=True)
        campaign = sb.run_campaign(
            STRATEGY, test_budget=3, workers=2, fleet="processes"
        )
        assert campaign.task_failures == 3
        assert campaign.tested_pmcs == 3
        assert campaign.bugs_found() == {}
        assert campaign.worker_respawns > 0


# -- coordinator kill-and-resume ---------------------------------------------------


class TestCoordinatorKillAndResume:
    def test_kill_mid_merge_then_resume_with_process_fleet(
        self, serial_campaign, tmp_path
    ):
        """The coordinator dies while journalling fleet results; a fresh
        coordinator resumes the journal onto a fresh process fleet and
        lands bit-identical to the uninterrupted serial run."""
        _, uninterrupted = serial_campaign
        path = str(tmp_path / "journal.jsonl")
        original = CheckpointWriter.task_done
        calls = {"n": 0}

        def dying(self, *args, **kwargs):
            if calls["n"] >= 3:
                raise Killed()
            calls["n"] += 1
            return original(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CheckpointWriter, "task_done", dying)
            sb = Snowboard(CONFIG).prepare()
            with pytest.raises(Killed):
                sb.run_campaign(
                    STRATEGY,
                    test_budget=BUDGET,
                    workers=2,
                    fleet="processes",
                    checkpoint_path=path,
                )
        _, tasks = load_checkpoint(path)
        assert len(tasks) == 3  # the journal stops at the kill point

        # Resume under a *different* fleet kind: the journal is fleet-
        # blind, so a campaign checkpointed under processes restarts on
        # a socket fleet and still lands bit-identical.
        sb2 = Snowboard(CONFIG).prepare()
        resumed = sb2.run_campaign(
            STRATEGY,
            test_budget=BUDGET,
            workers=2,
            fleet="sockets",
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.summary() == uninterrupted.summary()
        _, tasks = load_checkpoint(path)
        assert [t["task_id"] for t in tasks] == list(range(BUDGET))

    def test_fsynced_journal_resumes_identically(self, serial_campaign, tmp_path):
        """--checkpoint-fsync changes durability, never results."""
        _, uninterrupted = serial_campaign
        path = str(tmp_path / "journal.jsonl")
        sb = Snowboard(CONFIG).prepare()
        campaign = sb.run_campaign(
            STRATEGY,
            test_budget=BUDGET,
            checkpoint_path=path,
            checkpoint_fsync=True,
        )
        assert campaign.summary() == uninterrupted.summary()
        resumed = Snowboard(CONFIG).prepare().run_campaign(
            STRATEGY,
            test_budget=BUDGET,
            checkpoint_path=path,
            resume=True,
            checkpoint_fsync=True,
        )
        assert resumed.summary() == uninterrupted.summary()
