"""The multi-tenant campaign service (engine layer, in-process).

Contracts pinned here:

* **Solo equivalence** — N jobs interleaved round-robin through
  :class:`CampaignService` each produce a summary, funnel totals and
  reproduction packages bit-identical to the same spec run solo through
  ``run_rounds(spec.rounds)`` — including jobs on the multi-process
  and socket fleets (the latter with every per-job fleet knob set).
* **Restart recovery** — abandon the service mid-campaign (stand-in for
  SIGKILL: no close, no flush beyond the journals' own discipline),
  reopen the same data directory, and every job resumes to the same
  bit-identical summary; jobs that owned a turn come back ``pending``.
* The job state machine rejects illegal edges, pause/resume/cancel act
  at round boundaries, and snapshot/fork spawn children that continue
  the parent's campaign bit-identically.
* The registry journal replays across reopen, tolerates a torn tail,
  and refuses records that fail their digest check.
"""

from __future__ import annotations

import builtins
import json
import os

import pytest

from repro.obs import JsonlSink, Observer
from repro.obs.stats import funnel_totals, load_stats
from repro.orchestrate.persistence import record_digest
from repro.orchestrate.pipeline import Snowboard
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    PAUSED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
    CampaignJob,
    FairScheduler,
    InvalidTransition,
    JobRegistry,
    JobSpec,
    RegistryError,
)
from repro.service.daemon import CampaignService, ServiceError
from repro.service.runner import JobRunner

BASE = dict(
    rounds=2,
    round_budget=5,
    seed=11,
    corpus_budget=60,
    trials=4,
    max_instructions=40_000,
)
SPECS = {
    "alice": dict(BASE),
    "bob": dict(BASE, seed=13, rounds=3),
    "carol": dict(BASE, seed=17, workers=2, fleet="processes"),
    # Socket fleet with every per-job fleet knob set: the knobs are
    # tuning only, so dana must stay bit-identical to her solo run too.
    "dana": dict(
        BASE,
        seed=19,
        workers=2,
        fleet="sockets",
        lease_timeout=60.0,
        heartbeat_interval=0.1,
        heartbeat_timeout=5.0,
    ),
}


def run_solo(spec_obj, trace_path=None):
    """The reference: the same spec through one ``run_rounds`` call."""
    spec = JobSpec.from_obj(spec_obj)
    observer = None
    if trace_path is not None:
        observer = Observer(JsonlSink(trace_path, header={"solo": True}))
    snowboard = Snowboard(spec.config(), observer=observer)
    result = snowboard.run_rounds(
        spec.rounds,
        round_budget=spec.round_budget,
        strategy=spec.strategy,
        scheduler_kind=spec.scheduler_kind,
        trials=spec.trials,
        workers=spec.workers,
        corpus_growth=spec.growth(),
        fleet=spec.fleet,
    )
    if observer is not None:
        observer.close()
    return snowboard, result


def drain(service, max_turns=100):
    turns = 0
    while any(j["state"] not in TERMINAL_STATES for j in service.jobs()):
        assert service.run_turn(timeout=0.1), "queue empty with live jobs"
        turns += 1
        assert turns < max_turns, "service failed to converge"
    return turns


@pytest.fixture(scope="module")
def solo(tmp_path_factory):
    """Reference summaries/packages/funnels for every tenant's spec."""
    root = tmp_path_factory.mktemp("solo")
    out = {}
    for tenant, spec_obj in SPECS.items():
        trace = str(root / f"{tenant}.jsonl")
        snowboard, result = run_solo(spec_obj, trace)
        out[tenant] = {
            "summary": result.summary(),
            "packages": {
                bug: json.loads(pkg.to_json())
                for bug, pkg in snowboard.repro_packages.items()
            },
            "funnel": funnel_totals(load_stats(trace)),
        }
    return out


@pytest.fixture(scope="module")
def interleaved(tmp_path_factory, solo):
    """One service interleaving every tenant's job to completion."""
    root = str(tmp_path_factory.mktemp("service"))
    service = CampaignService(root)
    ids = {t: service.submit(t, s)["job_id"] for t, s in SPECS.items()}
    drain(service)
    yield service, ids, root
    service.stop()


class TestJobSpec:
    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown JobSpec fields"):
            JobSpec.from_obj({"rounds": 1, "budget": 9})

    @pytest.mark.parametrize(
        "bad",
        [
            {"rounds": 0},
            {"round_budget": 0},
            {"trials": 0},
            {"workers": 0},
            {"fleet": "boats"},
            {"fleet": "processes", "workers": 1},
            {"fleet": "sockets", "workers": 1},
            {"lease_timeout": 0},
            {"heartbeat_interval": 0.0},
            {"heartbeat_timeout": -1.0},
            {"strategy": "bogus"},
            {"scheduler_kind": "nope"},
            # Mistyped fields: before types were checked each of these
            # was accepted, then failed mid-turn or ran misread.
            {"trials": 2.5},
            {"seed": "abc"},
            {"round_budget": 1.5},
            {"rounds": True},
            {"prefix_fork": "no"},
            {"corpus_budget": -5},
            {"seed": None},
            {"strategy": 7},
            {"lease_timeout": True},
        ],
    )
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ValueError):
            JobSpec.from_obj(bad)

    def test_accepts_integer_timeouts_and_unset_options(self):
        spec = JobSpec.from_obj(
            {"lease_timeout": 60, "corpus_growth": None, "fleet": None}
        )
        assert spec.config().fleet_lease_timeout == 60

    def test_growth_matches_run_rounds_default(self):
        # run_rounds defaults growth to half the corpus budget; the spec
        # must resolve identically or stepped campaigns diverge.
        assert JobSpec(corpus_budget=60).growth() == 30
        assert JobSpec(corpus_budget=1).growth() == 1
        assert JobSpec(corpus_growth=7).growth() == 7

    def test_roundtrips_through_obj(self):
        for tenant in ("carol", "dana"):
            spec = JobSpec.from_obj(SPECS[tenant])
            assert JobSpec.from_obj(spec.to_obj()) == spec

    def test_fleet_knobs_reach_pipeline_config(self):
        config = JobSpec.from_obj(SPECS["dana"]).config()
        assert config.fleet_lease_timeout == 60.0
        assert config.fleet_heartbeat_interval == 0.1
        assert config.fleet_heartbeat_timeout == 5.0

    def test_extended_only_grows(self):
        spec = JobSpec(rounds=3)
        assert spec.extended(5).rounds == 5
        with pytest.raises(ValueError, match="below parent target"):
            spec.extended(2)


class TestStateMachine:
    def job(self):
        return CampaignJob(job_id="job-0001", tenant="t", spec=JobSpec())

    def test_happy_path(self):
        job = self.job()
        for state in (RUNNING, PAUSED, PENDING, RUNNING, DONE):
            job.transition(state)
        assert job.terminal

    def test_terminal_states_are_final(self):
        job = self.job()
        job.transition(CANCELLED)
        with pytest.raises(InvalidTransition):
            job.transition(PENDING)

    def test_pending_cannot_finish_directly(self):
        with pytest.raises(InvalidTransition):
            self.job().transition(DONE)


class TestFairScheduler:
    def test_fifo_rotation(self):
        sched = FairScheduler()
        for job_id in ("a", "b", "c"):
            sched.enqueue(job_id)
        assert sched.next_turn(0) == "a"
        sched.enqueue("a")  # back of the line after its round
        assert [sched.next_turn(0) for _ in range(3)] == ["b", "c", "a"]

    def test_enqueue_is_idempotent(self):
        sched = FairScheduler()
        sched.enqueue("a")
        sched.enqueue("a")
        assert len(sched) == 1

    def test_dequeue_and_empty_timeout(self):
        sched = FairScheduler()
        sched.enqueue("a")
        sched.dequeue("a")
        assert "a" not in sched
        assert sched.next_turn(0) is None


class TestInterleavedEqualsSolo:
    def test_all_jobs_finish(self, interleaved):
        service, ids, _ = interleaved
        for job in service.jobs():
            assert job["state"] == DONE
            assert job["rounds_done"] == job["spec"]["rounds"]

    @pytest.mark.parametrize("tenant", sorted(SPECS))
    def test_summary_bit_identical(self, interleaved, solo, tenant):
        service, ids, _ = interleaved
        assert service.summary(ids[tenant]) == solo[tenant]["summary"]

    @pytest.mark.parametrize("tenant", sorted(SPECS))
    def test_packages_bit_identical(self, interleaved, solo, tenant):
        service, ids, _ = interleaved
        assert service.packages(ids[tenant]) == solo[tenant]["packages"]

    @pytest.mark.parametrize("tenant", sorted(SPECS))
    def test_funnel_totals_match_solo(self, interleaved, solo, tenant):
        # No restarts in this fixture, so the per-job trace carries the
        # full uninterrupted funnel — it must match the solo campaign's.
        service, ids, _ = interleaved
        stats = load_stats(service.registry.trace_path(ids[tenant]))
        assert funnel_totals(stats) == solo[tenant]["funnel"]

    def test_persisted_summary_file_matches_api(self, interleaved):
        service, ids, _ = interleaved
        path = service.registry.summary_path(ids["alice"])
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == service.summary(ids["alice"])

    def test_trace_streams_complete_lines(self, interleaved):
        service, ids, _ = interleaved
        offset, lines, chunks = 0, [], 0
        while True:
            offset, chunk = service.trace(ids["alice"], offset, limit=7)
            if not chunk:
                break
            chunks += 1
            lines.extend(chunk)
        assert chunks > 1  # offset-resumed streaming actually paged
        records = [json.loads(line) for line in lines]
        assert records[0]["kind"] == "header"
        assert records[0]["job_id"] == ids["alice"]
        assert any(r["kind"] == "metrics" for r in records)

    def test_tenant_filter(self, interleaved):
        service, ids, _ = interleaved
        jobs = service.jobs(tenant="bob")
        assert [j["job_id"] for j in jobs] == [ids["bob"]]


class TestRestartRecovery:
    def test_killed_service_resumes_bit_identically(self, tmp_path, solo):
        root = str(tmp_path / "svc")
        service = CampaignService(root)
        ids = {t: service.submit(t, s)["job_id"] for t, s in SPECS.items()}
        for _ in range(4):  # partial progress across the jobs
            assert service.run_turn(timeout=0.1)
        # Simulated SIGKILL: abandon the instance without stop().
        del service
        revived = CampaignService(root)
        states = {j["job_id"]: j["state"] for j in revived.jobs()}
        assert set(states.values()) <= {PENDING, DONE}
        drain(revived)
        for tenant, job_id in ids.items():
            assert revived.summary(job_id) == solo[tenant]["summary"]
            assert revived.packages(job_id) == solo[tenant]["packages"]
        revived.stop()

    def test_every_kill_point_recovers(self, tmp_path, solo):
        # Kill after each possible number of completed turns of a
        # two-round campaign; every restart must land on the solo summary.
        spec = SPECS["alice"]
        for kill_after in (0, 1, 2):
            root = str(tmp_path / f"svc-{kill_after}")
            service = CampaignService(root)
            job_id = service.submit("alice", spec)["job_id"]
            for _ in range(kill_after):
                service.run_turn(timeout=0.1)
            del service  # simulated SIGKILL
            revived = CampaignService(root)
            drain(revived)
            assert revived.summary(job_id) == solo["alice"]["summary"]
            revived.stop()


class TestLifecycle:
    def test_pause_resume_round_trip(self, tmp_path, solo):
        service = CampaignService(str(tmp_path / "svc"))
        job_id = service.submit("alice", SPECS["alice"])["job_id"]
        service.run_turn(timeout=0.1)
        assert service.pause(job_id)["state"] == PAUSED
        assert service.run_turn(timeout=0) is False  # nothing runnable
        assert service.resume(job_id)["state"] == PENDING
        drain(service)
        assert service.summary(job_id) == solo["alice"]["summary"]
        service.stop()

    def test_cancel_is_terminal(self, tmp_path):
        service = CampaignService(str(tmp_path / "svc"))
        job_id = service.submit("alice", SPECS["alice"])["job_id"]
        assert service.cancel(job_id)["state"] == CANCELLED
        with pytest.raises(ServiceError) as err:
            service.resume(job_id)
        assert err.value.status == 409
        assert service.run_turn(timeout=0) is False  # dequeued on cancel
        service.stop()

    def test_summary_before_done_conflicts(self, tmp_path):
        service = CampaignService(str(tmp_path / "svc"))
        job_id = service.submit("alice", SPECS["alice"])["job_id"]
        with pytest.raises(ServiceError) as err:
            service.summary(job_id)
        assert err.value.status == 409
        service.stop()

    def test_unknown_job_is_404(self, tmp_path):
        service = CampaignService(str(tmp_path / "svc"))
        with pytest.raises(ServiceError) as err:
            service.status("job-9999")
        assert err.value.status == 404
        service.stop()

    def test_bad_spec_is_400(self, tmp_path):
        service = CampaignService(str(tmp_path / "svc"))
        with pytest.raises(ServiceError) as err:
            service.submit("alice", {"rounds": 0})
        assert err.value.status == 400
        service.stop()

    def test_pause_landing_mid_final_round_settles_done(
        self, tmp_path, solo, monkeypatch
    ):
        # A pause arriving while the campaign's last round executes must
        # not crash the scheduler loop: the round outcome wins the race.
        service = CampaignService(str(tmp_path / "svc"))
        job_id = service.submit("alice", SPECS["alice"])["job_id"]
        service.run_turn(timeout=0.1)  # round 1 of 2
        orig_step = JobRunner.step

        def step_then_pause(runner):
            done = orig_step(runner)
            service.pause(runner.job.job_id)  # lands "mid-round"
            return done

        monkeypatch.setattr(JobRunner, "step", step_then_pause)
        assert service.run_turn(timeout=0.1)  # must not raise
        monkeypatch.setattr(JobRunner, "step", orig_step)
        assert service.status(job_id)["state"] == DONE
        assert service.summary(job_id) == solo["alice"]["summary"]
        service.stop()

    def test_pause_resume_mid_final_round_settles_done(
        self, tmp_path, solo, monkeypatch
    ):
        service = CampaignService(str(tmp_path / "svc"))
        job_id = service.submit("alice", SPECS["alice"])["job_id"]
        service.run_turn(timeout=0.1)  # round 1 of 2
        orig_step = JobRunner.step

        def step_then_pause_resume(runner):
            done = orig_step(runner)
            service.pause(runner.job.job_id)
            service.resume(runner.job.job_id)  # job is PENDING + queued
            return done

        monkeypatch.setattr(JobRunner, "step", step_then_pause_resume)
        assert service.run_turn(timeout=0.1)  # must not raise
        monkeypatch.setattr(JobRunner, "step", orig_step)
        assert service.status(job_id)["state"] == DONE
        # The resume's queue entry was dropped with the terminal hop.
        assert service.run_turn(timeout=0) is False
        assert service.summary(job_id) == solo["alice"]["summary"]
        service.stop()

    def test_pause_mid_round_failure_settles_failed(
        self, tmp_path, monkeypatch
    ):
        service = CampaignService(str(tmp_path / "svc"))
        job_id = service.submit("alice", SPECS["alice"])["job_id"]

        def step_pause_boom(runner):
            service.pause(runner.job.job_id)
            raise RuntimeError("engine exploded mid-round")

        monkeypatch.setattr(JobRunner, "step", step_pause_boom)
        assert service.run_turn(timeout=0.1)  # must not raise
        status = service.status(job_id)
        assert status["state"] == FAILED
        assert "engine exploded" in status["error"]
        service.stop()


class TestSnapshotFork:
    def test_fork_from_mid_campaign_snapshot(self, tmp_path, solo):
        service = CampaignService(str(tmp_path / "svc"))
        parent = service.submit("alice", SPECS["alice"])["job_id"]
        service.run_turn(timeout=0.1)  # round 1 of 2 journalled
        snap = service.snapshot(parent)["snapshot"]
        child = service.fork(parent, snap, "alice-fork")["job_id"]
        drain(service)
        # The child replayed the parent's first round from the snapshot
        # and ran the rest live: same campaign, bit for bit.
        assert service.summary(child) == solo["alice"]["summary"]
        assert service.summary(parent) == solo["alice"]["summary"]
        assert service.status(child)["forked_from"] == f"{parent}/{snap}"
        service.stop()

    def test_fork_extends_rounds(self, tmp_path, solo):
        service = CampaignService(str(tmp_path / "svc"))
        parent = service.submit("bob", SPECS["bob"])["job_id"]
        drain(service)
        snap = service.snapshot(parent)["snapshot"]
        child = service.fork(parent, snap, "bob", rounds=4)["job_id"]
        drain(service)
        _, extended = run_solo(dict(SPECS["bob"], rounds=4))
        assert service.summary(child) == extended.summary()
        service.stop()

    def test_fork_unknown_snapshot_is_400(self, tmp_path):
        service = CampaignService(str(tmp_path / "svc"))
        parent = service.submit("alice", SPECS["alice"])["job_id"]
        with pytest.raises(ServiceError) as err:
            service.fork(parent, "snap-9999", "x")
        assert err.value.status == 400
        service.stop()


class TestRegistry:
    def test_replay_preserves_jobs_and_specs(self, tmp_path):
        root = str(tmp_path / "reg")
        registry = JobRegistry(root)
        spec = JobSpec.from_obj(SPECS["bob"])
        job = registry.submit("bob", spec)
        job.transition(RUNNING)
        job.rounds_done = 1
        registry.record_state(job)
        registry.close()
        revived = JobRegistry(root)
        back = revived.job(job.job_id)
        assert back.spec == spec
        assert back.rounds_done == 1
        assert back.state == PENDING  # running demoted on recovery
        revived.close()

    def test_submit_seq_survives_restart(self, tmp_path):
        root = str(tmp_path / "reg")
        registry = JobRegistry(root)
        first = registry.submit("a", JobSpec())
        registry.close()
        revived = JobRegistry(root)
        second = revived.submit("b", JobSpec())
        assert second.submit_seq == first.submit_seq + 1
        assert second.job_id != first.job_id
        revived.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        root = str(tmp_path / "reg")
        registry = JobRegistry(root)
        job = registry.submit("a", JobSpec())
        registry.close()
        with open(os.path.join(root, "registry.jsonl"), "a") as handle:
            handle.write('{"kind": "state", "job_id"')  # torn mid-record
        revived = JobRegistry(root)
        assert revived.job(job.job_id).state == PENDING
        revived.close()

    def test_torn_tail_is_truncated_before_new_appends(self, tmp_path):
        # A torn tail must be cut off on reopen: appending the next
        # record glued onto the partial line would make the *following*
        # replay stop there and silently drop everything after it.
        root = str(tmp_path / "reg")
        registry = JobRegistry(root)
        first = registry.submit("a", JobSpec())
        registry.close()
        with open(os.path.join(root, "registry.jsonl"), "a") as handle:
            handle.write('{"kind": "state", "job_id"')  # torn mid-record
        revived = JobRegistry(root)
        second = revived.submit("b", JobSpec())
        revived.close()
        third = JobRegistry(root)
        assert set(third.jobs) == {first.job_id, second.job_id}
        assert third.job(second.job_id).tenant == "b"
        third.close()

    def test_mistyped_spec_from_an_older_daemon_reopens_failed(self, tmp_path):
        """A daemon from before JobSpec checked types journalled mistyped
        specs.  The registry must still reopen, with that job failed and
        the others untouched."""
        root = str(tmp_path / "svc")
        registry = JobRegistry(root)
        good = registry.submit("a", JobSpec())
        registry.close()
        job = CampaignJob(job_id="job-0002", tenant="b", spec=JobSpec(), submit_seq=2)
        record = {"kind": "submit", "job": job.to_obj()}
        record["job"]["spec"]["trials"] = 2.5
        record["digest"] = record_digest(record)
        with open(os.path.join(root, "registry.jsonl"), "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        service = CampaignService(root)
        status = service.status(job.job_id)
        assert status["state"] == FAILED
        assert "trials must be an integer" in status["error"]
        assert service.status(good.job_id)["state"] == PENDING
        service.stop()

    def test_legacy_threads_spec_reopens_and_matches_solo(self, tmp_path, solo):
        """Registries written while the thread fleet was the default hold
        ``fleet: "threads"``; such a job reopens and still finishes equal
        to its solo run."""
        root = str(tmp_path / "svc")
        registry = JobRegistry(root)
        job = registry.submit("alice", JobSpec.from_obj(SPECS["alice"]))
        registry.close()
        path = os.path.join(root, "registry.jsonl")
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        for record in records:
            record.pop("digest")
            if record["kind"] == "submit":
                record["job"]["spec"]["fleet"] = "threads"
            record["digest"] = record_digest(record)
        with open(path, "w") as handle:
            handle.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
        service = CampaignService(root)
        drain(service)
        assert service.summary(job.job_id) == solo["alice"]["summary"]
        service.stop()

    def test_fork_copies_checkpoint_before_submit_record(self, tmp_path):
        # Crash contract: if the child's submit record made it into the
        # journal, its checkpoint must already be on disk — never a
        # recovered fork that silently restarts from round one.
        root = str(tmp_path / "reg")
        registry = JobRegistry(root)
        parent = registry.submit("a", JobSpec())
        with open(registry.checkpoint_path(parent.job_id), "w") as handle:
            handle.write('{"kind": "round"}\n')
        snap = registry.snapshot(parent.job_id)

        def boom(obj):
            raise RuntimeError("simulated crash at the submit record")

        registry._append = boom  # instance override: crash before append
        with pytest.raises(RuntimeError, match="simulated crash"):
            registry.fork(parent.job_id, snap, "b")
        del registry._append
        # The copy preceded the (never-written) record ...
        assert os.path.exists(registry.checkpoint_path("job-0002"))
        registry.close()
        # ... and on recovery the orphan id is reused by a fresh submit,
        # which must not adopt the dead fork's journal.
        revived = JobRegistry(root)
        fresh = revived.submit("c", JobSpec())
        assert fresh.job_id == "job-0002"
        assert not os.path.exists(revived.checkpoint_path(fresh.job_id))
        revived.close()

    def test_digest_corruption_is_refused(self, tmp_path):
        root = str(tmp_path / "reg")
        registry = JobRegistry(root)
        registry.submit("a", JobSpec())
        registry.close()
        path = os.path.join(root, "registry.jsonl")
        with open(path, encoding="utf-8") as handle:
            record = json.loads(handle.readline())
        record["job"]["tenant"] = "mallory"  # digest now stale
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        with pytest.raises(RegistryError, match="digest"):
            JobRegistry(root)


class TestAtomicPublish:
    """Files a client polls for appear whole or not at all.

    A spy on ``open`` records, at every write-mode open in the watched
    directory, what a reader of the published file would get at that
    instant: the window in which a plain ``open(path, "w")`` leaves an
    empty file behind (``ServiceClientError: malformed endpoint ''``, or
    a summary that fails to parse)."""

    @staticmethod
    def spy(monkeypatch, directory, published):
        real_open = builtins.open
        seen = []

        def spying_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if (
                "w" in mode
                and isinstance(file, (str, os.PathLike))
                and os.path.dirname(os.path.abspath(file)) == os.path.abspath(directory)
            ):
                if os.path.exists(published):
                    with real_open(published, encoding="utf-8") as reader:
                        seen.append(reader.read())
                else:
                    seen.append(None)
            return handle

        monkeypatch.setattr(builtins, "open", spying_open)
        return seen

    def test_daemon_endpoint_file(self, tmp_path, monkeypatch):
        from repro.service.daemon import ServiceDaemon

        data = str(tmp_path / "svc")
        os.makedirs(data)
        endpoint = os.path.join(data, "endpoint")
        seen = self.spy(monkeypatch, data, endpoint)
        daemon = ServiceDaemon(data)
        try:
            with open(endpoint, encoding="utf-8") as handle:
                assert handle.read() == f"{daemon.host}:{daemon.port}\n"
            assert seen and all(text is None for text in seen)
        finally:
            daemon._httpd.server_close()
            daemon.service.stop()

    def test_finalized_summary_file(self, tmp_path, monkeypatch):
        registry = JobRegistry(str(tmp_path / "svc"))
        job = registry.submit("alice", JobSpec.from_obj(dict(BASE)))
        summary_path = registry.summary_path(job.job_id)
        seen = self.spy(monkeypatch, registry.job_dir(job.job_id), summary_path)

        class Result:
            def summary(self):
                return {"bugs": ["SB01"], "tests": 5}

        class Finished:
            repro_packages = {}

        try:
            JobRunner(job, registry)._finalize(Finished(), Result())
            with open(summary_path, encoding="utf-8") as handle:
                assert json.load(handle) == {"bugs": ["SB01"], "tests": 5}
            assert seen and all(text is None for text in seen)
        finally:
            registry.close()
