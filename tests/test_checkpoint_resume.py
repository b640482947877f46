"""Crash-safe campaigns: checkpoint journal, kill-and-resume, guards.

The contract: a campaign journaled to a checkpoint, killed at any task
boundary and resumed — in the same or a *fresh* process, serially or
across a worker fleet — produces a ``summary()`` bit-identical to the
uninterrupted run (bug set, trial counts, first-find positions), plus
identical reproduction packages.  Tasks are seeded ``seed + task_id``,
so the resumed tasks replay exactly what the uninterrupted campaign
would have executed.
"""

from __future__ import annotations

import json

import pytest

from repro.orchestrate.persistence import (
    CheckpointMismatch,
    CheckpointWriter,
    load_checkpoint,
)
from repro.orchestrate.pipeline import Snowboard, SnowboardConfig

CONFIG = SnowboardConfig(
    seed=7, corpus_budget=120, trials_per_pmc=8, max_instructions=40_000
)
BUDGET = 8
STRATEGY = "S-INS-PAIR"


class Killed(BaseException):
    """Stands in for SIGKILL: not an Exception, nothing may catch it."""


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted serial campaign every resume must match."""
    sb = Snowboard(CONFIG).prepare()
    campaign = sb.run_campaign(STRATEGY, test_budget=BUDGET)
    return sb, campaign


def _run_until_killed(path: str, kill_after: int) -> None:
    """Start a checkpointed serial campaign and kill it mid-Stage-4."""
    sb = Snowboard(CONFIG).prepare()
    original = Snowboard.execute_test
    calls = {"n": 0}

    def dying(self, *args, **kwargs):
        if calls["n"] >= kill_after:
            raise Killed()
        calls["n"] += 1
        return original(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Snowboard, "execute_test", dying)
        with pytest.raises(Killed):
            sb.run_campaign(STRATEGY, test_budget=BUDGET, checkpoint_path=path)


class TestJournalFormat:
    def test_fresh_checkpoint_does_not_perturb_results(self, baseline, tmp_path):
        _, uninterrupted = baseline
        path = str(tmp_path / "journal.jsonl")
        sb = Snowboard(CONFIG).prepare()
        campaign = sb.run_campaign(STRATEGY, test_budget=BUDGET, checkpoint_path=path)
        assert campaign.summary() == uninterrupted.summary()

        header, tasks = load_checkpoint(path)
        assert header["strategy"] == STRATEGY
        assert header["seed"] == CONFIG.seed
        assert [t["task_id"] for t in tasks] == list(range(BUDGET))
        # Cumulative counters: the last record equals the final campaign.
        assert tasks[-1]["counters"]["trials"] == campaign.trials
        assert tasks[-1]["counters"]["tested_pmcs"] == BUDGET

    def test_journal_is_valid_json_lines(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        sb = Snowboard(CONFIG).prepare()
        sb.run_campaign(STRATEGY, test_budget=3, checkpoint_path=path)
        with open(path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines[0]["kind"] == "header"
        assert all(obj["kind"] == "task" for obj in lines[1:])
        assert all("digest" in obj for obj in lines[1:])


class TestKillAndResume:
    def test_kill_and_resume_serial_bit_identical(self, baseline, tmp_path):
        baseline_sb, uninterrupted = baseline
        path = str(tmp_path / "journal.jsonl")
        _run_until_killed(path, kill_after=4)

        _, tasks = load_checkpoint(path)
        assert len(tasks) == 4  # the journal stops at the kill point

        # Resume in a *fresh* instance — the new-process analogue.
        sb = Snowboard(CONFIG).prepare()
        resumed = sb.run_campaign(
            STRATEGY, test_budget=BUDGET, checkpoint_path=path, resume=True
        )
        assert resumed.summary() == uninterrupted.summary()
        # Reproduction packages survive the crash bit for bit too.
        assert set(sb.repro_packages) == set(baseline_sb.repro_packages)
        for bug_id, package in baseline_sb.repro_packages.items():
            assert sb.repro_packages[bug_id].to_json() == package.to_json()
        # The journal now covers the full campaign.
        _, tasks = load_checkpoint(path)
        assert [t["task_id"] for t in tasks] == list(range(BUDGET))

    def test_kill_at_first_task_and_resume(self, baseline, tmp_path):
        _, uninterrupted = baseline
        path = str(tmp_path / "journal.jsonl")
        _run_until_killed(path, kill_after=0)
        sb = Snowboard(CONFIG).prepare()
        resumed = sb.run_campaign(
            STRATEGY, test_budget=BUDGET, checkpoint_path=path, resume=True
        )
        assert resumed.summary() == uninterrupted.summary()

    def test_resume_into_parallel_fleet(self, baseline, tmp_path):
        """A serially-checkpointed campaign resumes onto workers=3."""
        _, uninterrupted = baseline
        path = str(tmp_path / "journal.jsonl")
        _run_until_killed(path, kill_after=3)
        sb = Snowboard(CONFIG).prepare()
        resumed = sb.run_campaign(
            STRATEGY,
            test_budget=BUDGET,
            workers=3,
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.summary() == uninterrupted.summary()

    def test_kill_during_parallel_merge_then_resume(self, baseline, tmp_path):
        """Coordinator dies while merging fleet results; resume recovers."""
        _, uninterrupted = baseline
        path = str(tmp_path / "journal.jsonl")
        sb = Snowboard(CONFIG).prepare()
        original = CheckpointWriter.task_done
        calls = {"n": 0}

        def dying(self, task_id, merged=True):
            if calls["n"] >= 2:
                raise Killed()
            calls["n"] += 1
            return original(self, task_id, merged)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CheckpointWriter, "task_done", dying)
            with pytest.raises(Killed):
                sb.run_campaign(
                    STRATEGY, test_budget=BUDGET, workers=2, checkpoint_path=path
                )

        sb2 = Snowboard(CONFIG).prepare()
        resumed = sb2.run_campaign(
            STRATEGY, test_budget=BUDGET, checkpoint_path=path, resume=True
        )
        assert resumed.summary() == uninterrupted.summary()

    def test_resume_of_complete_journal_executes_nothing(self, baseline, tmp_path):
        _, uninterrupted = baseline
        path = str(tmp_path / "journal.jsonl")
        Snowboard(CONFIG).prepare().run_campaign(
            STRATEGY, test_budget=BUDGET, checkpoint_path=path
        )

        sb = Snowboard(CONFIG).prepare()
        executed = []
        original = Snowboard.execute_test

        def counting(self, *args, **kwargs):
            executed.append(kwargs.get("task_id"))
            return original(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Snowboard, "execute_test", counting)
            resumed = sb.run_campaign(
                STRATEGY, test_budget=BUDGET, checkpoint_path=path, resume=True
            )
        assert executed == []
        assert resumed.summary() == uninterrupted.summary()

    def test_resume_without_existing_journal_starts_fresh(self, baseline, tmp_path):
        _, uninterrupted = baseline
        path = str(tmp_path / "nonexistent.jsonl")
        sb = Snowboard(CONFIG).prepare()
        campaign = sb.run_campaign(
            STRATEGY, test_budget=BUDGET, checkpoint_path=path, resume=True
        )
        assert campaign.summary() == uninterrupted.summary()
        _, tasks = load_checkpoint(path)
        assert len(tasks) == BUDGET


class TestJournalGuards:
    def _partial_journal(self, tmp_path) -> str:
        path = str(tmp_path / "journal.jsonl")
        _run_until_killed(path, kill_after=2)
        return path

    def test_header_mismatch_raises(self, tmp_path):
        path = self._partial_journal(tmp_path)
        sb = Snowboard(CONFIG).prepare()
        with pytest.raises(CheckpointMismatch):
            sb.run_campaign(
                STRATEGY,
                test_budget=BUDGET + 5,  # different budget than journalled
                checkpoint_path=path,
                resume=True,
            )

    def test_torn_final_line_is_discarded(self, baseline, tmp_path):
        _, uninterrupted = baseline
        path = self._partial_journal(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"kind": "task", "task_id": 2, "coun')  # torn write
        header, tasks = load_checkpoint(path)
        assert len(tasks) == 2
        sb = Snowboard(CONFIG).prepare()
        resumed = sb.run_campaign(
            STRATEGY, test_budget=BUDGET, checkpoint_path=path, resume=True
        )
        assert resumed.summary() == uninterrupted.summary()

    def test_resume_cuts_torn_tail_before_appending(self, baseline, tmp_path):
        """Resume must not append behind a torn line: the glued record
        would end every later load there, dropping the resumed tasks."""
        _, uninterrupted = baseline
        path = str(tmp_path / "journal.jsonl")
        Snowboard(CONFIG).prepare().run_campaign(
            STRATEGY, test_budget=BUDGET, checkpoint_path=path
        )
        with open(path, "rb") as handle:
            lines = handle.readlines()
        # The header and tasks 0-2, then a kill halfway through task 3's record.
        with open(path, "wb") as handle:
            handle.write(b"".join(lines[:4]) + lines[4][: len(lines[4]) // 2])
        for _ in range(2):
            resumed = Snowboard(CONFIG).prepare().run_campaign(
                STRATEGY, test_budget=BUDGET, checkpoint_path=path, resume=True
            )
            assert resumed.summary() == uninterrupted.summary()
        _, tasks = load_checkpoint(path)
        assert [t["task_id"] for t in tasks] == list(range(BUDGET))

    @pytest.mark.parametrize("left", ["", '{"kind": "header", "vers'])
    def test_journal_whose_header_never_landed_starts_afresh(
        self, baseline, tmp_path, left
    ):
        """A kill between the journal's creation and its header write
        leaves it empty or with a torn header: nothing durable, so the
        resume starts the journal afresh."""
        _, uninterrupted = baseline
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as handle:
            handle.write(left)
        with pytest.raises(CheckpointMismatch, match="no header"):
            load_checkpoint(path)  # a status poll still reads "nothing yet"
        resumed = Snowboard(CONFIG).prepare().run_campaign(
            STRATEGY, test_budget=BUDGET, checkpoint_path=path, resume=True
        )
        assert resumed.summary() == uninterrupted.summary()
        _, tasks = load_checkpoint(path)
        assert [t["task_id"] for t in tasks] == list(range(BUDGET))

    def test_records_without_a_header_still_raise(self, tmp_path):
        path = self._partial_journal(tmp_path)
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[1:])  # the header line lost, tasks kept
        sb = Snowboard(CONFIG).prepare()
        with pytest.raises(CheckpointMismatch, match="no header"):
            sb.run_campaign(
                STRATEGY, test_budget=BUDGET, checkpoint_path=path, resume=True
            )

    def test_corrupted_record_fails_digest_check(self, tmp_path):
        path = self._partial_journal(tmp_path)
        with open(path) as handle:
            lines = handle.readlines()
        tampered = json.loads(lines[1])
        tampered["counters"]["trials"] += 1  # silently inflate a counter
        lines[1] = json.dumps(tampered) + "\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(CheckpointMismatch, match="digest"):
            load_checkpoint(path)
