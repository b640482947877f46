"""Crash points enumerated, not placed by hand.

Every file a run must find again after a kill is a journal or a
publish (:mod:`repro.durable`).  Two sweeps pin the torn-tail rule:

* **Every byte offset.**  A small real journal of each kind (a campaign
  checkpoint, a registry journal, a trace) is cut at every offset and
  reopened through its product path; one appended record must land
  right after the whole records the offset kept, with the header
  written again when the cut took it.
* **Every journal write.**  A tiny checkpointed campaign is killed at
  each of its journal writes, just before the write, just after the
  flush, or half way through the line; a resume in a fresh
  ``Snowboard`` must equal the uninterrupted run.
* **Every store write.**  The same campaign spilled to a PMC store with
  a tiny hot tier is killed at each segment append (before, after, or
  half way through the chunk) and each manifest publish (before or
  after); the resume must equal the in-memory run, with every round's
  store digest that of an uninterrupted spilled run.

The write sweep's first write is the header: a journal whose header
never landed held nothing durable and resumes afresh.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro import durable
from repro.machine.accesses import AccessType
from repro.obs import JsonlSink, read_trace
from repro.orchestrate.persistence import read_journal
from repro.orchestrate.pipeline import Snowboard, SnowboardConfig
from repro.orchestrate.results import CampaignResult
from repro.pmc import store as store_module
from repro.profile.profiler import ProfiledAccess
from repro.service import JobRegistry, JobSpec

CONFIG = SnowboardConfig(seed=7, corpus_budget=40)
STRATEGY = "S-INS-PAIR"
ROUNDS = dict(rounds=2, round_budget=2, trials=2, corpus_growth=10)


class Killed(BaseException):
    """Stands in for SIGKILL: not an Exception, nothing may catch it."""


def run(path, resume=False, config=CONFIG):
    return Snowboard(config).run_rounds(
        ROUNDS["rounds"],
        round_budget=ROUNDS["round_budget"],
        trials=ROUNDS["trials"],
        corpus_growth=ROUNDS["corpus_growth"],
        checkpoint_path=path,
        resume=resume,
    )


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """The reference run's summary and its journal's records."""
    path = str(tmp_path_factory.mktemp("reference") / "journal.jsonl")
    result = run(path)
    return result.summary(), read_journal(path)


def lines_of(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


def sweep(original, path, reopen_and_append):
    """Cut ``original`` at every offset into ``path``, reopen it and
    append one record; yield (whole lines kept, lines read back)."""
    for offset in range(len(original) + 1):
        prefix = original[:offset]
        with open(path, "wb") as handle:
            handle.write(prefix)
        reopen_and_append()
        kept = prefix[: prefix.rfind(b"\n") + 1].splitlines(keepends=True)
        yield kept, lines_of(path)


class TestEveryByteOffset:
    def test_campaign_checkpoint(self, tmp_path):
        # The patched kernel finds nothing, which keeps the task records,
        # and so the offsets to sweep, few.
        config = SnowboardConfig(seed=7, corpus_budget=40, fixed_kernel=True)
        path = str(tmp_path / "journal.jsonl")
        run(path, config=config)
        with open(path, "rb") as handle:
            original = handle.read()
        header = original.splitlines(keepends=True)[0]
        snowboard = Snowboard(config)
        shape = {key: ROUNDS[key] for key in ("rounds", "round_budget", "corpus_growth")}

        def resume_and_append():
            snowboard.repro_packages = {}
            writer, _, _ = snowboard._open_checkpoint(
                path, True, CampaignResult(strategy=STRATEGY), STRATEGY, shape,
                "snowboard", ROUNDS["trials"],
            )
            writer.task_done(999)
            writer.close()

        for kept, lines in sweep(original, path, resume_and_append):
            assert lines[:-1] == (kept or [header])
            assert json.loads(lines[-1])["task_id"] == 999

    def test_registry_journal(self, tmp_path):
        root = str(tmp_path / "svc")
        registry = JobRegistry(root)
        first = registry.submit("a", JobSpec())
        registry.submit("b", JobSpec(seed=3))
        registry.record_state(first)
        registry.close()
        path = os.path.join(root, "registry.jsonl")
        with open(path, "rb") as handle:
            original = handle.read()

        def reopen_and_append():
            reopened = JobRegistry(root)
            reopened.submit("z", JobSpec())
            reopened.close()

        for kept, lines in sweep(original, path, reopen_and_append):
            assert lines[:-1] == kept
            assert json.loads(lines[-1])["job"]["tenant"] == "z"
            replayed = JobRegistry(root)
            assert len(replayed.jobs) == sum(b'"submit"' in line for line in lines)
            replayed.close()

    def test_trace(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, header={"seed": 7})
        for name in ("a", "b", "c"):
            sink.emit({"kind": "event", "name": name})
        sink.close()
        with open(path, "rb") as handle:
            original = handle.read()
        header = original.splitlines(keepends=True)[0]

        def reopen_and_append():
            reopened = JsonlSink(path, header={"seed": 7}, append=True)
            reopened.emit({"kind": "event", "name": "new"})
            reopened.close()

        for kept, lines in sweep(original, path, reopen_and_append):
            assert lines[:-1] == (kept or [header])
            assert read_trace(path)[1][-1]["name"] == "new"


def killing_append(at, how):
    """A ``JournalWriter.append`` that dies at its ``at``-th call."""
    real = durable.JournalWriter.append
    calls = [0]

    def append(self, record):
        calls[0] += 1
        if calls[0] != at:
            return real(self, record)
        if how == "after":
            real(self, record)
        elif how == "half":
            line = json.dumps(record) + "\n"  # the checkpoint serialization
            self._handle.write(line[: len(line) // 2])
            self._handle.flush()
        raise Killed()

    return append, calls


class TestEveryJournalWrite:
    def test_the_campaign_makes_seven_writes(self, tmp_path):
        append, calls = killing_append(0, "before")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(durable.JournalWriter, "append", append)
            run(str(tmp_path / "journal.jsonl"))
        assert calls[0] == 7  # header, two rounds of (round, task, task)

    @pytest.mark.parametrize("how", ["before", "after", "half"])
    @pytest.mark.parametrize("at", range(1, 8))
    def test_resume_after_a_kill_at_write(self, uninterrupted, tmp_path, at, how):
        summary, journal = uninterrupted
        path = str(tmp_path / "journal.jsonl")
        append, _ = killing_append(at, how)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(durable.JournalWriter, "append", append)
            with pytest.raises(Killed):
                run(path)
        assert run(path, resume=True).summary() == summary
        resumed = read_journal(path)
        assert [t["task_id"] for t in resumed.tasks] == [
            t["task_id"] for t in journal.tasks
        ]
        assert sorted(resumed.rounds) == sorted(journal.rounds)


def test_a_damaged_whole_line_raises(tmp_path):
    """Only the final line can be torn: a whole line that does not
    parse was damaged, and reading on past it would hide the records
    after it."""
    path = str(tmp_path / "journal.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"kind": "header"}\n{"kind": "ta\n{"kind": "task"}\n')
    with pytest.raises(ValueError, match="damaged"):
        list(durable.read_records(path))


@pytest.mark.parametrize("left", ["", '{"kind": "header", "vers'])
def test_rounds_journal_whose_header_never_landed_starts_afresh(
    uninterrupted, tmp_path, left
):
    summary, _ = uninterrupted
    path = str(tmp_path / "journal.jsonl")
    with open(path, "w") as handle:
        handle.write(left)
    assert run(path, resume=True).summary() == summary


# -- a spilled run: every store write -------------------------------------------


def spilled_config(tmp_path):
    """CONFIG spilled to a store whose hot tier holds a few records."""
    return dataclasses.replace(
        CONFIG, pmc_spill_dir=str(tmp_path / "pmcstore"), pmc_hot_records=4
    )


def store_files(snowboard):
    """The bytes of every file in ``snowboard``'s spill directory."""
    root = snowboard.config.pmc_spill_dir
    files = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as handle:
            files[name] = handle.read()
    return files


@pytest.fixture(scope="module")
def spilled_reference(tmp_path_factory):
    """An uninterrupted spilled run: each round's store digest, and the
    store's files at the end."""
    tmp = tmp_path_factory.mktemp("spilled")
    snowboard = Snowboard(spilled_config(tmp))
    snowboard.run_rounds(
        ROUNDS["rounds"],
        round_budget=ROUNDS["round_budget"],
        trials=ROUNDS["trials"],
        corpus_growth=ROUNDS["corpus_growth"],
    )
    digests = [info.store_digest for info in snowboard.state.rounds_log]
    return digests, store_files(snowboard)


def killing_segment_open(at, how):
    """An ``open`` for :mod:`repro.pmc.store` that dies at the ``at``-th
    segment append (mode ``"ab"``): before it, after it, or with half
    the chunk written."""
    calls = [0]

    class Dying:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, chunk):
            self.handle.write(chunk if how == "after" else chunk[: len(chunk) // 2])
            self.handle.close()
            raise Killed()

    def store_open(path, mode="r", *args, **kwargs):
        if mode == "ab":
            calls[0] += 1
            if calls[0] == at:
                if how == "before":
                    raise Killed()
                return Dying(open(path, mode, *args, **kwargs))
        return open(path, mode, *args, **kwargs)

    return store_open, calls


def killing_publish(at, how):
    """A ``write_atomic`` for :mod:`repro.pmc.store` that dies at its
    ``at``-th call, before or after the manifest lands."""
    calls = [0]

    def publish(path, text):
        calls[0] += 1
        if calls[0] == at and how == "before":
            raise Killed()
        durable.write_atomic(path, text)
        if calls[0] == at:
            raise Killed()

    return publish, calls


class TestEveryStoreWrite:
    """A spilled campaign killed at each segment append and manifest
    publish resumes, in a fresh ``Snowboard``, to the in-memory summary,
    with every round's store digest, and the store's files, those of an
    uninterrupted run."""

    def resume(self, uninterrupted, spilled_reference, tmp_path, attr, patched):
        summary, _ = uninterrupted
        config = spilled_config(tmp_path)
        path = str(tmp_path / "journal.jsonl")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(store_module, attr, patched, raising=False)
            with pytest.raises(Killed):
                run(path, config=config)
        snowboard = Snowboard(config)
        result = snowboard.run_rounds(
            ROUNDS["rounds"],
            round_budget=ROUNDS["round_budget"],
            trials=ROUNDS["trials"],
            corpus_growth=ROUNDS["corpus_growth"],
            checkpoint_path=path,
            resume=True,
        )
        assert result.summary() == summary
        digests, files = spilled_reference
        assert [i.store_digest for i in snowboard.state.rounds_log] == digests
        assert store_files(snowboard) == files

    def test_the_campaign_makes_eight_appends_and_two_publishes(self, tmp_path):
        store_open, appends = killing_segment_open(0, "before")
        publish, publishes = killing_publish(0, "before")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(store_module, "open", store_open, raising=False)
            mp.setattr(store_module, "write_atomic", publish)
            run(str(tmp_path / "journal.jsonl"), config=spilled_config(tmp_path))
        assert (appends[0], publishes[0]) == (8, 2)

    @pytest.mark.parametrize("how", ["before", "after", "half"])
    @pytest.mark.parametrize("at", range(1, 9))
    def test_resume_after_a_kill_at_segment_append(
        self, uninterrupted, spilled_reference, tmp_path, at, how
    ):
        store_open, _ = killing_segment_open(at, how)
        self.resume(uninterrupted, spilled_reference, tmp_path, "open", store_open)

    @pytest.mark.parametrize("how", ["before", "after"])
    @pytest.mark.parametrize("at", [1, 2])
    def test_resume_after_a_kill_at_manifest_publish(
        self, uninterrupted, spilled_reference, tmp_path, at, how
    ):
        publish, _ = killing_publish(at, how)
        self.resume(uninterrupted, spilled_reference, tmp_path, "write_atomic", publish)


def test_a_segment_first_written_after_the_checkpoint_is_dropped(tmp_path):
    """A kill after the last checkpoint can leave a segment file that no
    manifest lists, here torn mid-record.  Reopening removes it: a
    re-append would otherwise land after its bytes and be read as them."""

    def write(addr, value):
        return ProfiledAccess(
            type=AccessType.WRITE, addr=addr, size=4, value=value, ins=f"w:{value}"
        )

    root = str(tmp_path)
    store = store_module.AccessStore.open(root)
    store.append(write(0x100, 1), 0, 0)
    store.checkpoint(1)
    late = [write(0x5000 + 8 * i, 2 + i) for i in range(3)]
    for seq, access in enumerate(late, 1):
        store.append(access, 1, seq)
    store.flush()
    path = os.path.join(root, store._shards[(True, store.shard_of(0x5000))].name)
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)

    reopened = store_module.AccessStore.open(root)
    assert not os.path.exists(path)
    reopened.append(write(0x100, 1), 0, 0)
    for seq, access in enumerate(late, 1):
        reopened.append(access, 1, seq)
    reopened.checkpoint(4)
    assert [
        record[0] for access in late for record in reopened.load_bucket(True, access.addr)
    ] == late
