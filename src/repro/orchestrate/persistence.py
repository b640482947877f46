"""Persistence: serialise tests, campaign results and repro packages.

A **reproduction package** is the artifact Snowboard hands a developer:
the two sequential tests, the recorded switch points of the trial that
exposed the bug, and the expected failure output.  Replaying the package
on a freshly booted kernel reproduces the bug deterministically
(section 6: "Snowboard has the benefit of providing a reliable
environment to replicate bugs once they are found").
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.fuzz.prog import Call, Program, Res
from repro.sched.executor import ExecutionResult, Executor


def write_atomic(path: str, text: str) -> None:
    """Publish ``text`` at ``path`` whole: a temp file in the same
    directory renamed over it, so a reader sees no file, the old one or
    the new one, never a prefix."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


# -- program (de)serialisation --------------------------------------------------


def program_to_obj(program: Program) -> List[Dict]:
    """A JSON-ready representation of a program."""
    calls = []
    for call in program.calls:
        args = []
        for arg in call.args:
            if isinstance(arg, Res):
                args.append({"res": arg.index})
            else:
                args.append(int(arg))
        calls.append({"name": call.name, "args": args})
    return calls


def program_from_obj(obj: List[Dict]) -> Program:
    """Rebuild a program from :func:`program_to_obj` output."""
    calls = []
    for call in obj:
        args = []
        for arg in call["args"]:
            if isinstance(arg, dict) and "res" in arg:
                args.append(Res(int(arg["res"])))
            else:
                args.append(int(arg))
        calls.append(Call(call["name"], tuple(args)))
    return Program(tuple(calls))


# -- reproduction packages --------------------------------------------------------


@dataclass
class ReproPackage:
    """A deterministic bug reproduction: tests + schedule + expectation."""

    bug_id: str
    writer: Program
    reader: Program
    switch_points: List[int]
    expected_console: List[str] = field(default_factory=list)
    expected_panic: str = ""
    description: str = ""

    def to_json(self) -> str:
        from repro.fuzz.text import format_program

        return json.dumps(
            {
                "bug_id": self.bug_id,
                "writer": program_to_obj(self.writer),
                "reader": program_to_obj(self.reader),
                # Informational syz-repro-style text (ignored on load).
                "writer_text": format_program(self.writer),
                "reader_text": format_program(self.reader),
                "switch_points": list(self.switch_points),
                "expected_console": list(self.expected_console),
                "expected_panic": self.expected_panic,
                "description": self.description,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ReproPackage":
        obj = json.loads(text)
        return cls(
            bug_id=obj["bug_id"],
            writer=program_from_obj(obj["writer"]),
            reader=program_from_obj(obj["reader"]),
            switch_points=[int(x) for x in obj["switch_points"]],
            expected_console=list(obj.get("expected_console", [])),
            expected_panic=obj.get("expected_panic", ""),
            description=obj.get("description", ""),
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ReproPackage":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def render_report(self) -> str:
        """A human-readable bug report, the shape one files upstream."""
        from repro.detect.catalog import spec_by_id
        from repro.fuzz.text import format_program

        try:
            spec = spec_by_id(self.bug_id)
            headline = f"{self.bug_id} [{spec.bug_type}/{spec.triage.value}]: {spec.summary}"
        except KeyError:
            headline = f"{self.bug_id}: {self.description or 'uncatalogued observation'}"
        lines = [headline, ""]
        if self.expected_panic:
            lines += ["Crash:", f"  {self.expected_panic}", ""]
        elif self.expected_console:
            lines += ["Console:"] + [f"  {l}" for l in self.expected_console] + [""]
        lines += ["Reproducer (process A):"]
        lines += [f"  {l}" for l in format_program(self.writer).splitlines()]
        lines += ["Reproducer (process B):"]
        lines += [f"  {l}" for l in format_program(self.reader).splitlines()]
        lines += [
            "",
            f"Deterministic schedule: switch vCPUs after instructions "
            f"{self.switch_points}",
        ]
        return "\n".join(lines)


def capture_package(
    bug_id: str,
    writer: Program,
    reader: Program,
    result: ExecutionResult,
    description: str = "",
) -> ReproPackage:
    """Build a package from the trial that exposed the bug."""
    return ReproPackage(
        bug_id=bug_id,
        writer=writer,
        reader=reader,
        switch_points=list(result.switch_points),
        expected_console=list(result.console),
        expected_panic=result.panic_message,
        description=description,
    )


def reproduce(
    executor: Executor,
    package: ReproPackage,
    race_detector=None,
    verify_bug_id: bool = True,
) -> ExecutionResult:
    """Replay a package; raises if the bug does not reproduce.

    The replay runs under a :class:`~repro.detect.datarace.RaceDetector`
    and the full oracle set, and the observed findings must match the
    package's ``bug_id`` against the catalog.  This is what makes
    packages for pure data-race bugs — empty ``expected_panic`` *and*
    ``expected_console`` — actually validate: before, no oracle ran
    during replay and such packages succeeded vacuously.
    """
    from repro.detect.catalog import catalog_ids, match_observations
    from repro.detect.datarace import RaceDetector
    from repro.detect.report import observe

    detector = race_detector if race_detector is not None else RaceDetector()
    result = executor.run_concurrent(
        [package.writer, package.reader],
        replay_switch_points=package.switch_points,
        race_detector=detector,
    )
    if package.expected_panic and result.panic_message != package.expected_panic:
        raise AssertionError(
            f"replay diverged: expected panic {package.expected_panic!r}, "
            f"got {result.panic_message!r}"
        )
    if package.expected_console and result.console != package.expected_console:
        raise AssertionError("replay diverged: console transcript differs")
    observations = observe(result)
    if verify_bug_id and package.bug_id in catalog_ids():
        grouped = match_observations(observations)
        if package.bug_id not in grouped:
            raise AssertionError(
                f"replay diverged: no observation matching {package.bug_id} "
                f"(observed: {sorted(k for k in grouped)})"
            )
    elif verify_bug_id and not (package.expected_panic or package.expected_console):
        # Uncatalogued package with no transcript expectation: the replay
        # must at least produce *some* oracle finding to count.
        if not observations:
            raise AssertionError(
                "replay diverged: no oracle observation during replay"
            )
    return result


# -- campaign checkpoint journal ---------------------------------------------------
#
# A campaign checkpoint is an append-only JSONL journal: one header line
# describing the campaign parameters, then one line per merged Stage-4
# task.  Each task line carries the *cumulative* campaign counters, the
# observation records and reproduction packages that task contributed,
# and a digest of its contribution.  Because tasks are seeded
# ``seed + task_id``, replaying the journal and executing only the
# missing task ids reconstructs the uninterrupted campaign bit for bit.

CHECKPOINT_VERSION = 1

#: Header fields that must match between the journal and a resuming
#: campaign — resuming under different parameters would silently change
#: seeding and test selection.  Batch campaigns guard ``test_budget`` and
#: ``ntests``; round-based campaigns guard ``rounds``, ``round_budget``
#: and ``corpus_growth`` instead (only fields present in the resuming
#: campaign's expectation are compared).
HEADER_GUARD_FIELDS = (
    "version",
    "strategy",
    "seed",
    "test_budget",
    "trials",
    "scheduler_kind",
    "fixed_kernel",
    "ntests",
    "rounds",
    "round_budget",
    "corpus_growth",
)


class CheckpointMismatch(ValueError):
    """The journal was written by a campaign with different parameters."""


def record_digest(obj: Dict) -> str:
    """Stable digest of one journal record's contents.

    Shared by the campaign checkpoint journal and the service job
    registry (``repro.service.registry``) so every append-only journal
    in the system detects corruption the same way.
    """
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# Historical internal name, kept for the call sites below.
_task_digest = record_digest


class CheckpointWriter:
    """Appends one journal record per merged Stage-4 task.

    Records are flushed line by line, so a campaign killed mid-flight
    leaves a valid journal prefix behind (a torn final line is discarded
    on load).  Construct with :meth:`create` (fresh journal, truncates)
    or :meth:`append_to` (resume an existing one).

    Durability levels: the default ``flush()`` survives a *process* kill
    (the bytes are in OS buffers) but not a machine crash; ``fsync=True``
    additionally fsyncs after every record, surviving power loss at the
    cost of one disk sync per merged task (``--checkpoint-fsync`` on the
    CLI, default off).
    """

    def __init__(
        self, handle, campaign, packages: Dict[str, ReproPackage], fsync: bool = False
    ):
        self._handle = handle
        self._campaign = campaign
        self._packages = packages
        self._nrecords = len(campaign.records)
        self._package_ids = set(packages)
        self._fsync = fsync

    def _write(self, obj: Dict) -> None:
        self._handle.write(json.dumps(obj) + "\n")
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())

    @classmethod
    def create(
        cls,
        path: str,
        header: Dict,
        campaign,
        packages: Dict[str, ReproPackage],
        fsync: bool = False,
    ) -> "CheckpointWriter":
        handle = open(path, "w")
        writer = cls(handle, campaign, packages, fsync=fsync)
        writer._write({"kind": "header", **header})
        return writer

    @classmethod
    def append_to(
        cls,
        path: str,
        campaign,
        packages: Dict[str, ReproPackage],
        fsync: bool = False,
    ) -> "CheckpointWriter":
        return cls(open(path, "a"), campaign, packages, fsync=fsync)

    def round_begin(self, info) -> None:
        """Journal a round boundary (a :class:`RoundInfo`'s summary).

        Written after a round's Stage-1/2/3 work and *before* its first
        Stage-4 task, so a resumed campaign can verify that its recomputed
        round (corpus size, PMC totals, test count, first global task id)
        matches what the interrupted campaign actually ran — any drift
        means the resume would execute different tests under the same
        task ids, and must fail loudly instead.
        """
        obj = {"kind": "round", **info.to_obj()}
        obj["digest"] = _task_digest(obj)
        self._write(obj)

    def task_done(self, task_id: int, merged: bool = True) -> None:
        """Journal one task's contribution (call after merging it)."""
        from repro.orchestrate.results import record_to_obj

        new_records = self._campaign.records[self._nrecords :]
        self._nrecords = len(self._campaign.records)
        new_package_ids = [
            bug_id for bug_id in self._packages if bug_id not in self._package_ids
        ]
        self._package_ids.update(new_package_ids)
        obj = {
            "kind": "task",
            "task_id": task_id,
            "merged": merged,
            "counters": self._campaign.counters(),
            "records": [record_to_obj(r) for r in new_records],
            "packages": {
                bug_id: json.loads(self._packages[bug_id].to_json())
                for bug_id in new_package_ids
            },
        }
        obj["digest"] = _task_digest(obj)
        self._write(obj)

    def close(self) -> None:
        if self._fsync and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        self._handle.close()


def load_checkpoint(path: str) -> Tuple[Dict, List[Dict]]:
    """Read a journal: (header, task records in journal order).

    A torn final line (the campaign died mid-write) is discarded; a task
    record whose digest does not match its contents raises — the journal
    was corrupted rather than truncated.
    """
    header: Optional[Dict] = None
    tasks: List[Dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail: keep the valid prefix
            if obj.get("kind") == "header":
                header = obj
            elif obj.get("kind") == "task":
                digest = obj.pop("digest", None)
                if digest != _task_digest(obj):
                    raise CheckpointMismatch(
                        f"checkpoint {path!r}: task {obj.get('task_id')} "
                        f"record failed its digest check"
                    )
                tasks.append(obj)
    if header is None:
        raise CheckpointMismatch(f"checkpoint {path!r} has no header record")
    return header, tasks


def load_round_records(path: str) -> Dict[int, Dict]:
    """Read a journal's round-boundary records, keyed by round number.

    Same torn-tail/digest rules as :func:`load_checkpoint`; journals
    written by batch campaigns simply have none.
    """
    rounds: Dict[int, Dict] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                break  # torn tail: keep the valid prefix
            if obj.get("kind") != "round":
                continue
            digest = obj.pop("digest", None)
            if digest != _task_digest(obj):
                raise CheckpointMismatch(
                    f"checkpoint {path!r}: round {obj.get('round')} "
                    f"record failed its digest check"
                )
            rounds[int(obj["round"])] = obj
    return rounds


def verify_round_record(stored: Dict, info) -> None:
    """Raise :class:`CheckpointMismatch` when a resumed campaign's
    recomputed round diverges from the journalled one."""
    for name, value in info.to_obj().items():
        if stored.get(name) != value:
            raise CheckpointMismatch(
                f"round {info.round} mismatch on {name!r}: journal has "
                f"{stored.get(name)!r}, resumed campaign computed {value!r}"
            )


def verify_checkpoint_header(header: Dict, expected: Dict) -> None:
    """Raise :class:`CheckpointMismatch` when guarded fields differ."""
    for name in HEADER_GUARD_FIELDS:
        if name in expected and header.get(name) != expected[name]:
            raise CheckpointMismatch(
                f"checkpoint header mismatch on {name!r}: journal has "
                f"{header.get(name)!r}, campaign wants {expected[name]!r}"
            )


def restore_campaign(
    campaign,
    packages: Dict[str, ReproPackage],
    task_records: List[Dict],
) -> Set[int]:
    """Replay journal task records into a fresh campaign.

    Restores counters (from the last record — they are cumulative),
    observation records (bug ids re-derived), and reproduction packages.
    Returns the set of completed task ids to skip on resume.
    """
    from repro.orchestrate.results import record_from_obj

    completed: Set[int] = set()
    restored = []
    for obj in task_records:
        completed.add(int(obj["task_id"]))
        restored.extend(record_from_obj(r) for r in obj.get("records", []))
        for bug_id, package_obj in obj.get("packages", {}).items():
            packages.setdefault(
                bug_id, ReproPackage.from_json(json.dumps(package_obj))
            )
    if task_records:
        campaign.restore_counters(task_records[-1]["counters"])
    campaign.restore_records(restored)
    return completed
