"""Campaign statistics: the raw material of Tables 2 and 3.

A campaign is one strategy run over a test budget.  It records every
deduplicated bug observation with the position (tests executed so far)
at which it was first seen — the tests-executed analogue of Table 3's
"days taken to find".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Tuple

from repro.detect.catalog import match_observations
from repro.detect.report import (
    BugObservation,
    observation_from_obj,
    observation_to_obj,
)
from repro.orchestrate.queue import WorkerStats


@dataclass
class ObservationRecord:
    """First sighting of one deduplicated observation."""

    observation: BugObservation
    test_index: int  # how many concurrent tests had been executed
    trial: int  # trial number within that test
    bug_id: str = "unmatched"


def record_to_obj(record: ObservationRecord) -> Dict:
    """A JSON-ready representation of one record (checkpoint use)."""
    return {
        "observation": observation_to_obj(record.observation),
        "test_index": record.test_index,
        "trial": record.trial,
    }


def record_from_obj(obj: Dict) -> ObservationRecord:
    """Rebuild a record from :func:`record_to_obj` output (bug ids are
    re-derived by the next :meth:`CampaignResult._match_records` pass)."""
    return ObservationRecord(
        observation=observation_from_obj(obj["observation"]),
        test_index=int(obj["test_index"]),
        trial=int(obj["trial"]),
    )


#: The CampaignResult counters a checkpoint journal snapshots per task.
COUNTER_FIELDS = (
    "tested_pmcs",
    "trials",
    "instructions",
    "exercised_pmcs",
    "task_failures",
    "pages_restored",
    "restore_seconds",
)


@dataclass
class CampaignResult:
    """Everything measured during one strategy campaign."""

    strategy: str
    exemplar_pmcs: int = 0  # number of clusters (selected exemplars)
    tested_pmcs: int = 0  # concurrent tests actually executed
    trials: int = 0
    instructions: int = 0
    exercised_pmcs: int = 0  # tests whose PMC channel actually occurred
    records: List[ObservationRecord] = field(default_factory=list)
    # -- throughput bookkeeping (the §5.4 executions/minute story) --------
    workers: int = 1  # Stage-4 worker count (1 = serial execution)
    task_failures: int = 0  # parallel tasks that crashed (not merged)
    task_retries: int = 0  # failed task attempts that were re-executed
    worker_respawns: int = 0  # worker reboots (factory crash / BaseException)
    worker_stats: List[WorkerStats] = field(default_factory=list, repr=False)
    pages_restored: int = 0  # snapshot pages copied back across all trials
    restore_seconds: float = 0.0  # wall time spent in snapshot restore
    wall_seconds: float = 0.0  # wall time of the whole Stage-4 execution
    _seen_keys: set = field(default_factory=set, repr=False)

    def record_observations(
        self, observations: List[BugObservation], test_index: int, trial: int
    ) -> List[ObservationRecord]:
        """Dedup and store new observations; returns the fresh ones."""
        fresh = []
        for obs in observations:
            if obs.key in self._seen_keys:
                continue
            self._seen_keys.add(obs.key)
            record = ObservationRecord(obs, test_index, trial)
            fresh.append(record)
            self.records.append(record)
        if fresh:
            self._match_records()
        return fresh

    @property
    def seen_keys(self) -> AbstractSet:
        """The observation dedup keys recorded so far (a live view)."""
        return self._seen_keys

    # -- checkpoint restore (orchestrate.persistence journal replay) ---------

    def counters(self) -> Dict[str, object]:
        """Snapshot of the journalled counters (see COUNTER_FIELDS)."""
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def restore_counters(self, counters: Dict[str, object]) -> None:
        """Overwrite the journalled counters from a checkpoint snapshot."""
        for name in COUNTER_FIELDS:
            if name in counters:
                setattr(self, name, type(getattr(self, name))(counters[name]))

    def restore_records(self, records: List[ObservationRecord]) -> None:
        """Re-adopt checkpointed observation records (dedup keys included),
        then re-derive bug ids — the journal does not trust stored ids."""
        for record in records:
            if record.observation.key in self._seen_keys:
                continue
            self._seen_keys.add(record.observation.key)
            self.records.append(record)
        if self.records:
            self._match_records()

    def _match_records(self) -> None:
        grouped = match_observations([r.observation for r in self.records])
        assignment: Dict[Tuple, str] = {}
        for bug_id, obs_list in grouped.items():
            for obs in obs_list:
                assignment[obs.key] = bug_id
        for record in self.records:
            record.bug_id = assignment.get(record.observation.key, "unmatched")

    # -- summaries -----------------------------------------------------------

    def bugs_found(self) -> Dict[str, int]:
        """bug id -> tests executed when first found (catalogued bugs only)."""
        found: Dict[str, int] = {}
        for record in self.records:
            if record.bug_id == "unmatched":
                continue
            if record.bug_id not in found or record.test_index < found[record.bug_id]:
                found[record.bug_id] = record.test_index
        return found

    @property
    def distinct_bugs(self) -> int:
        return len(self.bugs_found())

    @property
    def accuracy(self) -> float:
        """Fraction of tested PMCs whose channel was actually exercised."""
        if self.tested_pmcs == 0:
            return 0.0
        return self.exercised_pmcs / self.tested_pmcs

    # -- throughput (nondeterministic: wall-clock based, so kept out of
    # -- summary(), which must be bit-stable across identical campaigns) --

    @property
    def trials_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.trials / self.wall_seconds

    @property
    def executions_per_minute(self) -> float:
        """The §5.4 headline number (paper: 193.8 for Snowboard)."""
        return self.trials_per_second * 60.0

    @property
    def pages_per_trial(self) -> float:
        """Mean snapshot pages copied back per trial (reset cost)."""
        if self.trials == 0:
            return 0.0
        return self.pages_restored / self.trials

    @property
    def restore_fraction(self) -> float:
        """Fraction of Stage-4 wall time spent restoring snapshots."""
        if self.wall_seconds <= 0:
            return 0.0
        return min(1.0, self.restore_seconds / self.wall_seconds)

    def throughput(self) -> Dict[str, object]:
        """Wall-clock throughput figures (not part of ``summary()``)."""
        return {
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 4),
            "trials_per_second": round(self.trials_per_second, 2),
            "executions_per_minute": round(self.executions_per_minute, 1),
            "pages_per_trial": round(self.pages_per_trial, 2),
            "restore_fraction": round(self.restore_fraction, 4),
            "task_failures": self.task_failures,
            "task_retries": self.task_retries,
            "worker_respawns": self.worker_respawns,
        }

    def adopt_worker_stats(self, stats: List[WorkerStats]) -> None:
        """Fold one fleet run's per-worker stats into the campaign."""
        self.worker_stats.extend(stats)
        self.task_retries += sum(s.retries for s in stats)
        self.worker_respawns += sum(s.respawns for s in stats)

    def table_row(self) -> str:
        """One Table 3-style row."""
        bugs = self.bugs_found()
        issues = ", ".join(f"{bug_id} (@{at})" for bug_id, at in sorted(bugs.items()))
        exemplars = str(self.exemplar_pmcs) if self.exemplar_pmcs else "NA"
        return (
            f"{self.strategy:<22} {exemplars:>10} {self.tested_pmcs:>12} "
            f"{issues or '-'}"
        )

    def summary(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "exemplar_pmcs": self.exemplar_pmcs,
            "tested_pmcs": self.tested_pmcs,
            "trials": self.trials,
            "instructions": self.instructions,
            "exercised_pmcs": self.exercised_pmcs,
            "accuracy": round(self.accuracy, 3),
            "bugs": self.bugs_found(),
            "observations": len(self.records),
            "task_failures": self.task_failures,
        }


TABLE3_HEADER = (
    f"{'Strategy':<22} {'Exemplars':>10} {'Tested':>12} Issues found (@tests executed)"
)
