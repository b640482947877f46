"""The durable job table: an append-only registry journal + per-job dirs.

Layout under the service data directory::

    registry.jsonl            lifecycle journal (submit/state/snapshot)
    endpoint                  "host:port" of the listening daemon
    service.jsonl             daemon-wide obs trace (all jobs teed)
    jobs/<job_id>/
        checkpoint.jsonl      the job's campaign journal (run_rounds)
        trace.jsonl           the job's obs trace (appends across restarts)
        summary.json          final CampaignResult.summary() (terminal jobs)
        packages/<bug>.json   reproduction packages (terminal jobs)
        snapshots/<id>.jsonl  frozen copies of the campaign journal

The registry is a journal in the sense of :mod:`repro.durable`, like
the campaign checkpoint: every record is one flushed, digest-protected
JSON line, and the crash contract is the same: SIGKILL the daemon at
any point, reopen the registry, and every job is back with its exact
state (jobs that were mid-turn come back ``pending`` and re-enter the
scheduler; their campaign journals make the replay bit-identical).
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Optional

from repro.durable import JournalWriter, read_records
from repro.orchestrate.persistence import record_digest
from repro.service.jobs import (
    FAILED,
    PENDING,
    RUNNING,
    CampaignJob,
    JobSpec,
)


class RegistryError(ValueError):
    """Unknown job, bad snapshot, or a corrupted registry record."""


class JobRegistry:
    """All jobs the service has ever accepted, durably journalled."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(os.path.join(self.root, "jobs"), exist_ok=True)
        self.path = os.path.join(self.root, "registry.jsonl")
        self.jobs: Dict[str, CampaignJob] = {}
        self._next_id = 1
        self._replay()
        self._journal = JournalWriter(self.path, append=True, sort_keys=True)

    # -- journal ---------------------------------------------------------------

    def _append(self, obj: Dict) -> None:
        obj["digest"] = record_digest(obj)
        self._journal.append(obj)

    def _replay(self) -> None:
        """Rebuild the job table from the journal."""
        if os.path.exists(self.path):
            for obj in read_records(self.path):
                digest = obj.pop("digest", None)
                if digest != record_digest(obj):
                    raise RegistryError(
                        f"registry {self.path!r}: record failed its digest "
                        f"check ({obj.get('kind')!r})"
                    )
                self._apply(obj)
        # Jobs that owned a scheduler turn when the daemon died come
        # back as pending — their campaign journal holds every merged
        # task, so the replayed rounds land bit-identically.
        for job in self.jobs.values():
            if job.state == RUNNING:
                job.state = PENDING
            if not job.terminal:
                # A daemon from before JobSpec.validate checked field
                # types journalled whatever it was sent; such a job fails
                # here rather than mid-turn or, worse, running misread.
                try:
                    job.spec.validate()
                except ValueError as error:
                    job.state, job.error = FAILED, f"invalid spec: {error}"

    def _apply(self, obj: Dict) -> None:
        kind = obj.get("kind")
        if kind == "submit":
            job = CampaignJob.from_obj(obj["job"])
            self.jobs[job.job_id] = job
            self._next_id = max(self._next_id, job.submit_seq + 1)
        elif kind == "state":
            job = self.jobs.get(str(obj["job_id"]))
            if job is None:
                raise RegistryError(
                    f"registry {self.path!r}: state record for unknown "
                    f"job {obj.get('job_id')!r}"
                )
            job.state = str(obj["state"])
            job.rounds_done = int(obj.get("rounds_done", job.rounds_done))
            job.error = str(obj.get("error", job.error))
        elif kind == "snapshot":
            job = self.jobs.get(str(obj["job_id"]))
            if job is not None:
                job.snapshot_seq = max(
                    job.snapshot_seq, int(obj.get("snapshot_seq", 0))
                )
        # Unknown kinds are skipped: newer daemons may add record types,
        # and an old reader must still recover every job it understands.

    # -- job table -------------------------------------------------------------

    def job(self, job_id: str) -> CampaignJob:
        job = self.jobs.get(job_id)
        if job is None:
            raise RegistryError(f"unknown job {job_id!r}")
        return job

    def list(self, tenant: Optional[str] = None) -> List[CampaignJob]:
        jobs = sorted(self.jobs.values(), key=lambda j: j.submit_seq)
        if tenant is None:
            return jobs
        return [j for j in jobs if j.tenant == tenant]

    def submit(
        self,
        tenant: str,
        spec: JobSpec,
        forked_from: str = "",
        checkpoint_source: str = "",
    ) -> CampaignJob:
        spec.validate()
        if not tenant:
            raise ValueError("tenant must be non-empty")
        seq = self._next_id
        self._next_id += 1
        job = CampaignJob(
            job_id=f"job-{seq:04d}",
            tenant=tenant,
            spec=spec,
            forked_from=forked_from,
            submit_seq=seq,
        )
        os.makedirs(self.job_dir(job.job_id), exist_ok=True)
        # The checkpoint must exist before the submit record is
        # journalled: a crash between the two otherwise recovers a
        # forked child that silently starts from round one while its
        # forked_from provenance claims the snapshot.  The inverse
        # crash (checkpoint copied, record never landed) leaves an
        # orphan under a job id that will be reused — clear it so a
        # fresh submit never adopts another job's journal.
        checkpoint = self.checkpoint_path(job.job_id)
        if os.path.exists(checkpoint):
            os.remove(checkpoint)
        if checkpoint_source and os.path.getsize(checkpoint_source) > 0:
            shutil.copyfile(checkpoint_source, checkpoint)
        self.jobs[job.job_id] = job
        self._append({"kind": "submit", "job": job.to_obj()})
        return job

    def record_state(self, job: CampaignJob) -> None:
        """Journal the job's current lifecycle state (call after every
        transition — this line is what a restarted daemon replays)."""
        self._append(
            {
                "kind": "state",
                "job_id": job.job_id,
                "state": job.state,
                "rounds_done": job.rounds_done,
                "error": job.error,
            }
        )

    # -- per-job paths ---------------------------------------------------------

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.root, "jobs", job_id)

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "checkpoint.jsonl")

    def trace_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "trace.jsonl")

    def summary_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "summary.json")

    def packages_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "packages")

    def snapshots_dir(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "snapshots")

    def snapshot_path(self, job_id: str, snapshot_id: str) -> str:
        return os.path.join(self.snapshots_dir(job_id), f"{snapshot_id}.jsonl")

    # -- snapshots + forks -----------------------------------------------------

    def snapshot(self, job_id: str) -> str:
        """Freeze the job's campaign journal under a new snapshot id.

        Safe at any moment: the journal is append-only and flushed line
        by line, so a copy taken mid-append is a valid prefix (a torn
        final line is discarded by the loader).  A job that has not run
        yet snapshots to an empty journal — forking it starts a sibling
        from round one.
        """
        job = self.job(job_id)
        job.snapshot_seq += 1
        snapshot_id = f"snap-{job.snapshot_seq:04d}"
        os.makedirs(self.snapshots_dir(job_id), exist_ok=True)
        target = self.snapshot_path(job_id, snapshot_id)
        source = self.checkpoint_path(job_id)
        if os.path.exists(source):
            shutil.copyfile(source, target)
        else:
            open(target, "w").close()
        self._append(
            {
                "kind": "snapshot",
                "job_id": job_id,
                "snapshot_id": snapshot_id,
                "snapshot_seq": job.snapshot_seq,
                "rounds_done": job.rounds_done,
            }
        )
        return snapshot_id

    def fork(
        self,
        job_id: str,
        snapshot_id: str,
        tenant: str,
        rounds: Optional[int] = None,
    ) -> CampaignJob:
        """A new job continuing bit-identically from a parent snapshot.

        The child inherits the parent's spec verbatim (the journal
        header guards it) except for an optionally *extended* round
        target, and starts with the snapshot as its campaign journal —
        so its first rounds replay the parent's completed work and its
        remaining rounds run live, exactly as if the parent had kept
        going.
        """
        parent = self.job(job_id)
        source = self.snapshot_path(job_id, snapshot_id)
        if not os.path.exists(source):
            raise RegistryError(
                f"job {job_id!r} has no snapshot {snapshot_id!r}"
            )
        spec = parent.spec
        if rounds is not None:
            spec = spec.extended(rounds)
        return self.submit(
            tenant,
            spec,
            forked_from=f"{job_id}/{snapshot_id}",
            checkpoint_source=source,
        )

    def close(self) -> None:
        self._journal.close()
