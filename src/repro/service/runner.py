"""Executing one job's campaign, one round per scheduler turn.

The runner is a thin wrapper around the existing round engine: each
turn is exactly one ``run_rounds(1, ...)`` call against the job's
checkpoint journal.  That single decision buys every service guarantee
for free:

* **Preemption** — ``run_rounds`` closes the journal writer when it
  returns, so between turns the job is fully persisted and another
  tenant's job can own the Snowboard thread.
* **Resumption** — the next turn opens the same journal with
  ``resume=True``; round numbering, selection RNG streams and Stage-4
  task seeds are all derived from the journal + spec, so a preempted
  job continues bit-identically.
* **Restart** — after a daemon kill the runner starts from a fresh
  :class:`Snowboard`; its first turns *replay* the journalled rounds
  (Stage 1-3 recomputed deterministically, Stage-4 tasks skipped) until
  the live frontier is reached.  The final summary is bit-identical to
  the same spec run solo through ``run_rounds(spec.rounds)``, which the
  service tests pin.

Repeated ``run_rounds(1)`` calls journal a header with ``rounds=1`` —
consistent across every turn of every job, so the header guard holds.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.durable import write_atomic
from repro.obs import JsonlSink, Observer, TeeSink, read_trace
from repro.orchestrate.pipeline import Snowboard
from repro.orchestrate.results import CampaignResult
from repro.service.jobs import CampaignJob
from repro.service.registry import JobRegistry


class JobRunner:
    """Owns one job's Snowboard instance and per-job observability."""

    def __init__(
        self, job: CampaignJob, registry: JobRegistry, mirror=None
    ):
        self.job = job
        self.registry = registry
        self._mirror = mirror  # shared daemon-wide sink (never closed here)
        self._snowboard: Optional[Snowboard] = None
        self._observer: Optional[Observer] = None
        self.last_result: Optional[CampaignResult] = None

    # -- lazy construction -----------------------------------------------------

    def _ensure(self) -> Snowboard:
        if self._snowboard is not None:
            return self._snowboard
        job = self.job
        trace_path = self.registry.trace_path(job.job_id)
        sink = JsonlSink(
            trace_path,
            header={
                "job_id": job.job_id,
                "tenant": job.tenant,
                **job.spec.to_obj(),
            },
            append=True,
        )
        resumed = sink.resumed
        if self._mirror is not None:
            sink = TeeSink(sink, self._mirror)
        self._observer = Observer(sink)
        if resumed:
            self._restore_metrics(trace_path)
        self._snowboard = Snowboard(job.spec.config(), observer=self._observer)
        return self._snowboard

    def _restore_metrics(self, trace_path: str) -> None:
        """Continue funnel counters from the last pre-restart snapshot."""
        try:
            _, events = read_trace(trace_path)
        except ValueError:
            return  # unreadable trace: counters restart, campaign unaffected
        last = None
        for record in events:
            if record.get("kind") == "metrics":
                last = record
        if last is not None:
            self._observer.metrics.restore(last)

    # -- the turn --------------------------------------------------------------

    def step(self) -> bool:
        """Advance the job by one round; True when the campaign finished.

        A replayed round (post-restart catch-up) and a live round are
        the same call — ``run_rounds`` itself decides which Stage-4
        tasks the journal already holds.
        """
        snowboard = self._ensure()
        spec = self.job.spec
        checkpoint = self.registry.checkpoint_path(self.job.job_id)
        result = snowboard.run_rounds(
            1,
            round_budget=spec.round_budget,
            strategy=spec.strategy,
            scheduler_kind=spec.scheduler_kind,
            trials=spec.trials,
            workers=spec.workers,
            corpus_growth=spec.growth(),
            checkpoint_path=checkpoint,
            resume=os.path.exists(checkpoint),
            fleet=spec.fleet,
        )
        self.last_result = result
        self.job.rounds_done = max(
            self.job.rounds_done, snowboard.state.round
        )
        if snowboard.state.round >= spec.rounds:
            self._finalize(snowboard, result)
            return True
        return False

    def _finalize(self, snowboard: Snowboard, result: CampaignResult) -> None:
        """Persist the terminal artifacts a tenant fetches later."""
        write_atomic(
            self.registry.summary_path(self.job.job_id),
            json.dumps(result.summary(), indent=2, sort_keys=True) + "\n",
        )
        packages_dir = self.registry.packages_dir(self.job.job_id)
        os.makedirs(packages_dir, exist_ok=True)
        for bug_id, package in snowboard.repro_packages.items():
            package.save(os.path.join(packages_dir, f"{bug_id}.json"))

    # -- status ----------------------------------------------------------------

    def status(self) -> Dict:
        """Live counters for the status API (cheap, lock-holder calls it)."""
        out: Dict = {"rounds_done": self.job.rounds_done}
        if self.last_result is not None:
            out["counters"] = self.last_result.counters()
            out["distinct_bugs"] = self.last_result.distinct_bugs
        if self._observer is not None:
            snapshot = self._observer.metrics.snapshot()
            out["funnel"] = snapshot["counters"]
        return out

    def close(self) -> None:
        if self._observer is not None:
            self._observer.close()
            self._observer = None
        self._snowboard = None
