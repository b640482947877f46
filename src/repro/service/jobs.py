"""Typed campaign-job resources: what one tenant submits to the service.

A :class:`CampaignJob` is the unit of service traffic — one tenant's
round-based campaign, described by an immutable :class:`JobSpec` (the
knobs :meth:`~repro.orchestrate.pipeline.Snowboard.run_rounds` takes)
plus mutable lifecycle state.  The state machine is deliberately small::

    pending ──> running ──> done
       │    ▲      │  ▲       (terminal)
       │    │      ▼  │
       │    └── paused┘
       │           │
       └───────────┴──> cancelled / failed   (terminal)

``pending`` means "queued for its next scheduler turn"; ``running``
means "owns the current turn or is between turns"; pausing takes effect
at the next round boundary (round granularity is the service's
preemption unit).  Terminal states never transition again.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Optional

from repro.orchestrate.pipeline import (
    SnowboardConfig,
    check_campaign_args,
    round_growth,
)

# -- lifecycle states --------------------------------------------------------------

PENDING = "pending"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

ALL_STATES = (PENDING, RUNNING, PAUSED, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Legal state-machine edges; anything else is a caller bug (HTTP 409).
VALID_TRANSITIONS: Dict[str, frozenset] = {
    PENDING: frozenset({RUNNING, PAUSED, CANCELLED}),
    RUNNING: frozenset({PENDING, PAUSED, DONE, FAILED, CANCELLED}),
    PAUSED: frozenset({PENDING, CANCELLED}),
    DONE: frozenset(),
    FAILED: frozenset(),
    CANCELLED: frozenset(),
}


class InvalidTransition(ValueError):
    """The requested lifecycle edge is not in :data:`VALID_TRANSITIONS`."""


#: The JSON type each :class:`JobSpec` annotation admits, and its name in
#: errors.  A spec arrives as JSON, so nothing else checks these; a
#: ``bool`` is never an integer or a number here.
_SPEC_TYPES = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
}


@dataclass(frozen=True)
class JobSpec:
    """The immutable campaign definition of one job.

    Field for field the arguments of :meth:`Snowboard.run_rounds` plus
    the :class:`SnowboardConfig` knobs the service exposes.  The spec is
    frozen at submit time: the job's checkpoint journal header guards
    these values, so editing a spec mid-flight would make the journal
    unreadable — fork a new job instead.
    """

    rounds: int = 1
    round_budget: int = 50
    seed: int = 7
    corpus_budget: int = 260
    trials: int = 16
    corpus_growth: Optional[int] = None
    strategy: str = "S-INS-PAIR"
    scheduler_kind: str = "snowboard"
    workers: int = 1
    # None: serial for one worker, a process fleet above that.
    fleet: Optional[str] = None
    fixed_kernel: bool = False
    max_instructions: int = 60_000
    prefix_fork: bool = True
    prune_commuting: bool = False
    # Per-job fleet knobs (None = the pipeline's defaults).  A job with
    # these set runs each turn on its own transport-backed fleet; the
    # knobs are tuning only — summaries stay bit-identical to a solo
    # ``run_rounds`` with the same values, and to the defaults.
    lease_timeout: Optional[float] = None
    heartbeat_interval: Optional[float] = None
    heartbeat_timeout: Optional[float] = None

    def validate(self) -> None:
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            kind = spec_field.type.removeprefix("Optional[").removesuffix("]")
            if value is None and kind != spec_field.type:
                continue
            types, label = _SPEC_TYPES[kind]
            if isinstance(value, bool) and kind != "bool" or not isinstance(value, types):
                raise ValueError(f"{spec_field.name} must be {label}, got {value!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.round_budget < 1:
            raise ValueError(
                f"round_budget must be at least 1, got {self.round_budget}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        check_campaign_args(self.strategy, self.scheduler_kind, self.fleet)
        if self.fleet is not None and self.workers <= 1:
            raise ValueError(f"fleet {self.fleet!r} requires workers > 1")
        for name in ("lease_timeout", "heartbeat_interval", "heartbeat_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("corpus_budget", "corpus_growth", "max_instructions"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must not be negative, got {value}")

    def config(self) -> SnowboardConfig:
        """The pipeline config this spec describes."""
        fleet_knobs = {}
        if self.lease_timeout is not None:
            fleet_knobs["fleet_lease_timeout"] = self.lease_timeout
        if self.heartbeat_interval is not None:
            fleet_knobs["fleet_heartbeat_interval"] = self.heartbeat_interval
        if self.heartbeat_timeout is not None:
            fleet_knobs["fleet_heartbeat_timeout"] = self.heartbeat_timeout
        return SnowboardConfig(
            seed=self.seed,
            corpus_budget=self.corpus_budget,
            trials_per_pmc=self.trials,
            max_instructions=self.max_instructions,
            fixed_kernel=self.fixed_kernel,
            prefix_fork=self.prefix_fork,
            prune_commuting=self.prune_commuting,
            **fleet_knobs,
        )

    def growth(self) -> int:
        """The resolved per-round corpus growth.

        :func:`round_growth` is :meth:`run_rounds`' own rule, so a job
        stepped one round at a time and a solo ``run_rounds(spec.rounds)``
        draw the same fuzzing streams.
        """
        return round_growth(self.corpus_budget, self.corpus_growth)

    def to_obj(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: Dict) -> "JobSpec":
        spec = cls.read(obj)
        spec.validate()
        return spec

    @classmethod
    def read(cls, obj: Dict) -> "JobSpec":
        """The spec ``obj`` names, not validated: the registry replays
        specs an older daemon accepted and this one may reject."""
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        if obj.get("fleet") == "threads":
            # The default before the in-process thread fleet was retired,
            # so every older registry journal (and older client) says it;
            # the fleet kind never changes results, so it reads as unset.
            obj = {**obj, "fleet": None}
        return cls(**obj)

    def extended(self, rounds: int) -> "JobSpec":
        """The same spec with a (possibly larger) round target — the
        fork-from-snapshot path, where a child may explore further."""
        if rounds < self.rounds:
            raise ValueError(
                f"forked rounds {rounds} below parent target {self.rounds}"
            )
        return replace(self, rounds=rounds)


@dataclass
class CampaignJob:
    """One tenant's campaign and its lifecycle state."""

    job_id: str
    tenant: str
    spec: JobSpec
    state: str = PENDING
    rounds_done: int = 0
    error: str = ""
    forked_from: str = ""  # "job-0001/snap-0001" provenance, "" for roots
    submit_seq: int = 0  # registry ordering (stable across restarts)
    snapshot_seq: int = field(default=0, repr=False)  # snapshots taken so far

    def transition(self, new_state: str) -> None:
        if new_state not in VALID_TRANSITIONS.get(self.state, frozenset()):
            raise InvalidTransition(
                f"job {self.job_id}: illegal transition "
                f"{self.state!r} -> {new_state!r}"
            )
        self.state = new_state

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_obj(self) -> Dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "spec": self.spec.to_obj(),
            "state": self.state,
            "rounds_done": self.rounds_done,
            "error": self.error,
            "forked_from": self.forked_from,
            "submit_seq": self.submit_seq,
        }

    @classmethod
    def from_obj(cls, obj: Dict) -> "CampaignJob":
        return cls(
            job_id=str(obj["job_id"]),
            tenant=str(obj["tenant"]),
            spec=JobSpec.read(obj["spec"]),
            state=str(obj.get("state", PENDING)),
            rounds_done=int(obj.get("rounds_done", 0)),
            error=str(obj.get("error", "")),
            forked_from=str(obj.get("forked_from", "")),
            submit_seq=int(obj.get("submit_seq", 0)),
        )
