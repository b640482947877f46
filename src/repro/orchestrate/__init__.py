"""Pipeline orchestration: the four Snowboard stages end to end.

`Snowboard` (the façade in :mod:`repro.orchestrate.pipeline`) wires
sequential test generation → profiling → PMC identification → clustered,
prioritised concurrent execution, and produces campaign statistics in the
shape of the paper's Tables 2 and 3.
"""

from repro.orchestrate.fleet import (
    WIRE_VERSION,
    FleetFault,
    ResultEnvelope,
    TaskEnvelope,
    WireFormatError,
    WorkerSpec,
)
from repro.orchestrate.pipeline import (
    ConcurrentTest,
    Snowboard,
    SnowboardConfig,
    Stage4Task,
    TrialOutcome,
    build_scheduler,
    run_task_trials,
)
from repro.orchestrate.queue import TaskFailure
from repro.orchestrate.results import CampaignResult, ObservationRecord

__all__ = [
    "ConcurrentTest",
    "FleetFault",
    "ResultEnvelope",
    "Snowboard",
    "SnowboardConfig",
    "Stage4Task",
    "TaskEnvelope",
    "TrialOutcome",
    "TaskFailure",
    "WIRE_VERSION",
    "WireFormatError",
    "WorkerSpec",
    "build_scheduler",
    "run_task_trials",
    "CampaignResult",
    "ObservationRecord",
]
