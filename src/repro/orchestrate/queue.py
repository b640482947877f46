"""Fleet records shared by the coordinator and the campaign result.

The paper distributes concurrent tests to cloud workers through a simple
queue (section 4.4.1).  Here that queue is
:class:`~repro.orchestrate.fleet.FleetCoordinator`, which owns the fault
model (task retries, worker respawns, pool-exhaustion drain).  This
module holds the two plain records it reports through: a
:class:`TaskFailure` per task it gave up on, and a :class:`WorkerStats`
per worker.
"""

from __future__ import annotations

import builtins
import traceback
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class TaskFailure:
    """A task whose payload raised instead of returning.

    Stored as the task's result so that a legitimately-returned exception
    object is distinguishable from a worker crash.  ``attempts`` counts
    how many times the payload was executed before giving up (0 when the
    task never ran — e.g. the worker pool died before claiming it).

    The failure is a *serializable record* of the exception — type name,
    message, formatted traceback, and the same for its ``__cause__`` —
    never the live ``BaseException``.  Live exceptions are frequently
    unpicklable (tracebacks pin frames; exception args can hold locks or
    whole kernels), which would poison any result channel that crosses a
    process boundary.  Build one with :meth:`from_exception`; the
    :attr:`error` property reconstructs a best-effort exception object
    for callers that want one.
    """

    task_id: int
    error_type: str = "RuntimeError"
    message: str = ""
    traceback_str: str = ""
    attempts: int = 1
    cause_type: str = ""
    cause_message: str = ""

    @classmethod
    def from_exception(
        cls, task_id: int, error: BaseException, attempts: int = 1
    ) -> "TaskFailure":
        """Capture a live exception (and its ``__cause__``) as a record."""
        cause = error.__cause__
        try:
            tb = "".join(
                traceback.format_exception(type(error), error, error.__traceback__)
            )
        except Exception:  # pragma: no cover - formatting never should fail
            tb = ""
        return cls(
            task_id=task_id,
            error_type=type(error).__name__,
            message=str(error),
            traceback_str=tb,
            attempts=attempts,
            cause_type=type(cause).__name__ if cause is not None else "",
            cause_message=str(cause) if cause is not None else "",
        )

    @staticmethod
    def _rebuild(type_name: str, message: str) -> BaseException:
        exc_type = getattr(builtins, type_name, None)
        if not (isinstance(exc_type, type) and issubclass(exc_type, BaseException)):
            return RuntimeError(f"{type_name}: {message}")
        try:
            return exc_type(message)
        except Exception:  # exotic constructor signature
            return RuntimeError(f"{type_name}: {message}")

    @property
    def error(self) -> BaseException:
        """A reconstructed exception (builtin types keep their class).

        Compatibility shim for callers that predate the serializable
        record; ``__cause__`` is re-chained when one was captured.
        """
        error = self._rebuild(self.error_type, self.message)
        if self.cause_type:
            error.__cause__ = self._rebuild(self.cause_type, self.cause_message)
        return error

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"task {self.task_id} failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )


@dataclass
class WorkerStats:
    """Per-worker fleet bookkeeping (tasks done, retries, respawns).

    The analogue of per-VM health counters on the paper's GCP fleet:
    how much work the worker did, how often its tasks had to be
    retried, how often the worker itself had to be rebooted, and whether
    it eventually died for good.
    """

    worker_id: int
    tasks_done: int = 0
    retries: int = 0  # payload attempts that failed and were re-run
    respawns: int = 0  # worker restarts (death, boot failure or expired lease)
    heartbeats_missed: int = 0  # liveness deadlines blown
    failed: bool = False  # respawn budget exhausted; worker permanently dead
    last_error: Optional[BaseException] = field(default=None, repr=False)
