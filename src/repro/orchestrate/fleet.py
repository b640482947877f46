"""Transport-agnostic campaign fleet: coordinator/worker over a wire format.

The paper's real deployment pushed concurrent tests "to cloud workers
through a lightweight distributed queue" (§4.4.1) and ran for weeks on a
GCP fleet.  This module is the coordinator half of that topology: a
:class:`FleetCoordinator` owning queue semantics (leases, retries,
respawns, pool-exhaustion drain) over an abstract *transport* — the
thing that actually moves envelopes to workers and back.  Two transports
exist today:

* :class:`~repro.orchestrate.transport.MultiprocessingTransport` — N
  local worker processes connected by ``multiprocessing`` queues
  (``--fleet processes``).
* :class:`~repro.orchestrate.socketfleet.SocketTransport` — workers
  connected over TCP with length-prefixed JSON frames of the same
  envelopes (``--fleet sockets``; workers join via
  ``repro fleet-worker --connect HOST:PORT``).

Topology::

    coordinator ──(TaskEnvelope)──> transport ──> worker i  (private kernel)
    coordinator <─(ResultEnvelope │ HeartbeatEnvelope)─ transport <── worker i

Each worker has at most one outstanding task; the assignment *is* the
lease.  Liveness is message-based, not handle-based: every worker emits
a :class:`HeartbeatEnvelope` on the results channel every
``heartbeat_interval`` seconds (starting *before* its kernel boots), and
the coordinator declares a worker dead when no beat arrives for
``heartbeat_timeout`` seconds (``boot_grace`` covers the spawn-to-first-
beat window).  No ``Process.exitcode`` is consulted anywhere, which is
what lets a socket worker on another machine participate in the same
lease protocol.  The fault model:

* **Task failure** — ``run_task_trials`` raises ``Exception`` in the
  worker.  The worker survives and reports a ``task_error`` envelope;
  the coordinator re-dispatches the (deterministic) task up to
  ``max_task_retries`` times, then records a
  :class:`~repro.orchestrate.queue.TaskFailure`.
* **Worker death** — the worker stops beating (SIGKILL, OOM, a
  segfaulting extension, a dropped network link), or its lease expires
  while it still beats (wedged).  Before reclaiming, the coordinator
  drains the results channel: a final result already queued wins and the
  task is *not* charged a retry.  Otherwise the leased task is reclaimed
  and re-dispatched (counting one retry), and the worker is respawned —
  fresh process or fresh connection slot, fresh kernel — up to
  ``max_worker_respawns`` times.  Results and beats carry the worker's
  spawn ``generation``; anything stamped with a stale generation is
  discarded, so a reclaimed-then-slow predecessor can never corrupt its
  successor's accounting.
* **Pool exhaustion** — every worker is dead for good.  Unfinished tasks
  are drained into ``TaskFailure`` results ("worker pool exhausted"),
  so callers always get one result per task: no hang, no missing key.

Determinism contract: schedulers are seeded ``config.seed + task_id``
and the campaign merges results in task order, so a re-run after any of
the faults above — or a whole campaign under ``--fleet processes`` or
``--fleet sockets`` — is bit-identical to serial.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.detect.report import observation_from_obj, observation_to_obj
from repro.obs import NULL_OBSERVER
from repro.orchestrate.persistence import program_from_obj, program_to_obj
from repro.orchestrate.queue import TaskFailure, WorkerStats
from repro.pmc.model import AccessKey, PMC

#: Version stamp carried by every envelope; a coordinator and a worker
#: built from different checkouts must fail loudly, not mis-decode.
#: v2: outcome ``forked`` flag, task prefix-fork/prune-commuting knobs,
#: obs buffer prelude (the prefix-recording span).
#: v3: heartbeat liveness (``HeartbeatEnvelope``/``HelloEnvelope``),
#: spawn ``generation`` stamped on results, socket transport framing.
#: v4: results carry the trial plan's ``pruned`` count.
WIRE_VERSION = 4


class WireFormatError(ValueError):
    """An envelope from an incompatible peer (version mismatch)."""


def _check_version(version: int, what: str) -> None:
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"{what} has wire version {version}, this side speaks {WIRE_VERSION}"
        )


# -- wire format: PMCs, outcomes, tasks, results -----------------------------------


def pmc_to_obj(pmc: PMC) -> Dict:
    """A plain-data representation of a PMC (wire/JSON-ready)."""
    return {
        "write": {
            "addr": pmc.write.addr,
            "size": pmc.write.size,
            "ins": pmc.write.ins,
            "value": pmc.write.value,
        },
        "read": {
            "addr": pmc.read.addr,
            "size": pmc.read.size,
            "ins": pmc.read.ins,
            "value": pmc.read.value,
        },
        "df_leader": pmc.df_leader,
    }


def pmc_from_obj(obj: Dict) -> PMC:
    """Rebuild a PMC from :func:`pmc_to_obj` output."""
    return PMC(
        write=AccessKey(**obj["write"]),
        read=AccessKey(**obj["read"]),
        df_leader=bool(obj.get("df_leader", False)),
    )


def outcome_to_obj(outcome) -> Dict:
    """A plain-data representation of one TrialOutcome."""
    return {
        "trial": outcome.trial,
        "instructions": outcome.instructions,
        "pages_restored": outcome.pages_restored,
        "restore_seconds": outcome.restore_seconds,
        "races": outcome.races,
        "observations": [observation_to_obj(o) for o in outcome.observations],
        "channel_hit": outcome.channel_hit,
        "switch_points": list(outcome.switch_points),
        "console": list(outcome.console),
        "panic_message": outcome.panic_message,
        "forked": outcome.forked,
    }


def outcome_from_obj(obj: Dict):
    """Rebuild a TrialOutcome from :func:`outcome_to_obj` output."""
    from repro.orchestrate.pipeline import TrialOutcome

    return TrialOutcome(
        trial=obj["trial"],
        instructions=obj["instructions"],
        pages_restored=obj["pages_restored"],
        restore_seconds=obj["restore_seconds"],
        races=obj["races"],
        observations=tuple(observation_from_obj(o) for o in obj["observations"]),
        channel_hit=obj["channel_hit"],
        switch_points=tuple(obj["switch_points"]),
        console=tuple(obj["console"]),
        panic_message=obj["panic_message"],
        forked=bool(obj["forked"]),
    )


@dataclass(frozen=True)
class TaskEnvelope:
    """One Stage-4 task on the wire: everything a worker needs to run it.

    Programs and PMCs travel as plain-data objects (no pipeline classes
    in the pickle stream); the incidental-adoption ``universe`` is
    precomputed coordinator-side because workers have no corpus to
    derive it from.
    """

    task_id: int
    writer: Tuple
    reader: Tuple
    writer_test: int
    reader_test: int
    trials: int
    scheduler_kind: str = "snowboard"
    pmc: Optional[Dict] = None
    universe: Optional[Tuple[Dict, ...]] = None
    prefix_fork: bool = True
    prune_commuting: bool = False
    version: int = WIRE_VERSION

    @classmethod
    def from_task(cls, task, universe: Optional[Sequence[PMC]] = None) -> "TaskEnvelope":
        test = task.test
        return cls(
            task_id=task.task_id,
            writer=tuple(program_to_obj(test.writer)),
            reader=tuple(program_to_obj(test.reader)),
            writer_test=test.writer_test,
            reader_test=test.reader_test,
            trials=task.trials,
            scheduler_kind=task.scheduler_kind,
            pmc=pmc_to_obj(test.pmc) if test.pmc is not None else None,
            universe=(
                tuple(pmc_to_obj(p) for p in universe) if universe is not None else None
            ),
            prefix_fork=task.prefix_fork,
            prune_commuting=task.prune_commuting,
        )

    def to_task(self):
        """Decode back into a Stage4Task (worker side)."""
        from repro.orchestrate.pipeline import ConcurrentTest, Stage4Task

        _check_version(self.version, f"task envelope {self.task_id}")
        test = ConcurrentTest(
            writer=program_from_obj(list(self.writer)),
            reader=program_from_obj(list(self.reader)),
            writer_test=self.writer_test,
            reader_test=self.reader_test,
            pmc=pmc_from_obj(self.pmc) if self.pmc is not None else None,
        )
        return Stage4Task(
            task_id=self.task_id,
            test=test,
            trials=self.trials,
            scheduler_kind=self.scheduler_kind,
            prefix_fork=self.prefix_fork,
            prune_commuting=self.prune_commuting,
        )

    def universe_pmcs(self) -> Optional[List[PMC]]:
        if self.universe is None:
            return None
        return [pmc_from_obj(o) for o in self.universe]


@dataclass(frozen=True)
class ResultEnvelope:
    """One task's result on the wire.

    ``status`` is ``"ok"`` (decode ``outcomes``/obs buffers) or
    ``"task_error"`` (the worker survived but the task raised; the error
    travels as the same serializable record :class:`TaskFailure` uses).
    ``generation`` is the spawn generation the producing worker was
    handed at boot/handshake; the coordinator discards results whose
    generation no longer matches the slot (a reclaimed predecessor
    reporting late).  ``-1`` means "unstamped" — accepted for
    compatibility with hand-built envelopes in tests.  ``pruned`` is the
    number of budgeted trials the task's commuting-schedule plan skipped.
    """

    task_id: int
    worker_id: int
    status: str
    outcomes: Tuple[Dict, ...] = ()
    obs_prelude: Tuple[Dict, ...] = ()
    obs_trials: Tuple[Tuple[Dict, ...], ...] = ()
    obs_tail: Tuple[Dict, ...] = ()
    error_type: str = ""
    message: str = ""
    traceback_str: str = ""
    generation: int = -1
    pruned: int = 0
    version: int = WIRE_VERSION

    def decode(self):
        """Return ``(outcomes, obs_buffer, pruned)``, the shape
        ``run_task_trials`` returns; the buffer is None when tracing was
        off in the worker."""
        _check_version(self.version, f"result envelope {self.task_id}")
        outcomes = [outcome_from_obj(o) for o in self.outcomes]
        buffer = None
        if self.obs_prelude or self.obs_trials or self.obs_tail:
            buffer = {
                "prelude": list(self.obs_prelude),
                "trials": [list(chunk) for chunk in self.obs_trials],
                "tail": list(self.obs_tail),
            }
        return outcomes, buffer, self.pruned


@dataclass(frozen=True)
class HeartbeatEnvelope:
    """Worker → coordinator: "generation g of worker w is alive".

    Emitted every ``heartbeat_interval`` seconds from a thread started
    *before* the worker's kernel boots, so a slow boot never reads as a
    death.  Stale generations (a killed predecessor's last beats still
    draining) are ignored by the coordinator.
    """

    worker_id: int
    generation: int
    version: int = WIRE_VERSION


@dataclass(frozen=True)
class HelloEnvelope:
    """Worker → coordinator: first message after spawn/handshake.

    Carries the worker's wire version so an incompatible build is
    rejected with :class:`WireFormatError` *before* any envelope of its
    making is decoded.  Doubles as the first liveness signal.
    """

    worker_id: int
    generation: int
    version: int = WIRE_VERSION


@dataclass(frozen=True)
class _BootFailed:
    """Worker → coordinator: the private kernel failed to boot.

    Carries the worker's spawn ``generation`` so the coordinator can
    discard a stale report — the heartbeat path may have noticed the
    death and respawned the slot before this message drained, and the
    replacement must not be punished for its predecessor's crash.
    """

    worker_id: int
    generation: int
    error_type: str
    message: str
    traceback_str: str


# -- fault injection ---------------------------------------------------------------


@dataclass(frozen=True)
class FleetFault:
    """Test-only fault injection shipped to workers inside the spec.

    Real campaigns never set one; the fault-injection tests use it to
    make a worker SIGKILL itself mid-task (``kill_task_id``), wedge
    without dying (``hang_task_id``, exercising lease expiry) or die
    during boot (``kill_at_boot``).  ``once_marker`` names a file
    claimed atomically (O_CREAT|O_EXCL) so the fault fires exactly once
    across all worker processes and respawns; without it the fault fires
    every time (e.g. to exhaust the respawn budget).
    """

    kill_task_id: Optional[int] = None
    hang_task_id: Optional[int] = None
    kill_at_boot: bool = False
    once_marker: Optional[str] = None

    def claim(self) -> bool:
        """True when this process should fire the fault."""
        if self.once_marker is None:
            return True
        try:
            fd = os.open(self.once_marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True


# -- worker body -------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to boot — fully picklable and JSON-able.

    ``config`` is the campaign's SnowboardConfig (seed, budgets, fixed
    kernel, setup program); ``obs_epoch`` is the coordinator tracer's
    epoch so buffered worker events replay with comparable timestamps;
    ``heartbeat_interval`` paces the worker's liveness beats.
    """

    config: Any
    obs_enabled: bool = False
    obs_epoch: float = 0.0
    fault: Optional[FleetFault] = None
    heartbeat_interval: float = 0.5


def _boot_worker(spec: WorkerSpec):
    """Boot one worker's private kernel (the §4.4.1 VM analogue)."""
    from repro.kernel.kernel import boot_kernel
    from repro.orchestrate.pipeline import derive_initial_state
    from repro.sched.executor import Executor

    config = spec.config
    kernel, snapshot = boot_kernel(fixed=config.fixed_kernel)
    if config.setup_program is not None:
        snapshot = derive_initial_state(kernel, snapshot, config.setup_program)
    return Executor(kernel, snapshot, max_instructions=config.max_instructions)


def _execute_envelope(
    executor,
    spec: WorkerSpec,
    worker_id: int,
    envelope: TaskEnvelope,
    generation: int = -1,
):
    """Run one task envelope; never raises (errors become envelopes)."""
    from repro.orchestrate.pipeline import build_scheduler, run_task_trials

    try:
        task = envelope.to_task()
        scheduler = build_scheduler(
            spec.config,
            task.test,
            seed=spec.config.seed + task.task_id,
            kind=task.scheduler_kind,
            universe=envelope.universe_pmcs(),
        )
        outcomes, buffer, pruned = run_task_trials(
            executor,
            task,
            scheduler,
            obs_epoch=spec.obs_epoch if spec.obs_enabled else None,
        )
    except Exception as error:  # noqa: BLE001 - workers survive task errors
        return ResultEnvelope(
            task_id=envelope.task_id,
            worker_id=worker_id,
            status="task_error",
            error_type=type(error).__name__,
            message=str(error),
            traceback_str=traceback.format_exc(),
            generation=generation,
        )
    return ResultEnvelope(
        task_id=envelope.task_id,
        worker_id=worker_id,
        status="ok",
        outcomes=tuple(outcome_to_obj(o) for o in outcomes),
        obs_prelude=tuple(buffer["prelude"]) if buffer else (),
        obs_trials=(
            tuple(tuple(chunk) for chunk in buffer["trials"]) if buffer else ()
        ),
        obs_tail=tuple(buffer["tail"]) if buffer else (),
        generation=generation,
        pruned=pruned,
    )


def start_heartbeat(beat, interval: float) -> threading.Event:
    """Start a daemon thread invoking ``beat()`` every ``interval``
    seconds; returns the stop event.  The loop exits on the first
    failing beat — a dead results channel means the coordinator is gone
    and there is nobody left to reassure."""
    stop = threading.Event()

    def loop() -> None:
        while not stop.wait(interval):
            try:
                beat()
            except Exception:  # noqa: BLE001 - channel gone, nothing to do
                return

    threading.Thread(target=loop, daemon=True).start()
    return stop


def fleet_worker_main(
    worker_id: int, generation: int, spec: WorkerSpec, inq, outq
) -> None:
    """Entry point of one multiprocessing worker.

    Announce itself (:class:`HelloEnvelope` — the version handshake and
    first liveness signal), start the heartbeat thread, boot a private
    kernel (reporting :class:`_BootFailed` and exiting if that raises),
    then serve envelopes from the private dispatch queue until the
    ``None`` shutdown sentinel arrives.
    """
    outq.put(HelloEnvelope(worker_id, generation))
    stop_beats = start_heartbeat(
        lambda: outq.put(HeartbeatEnvelope(worker_id, generation)),
        spec.heartbeat_interval,
    )
    fault = spec.fault
    try:
        if fault is not None and fault.kill_at_boot and fault.claim():
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            executor = _boot_worker(spec)
        except Exception as error:  # noqa: BLE001 - boot crash -> respawn decision
            outq.put(
                _BootFailed(
                    worker_id,
                    generation,
                    type(error).__name__,
                    str(error),
                    traceback.format_exc(),
                )
            )
            return
        while True:
            envelope = inq.get()
            if envelope is None:
                return
            if (
                fault is not None
                and envelope.task_id == fault.kill_task_id
                and fault.claim()
            ):
                os.kill(os.getpid(), signal.SIGKILL)
            if (
                fault is not None
                and envelope.task_id == fault.hang_task_id
                and fault.claim()
            ):
                time.sleep(3600.0)
            outq.put(
                _execute_envelope(executor, spec, worker_id, envelope, generation)
            )
    finally:
        stop_beats.set()


# -- coordinator -------------------------------------------------------------------


@dataclass
class _WorkerSlot:
    """Coordinator-side state of one worker: its transport handle,
    current lease and its deadline, liveness clock, health counters."""

    worker_id: int
    stats: WorkerStats
    handle: Optional[Any] = None
    lease: Optional[TaskEnvelope] = None
    deadline: float = 0.0
    generation: int = 0
    last_beat: float = 0.0
    beaten: bool = False  # first heartbeat of this generation seen


class FleetCoordinator:
    """Coordinator over N workers behind a transport (§4.4.1 in miniature).

    :meth:`run` dispatches :class:`TaskEnvelope`s, enforces the lease +
    heartbeat protocol described in the module docstring, and returns
    one result — a :class:`ResultEnvelope` or a :class:`TaskFailure` —
    per envelope.  Per-worker health counters are left in
    :attr:`worker_stats`.

    The coordinator never looks at a process handle: everything it knows
    about a worker arrives as a message (hello, heartbeat, result, boot
    failure), which is what makes the loop identical for local process
    workers and remote socket workers.  A coordinator is single-use —
    :meth:`run` closes the transport on the way out.
    """

    def __init__(
        self,
        transport,
        nworkers: int = 2,
        max_task_retries: int = 0,
        max_worker_respawns: int = 2,
        lease_timeout: float = 120.0,
        heartbeat_timeout: float = 10.0,
        boot_grace: float = 60.0,
        poll_interval: float = 0.02,
        obs=NULL_OBSERVER,
    ):
        self.transport = transport
        self.nworkers = max(1, nworkers)
        self.max_task_retries = max_task_retries
        self.max_worker_respawns = max_worker_respawns
        self.lease_timeout = lease_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.boot_grace = boot_grace
        self.poll_interval = poll_interval
        self.obs = obs
        self.worker_stats: List[WorkerStats] = []
        self._slots: List[_WorkerSlot] = []
        self._pending: List[TaskEnvelope] = []
        self._results: Dict[int, Any] = {}
        self._attempts: Dict[int, int] = {}
        self._envelope_by_id: Dict[int, TaskEnvelope] = {}

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, slot: _WorkerSlot) -> None:
        """Start (or restart) one worker through the transport.  A fresh
        generation gets a fresh dispatch channel, so a task dispatched to
        a dead worker can never be double-claimed by its successor."""
        slot.generation += 1
        slot.handle = self.transport.spawn(slot.worker_id, slot.generation)
        slot.lease = None
        slot.last_beat = time.monotonic()
        slot.beaten = False

    def _retire(self, slot: _WorkerSlot) -> None:
        """Drop a dead worker's transport handle."""
        if slot.handle is not None:
            slot.handle.kill()
            slot.handle.join(timeout=5.0)
        slot.handle = None

    def _shutdown(self) -> None:
        for slot in self._slots:
            if slot.handle is not None:
                slot.handle.stop()
        for slot in self._slots:
            if slot.handle is not None:
                slot.handle.join(timeout=5.0)
                slot.handle.kill()
            slot.handle = None

    # -- fault handling -------------------------------------------------------

    def _record_worker_error(self, stats: WorkerStats, message: str) -> None:
        stats.last_error = RuntimeError(message)

    def _handle_death(self, slot: _WorkerSlot, reason: str) -> None:
        """One worker died (missed heartbeat, boot failure, or expired
        lease): reclaim its lease, charge a respawn, restart or retire it.

        The reclaimed task consumes one retry; when the worker's respawn
        budget is exhausted its leased task fails with it.  Before
        reclaiming, the results channel is drained — a final result the
        worker managed to queue before dying wins the race and its task
        is *not* charged a retry.
        """
        generation = slot.generation
        self._drain(block=False)
        if slot.generation != generation or slot.handle is None:
            return  # the drain already settled this slot's fate
        stats = slot.stats
        lease = slot.lease
        slot.lease = None
        self._retire(slot)
        stats.respawns += 1
        self._record_worker_error(stats, reason)
        out_of_respawns = stats.respawns > self.max_worker_respawns
        if out_of_respawns:
            stats.failed = True
        if self.obs.enabled:
            self.obs.event(
                "fleet.worker_died",
                worker_id=slot.worker_id,
                reason=reason,
                task=lease.task_id if lease is not None else None,
                respawned=not out_of_respawns,
            )
        if lease is not None and lease.task_id not in self._results:
            task_id = lease.task_id
            self._attempts[task_id] = self._attempts.get(task_id, 0) + 1
            if out_of_respawns or self._attempts[task_id] > self.max_task_retries:
                self._results[task_id] = TaskFailure(
                    task_id=task_id,
                    error_type="RuntimeError",
                    message=f"worker {slot.worker_id} died mid-task: {reason}",
                    attempts=self._attempts[task_id],
                )
            else:
                stats.retries += 1
                # Reclaimed leases go to the front: the task was next in
                # line before the death, and re-running it soonest keeps
                # retry latency bounded.
                self._pending.insert(0, lease)
                if self.obs.enabled:
                    self.obs.event(
                        "fleet.lease_reclaimed", task=task_id, reason=reason
                    )
        if not out_of_respawns:
            self._spawn(slot)

    def _handle_message(self, msg) -> None:
        if isinstance(msg, (HeartbeatEnvelope, HelloEnvelope)):
            if isinstance(msg, HelloEnvelope):
                _check_version(
                    msg.version, f"hello from worker {msg.worker_id}"
                )
            slot = self._slots[msg.worker_id]
            if msg.generation == slot.generation and slot.handle is not None:
                slot.last_beat = time.monotonic()
                slot.beaten = True
            return
        if isinstance(msg, _BootFailed):
            slot = self._slots[msg.worker_id]
            if msg.generation != slot.generation:
                return  # stale: the heartbeat path already handled this death
            self._handle_death(
                slot, f"boot failed: {msg.error_type}: {msg.message}"
            )
            return
        slot = self._slots[msg.worker_id]
        if msg.generation >= 0 and msg.generation != slot.generation:
            # A stale-generation result: its producer's lease was
            # reclaimed (heartbeat miss or lease expiry) and the slot
            # respawned, but the predecessor lived long enough to report.
            # The reclaimed task is already re-dispatched; both
            # executions are bit-identical, so dropping is lossless.
            if self.obs.enabled:
                self.obs.event(
                    "fleet.stale_result",
                    worker_id=msg.worker_id,
                    task=msg.task_id,
                    generation=msg.generation,
                )
            return
        slot.last_beat = time.monotonic()
        slot.beaten = True
        if slot.lease is not None and slot.lease.task_id == msg.task_id:
            lease = slot.lease
            slot.lease = None
        else:
            lease = None
        if msg.task_id in self._results:
            return  # first result wins; drop the duplicate
        if msg.status == "ok":
            slot.stats.tasks_done += 1
            self._results[msg.task_id] = msg
            return
        # task_error: the worker survived; retry on any live worker.
        self._attempts[msg.task_id] = self._attempts.get(msg.task_id, 0) + 1
        self._record_worker_error(
            slot.stats, f"{msg.error_type}: {msg.message}"
        )
        if self._attempts[msg.task_id] <= self.max_task_retries:
            slot.stats.retries += 1
            envelope = lease if lease is not None else self._envelope_by_id[msg.task_id]
            self._pending.insert(0, envelope)
        else:
            self._results[msg.task_id] = TaskFailure(
                task_id=msg.task_id,
                error_type=msg.error_type,
                message=msg.message,
                traceback_str=msg.traceback_str,
                attempts=self._attempts[msg.task_id],
            )

    # -- main loop ------------------------------------------------------------

    def _assign(self) -> None:
        for slot in self._slots:
            if not self._pending:
                return
            if (
                slot.handle is None
                or slot.lease is not None
                or not slot.handle.ready()
            ):
                continue
            while self._pending and self._pending[0].task_id in self._results:
                self._pending.pop(0)  # failed via another path while queued
            if not self._pending:
                return
            envelope = self._pending.pop(0)
            slot.lease = envelope
            slot.deadline = time.monotonic() + self.lease_timeout
            slot.handle.send(envelope)

    def _drain(self, block: bool = True) -> None:
        """Process queued messages: one timed poll, then everything
        immediately available."""
        msg = self.transport.recv(self.poll_interval if block else 0.0)
        while msg is not None:
            self._handle_message(msg)
            msg = self.transport.recv(0.0)

    def _reap(self) -> None:
        """Detect dead and wedged workers (missed heartbeat / expired
        lease).  Both verdicts kill through the handle first: a wedged
        worker must not keep executing a task the coordinator is about
        to re-dispatch."""
        now = time.monotonic()
        for slot in self._slots:
            if slot.handle is None:
                continue
            grace = self.heartbeat_timeout if slot.beaten else self.boot_grace
            if now > slot.last_beat + grace:
                slot.stats.heartbeats_missed += 1
                slot.handle.kill()
                self._handle_death(
                    slot,
                    f"missed heartbeat for {grace:.1f}s "
                    f"(generation {slot.generation})",
                )
            elif slot.lease is not None and now > slot.deadline:
                slot.handle.kill()
                self._handle_death(
                    slot, f"lease expired after {self.lease_timeout:.1f}s"
                )

    def _drain_exhausted(self, expected: Sequence[int]) -> None:
        """Pool exhaustion: every worker is dead for good.  Record a
        TaskFailure for every unfinished task, chaining the last worker
        error as the cause."""
        boot_error = next(
            (
                str(slot.stats.last_error)
                for slot in self._slots
                if slot.stats.failed and slot.stats.last_error is not None
            ),
            "",
        )
        for task_id in expected:
            if task_id in self._results:
                continue
            self._results[task_id] = TaskFailure(
                task_id=task_id,
                error_type="RuntimeError",
                message=f"worker pool exhausted before task {task_id} ran",
                attempts=self._attempts.get(task_id, 0),
                cause_type="RuntimeError" if boot_error else "",
                cause_message=boot_error,
            )

    def run(self, envelopes: Sequence[TaskEnvelope]) -> Dict[int, Any]:
        """Execute all envelopes; returns a result per task id.

        Values are :class:`ResultEnvelope` (decode for outcomes) or
        :class:`TaskFailure`.  The mapping always covers every input
        task id, whatever died along the way.
        """
        expected = [e.task_id for e in envelopes]
        if len(set(expected)) != len(expected):
            raise ValueError("duplicate task ids in fleet dispatch")
        try:
            self.worker_stats = [
                WorkerStats(worker_id=i) for i in range(self.nworkers)
            ]
            if not envelopes:
                return {}
            self._envelope_by_id = {e.task_id: e for e in envelopes}
            self._slots = [
                _WorkerSlot(i, self.worker_stats[i]) for i in range(self.nworkers)
            ]
            self._pending = sorted(envelopes, key=lambda e: e.task_id)
            self._results = {}
            self._attempts = {}
            for slot in self._slots:
                self._spawn(slot)
            try:
                while len(self._results) < len(expected):
                    self._assign()
                    self._drain()
                    self._reap()
                    if all(slot.handle is None for slot in self._slots):
                        # Late messages may still sit in the channel (a
                        # worker can report and die before the
                        # coordinator looks).
                        self._drain(block=False)
                        self._drain_exhausted(expected)
            finally:
                self._shutdown()
        finally:
            self.transport.close()
        if self.obs.enabled:
            # One health event per worker, in worker-id order.
            for slot in self._slots:
                stats = slot.stats
                self.obs.event(
                    "fleet.worker",
                    worker_id=stats.worker_id,
                    tasks_done=stats.tasks_done,
                    retries=stats.retries,
                    respawns=stats.respawns,
                    heartbeats_missed=stats.heartbeats_missed,
                    failed=stats.failed,
                )
        return self._results
