"""The fleet transport protocol and its multiprocessing implementation.

:class:`~repro.orchestrate.fleet.FleetCoordinator` is transport-blind:
everything it does to a worker goes through two small protocols defined
here.  A **Transport** owns the results channel and mints worker
handles; a **WorkerHandle** is one spawned worker generation — send it
a task, stop it, kill it.  Liveness never appears in either protocol:
it is message-based (:class:`~repro.orchestrate.fleet.HeartbeatEnvelope`
on the results channel), which is the property that lets the same
coordinator drive local processes and remote socket workers.

Implementations:

* :class:`MultiprocessingTransport` (here) — ``--fleet processes``:
  local worker processes over ``multiprocessing`` queues and pipes.
* :class:`~repro.orchestrate.socketfleet.SocketTransport` —
  ``--fleet sockets``: workers over TCP with length-prefixed JSON
  frames; workers may live on other machines and join via
  ``repro fleet-worker --connect HOST:PORT``.
"""

from __future__ import annotations

import threading
from collections import deque
from multiprocessing.connection import wait as wait_readable
from typing import Any, List, Optional, Protocol, runtime_checkable

import multiprocessing as mp

from repro.orchestrate.fleet import TaskEnvelope, WorkerSpec, fleet_worker_main


@runtime_checkable
class WorkerHandle(Protocol):
    """One spawned worker generation, as the coordinator sees it."""

    def send(self, envelope: TaskEnvelope) -> None:
        """Dispatch a task (best-effort: a broken channel is surfaced by
        the missed-heartbeat path, not by this call)."""

    def ready(self) -> bool:
        """True when the handle can accept a task right now (a socket
        worker is not ready until its handshake completes)."""

    def stop(self) -> None:
        """Request a graceful exit (shutdown sentinel / frame)."""

    def kill(self) -> None:
        """Hard-kill the worker / sever its connection.  Idempotent."""

    def join(self, timeout: float = 5.0) -> None:
        """Best-effort wait for the worker to be gone."""


@runtime_checkable
class Transport(Protocol):
    """Spawns worker handles and carries their messages back.

    ``recv`` returns one message — a ``ResultEnvelope``,
    ``HeartbeatEnvelope``, ``HelloEnvelope`` or ``_BootFailed`` — or
    ``None`` when ``timeout`` elapses with nothing queued.  A transport
    is single-use: ``close`` releases the channel (and, for sockets, the
    listening port) and no spawn may follow it.
    """

    def spawn(self, worker_id: int, generation: int) -> WorkerHandle:
        """Start one worker generation; returns its handle."""

    def recv(self, timeout: float) -> Optional[Any]:
        """Next queued worker message, or None after ``timeout``."""

    def close(self) -> None:
        """Release the results channel and every spawned resource."""


class _ProcessHandle:
    """A local worker process plus its private dispatch queue."""

    def __init__(self, process, inq):
        self.process = process
        self.inq = inq

    def send(self, envelope: TaskEnvelope) -> None:
        try:
            self.inq.put(envelope)
        except Exception:  # pragma: no cover - feeder already gone
            pass  # the missed-heartbeat path reclaims the lease

    def ready(self) -> bool:
        return True  # queue buffers: dispatchable from the moment of spawn

    def stop(self) -> None:
        try:
            self.inq.put(None)
        except Exception:  # pragma: no cover - feeder already gone
            pass

    def kill(self) -> None:
        self.process.kill()

    def join(self, timeout: float = 5.0) -> None:
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=timeout)
        if self.inq is not None:
            self.inq.close()
            self.inq = None


class _ResultsPipe:
    """A worker generation's end of its private results pipe.

    The worker body calls ``put`` from its main thread (results) and its
    heartbeat thread, so sends are serialised by a lock that lives and
    dies with the worker process.  A ``multiprocessing.Queue`` shared by
    every worker serialises its writers with a lock shared across
    processes instead: a worker killed while holding it silences every
    other worker for good.
    """

    def __init__(self, conn):
        self._conn = conn
        self._lock = threading.Lock()

    def __getstate__(self):
        return self._conn  # the lock is per process: rebuilt on arrival

    def __setstate__(self, conn) -> None:
        self.__init__(conn)

    def put(self, message: Any) -> None:
        with self._lock:
            self._conn.send(message)


class MultiprocessingTransport:
    """Local worker processes over ``multiprocessing`` queues and pipes.

    Each worker generation gets a private dispatch queue, so a task
    dispatched to a dead worker can never be double-claimed by its
    successor, and a private results pipe (heartbeats and results
    interleave on it), so a worker that dies mid-send breaks only its
    own channel.
    """

    def __init__(self, spec: WorkerSpec, start_method: str = "spawn"):
        self.spec = spec
        self._ctx = mp.get_context(start_method)
        self._readers: List[Any] = []
        self._inbox: deque = deque()

    def spawn(self, worker_id: int, generation: int) -> _ProcessHandle:
        inq = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=fleet_worker_main,
            args=(worker_id, generation, self.spec, inq, _ResultsPipe(writer)),
            daemon=True,
        )
        process.start()
        writer.close()  # the worker holds the only write end: its exit reads as EOF
        self._readers.append(reader)
        return _ProcessHandle(process, inq)

    def recv(self, timeout: float) -> Optional[Any]:
        if not self._inbox:
            for reader in wait_readable(self._readers, max(timeout, 0.0)):
                try:
                    self._inbox.append(reader.recv())
                except (EOFError, OSError):
                    # The worker exited, or died mid-message: its channel
                    # is done, and the heartbeat path handles the death.
                    self._readers.remove(reader)
                    reader.close()
        return self._inbox.popleft() if self._inbox else None

    def close(self) -> None:
        for reader in self._readers:
            reader.close()
        self._readers = []
