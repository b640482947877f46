"""Socket fleet: the wire format over TCP, workers on any machine.

The ROADMAP's remaining fleet extension: the envelopes of
:mod:`repro.orchestrate.fleet` framed as length-prefixed JSON over a TCP
connection, so Stage-4 workers no longer have to be children of the
coordinator process.  ``--fleet sockets`` starts a
:class:`SocketTransport` under the ordinary
:class:`~repro.orchestrate.fleet.FleetCoordinator`; workers either
auto-spawn locally (the default, a drop-in for ``--fleet processes``) or
connect from anywhere with ``repro fleet-worker --connect HOST:PORT``.

Framing: every frame is a 4-byte big-endian length followed by that many
bytes of UTF-8 JSON with a ``"kind"`` discriminator.

Worker → coordinator: ``hello`` (token + wire version, the handshake),
``heartbeat``, ``result`` (a ResultEnvelope), ``boot_failed``.
Coordinator → worker: ``welcome`` (assigned worker id + generation +
the full :class:`~repro.orchestrate.fleet.WorkerSpec`), ``reject``,
``task`` (a TaskEnvelope), ``shutdown``.

Handshake: a connecting worker sends ``hello``; the coordinator verifies
the shared token and the wire version (a mismatched build is *rejected*,
and the worker surfaces :class:`~repro.orchestrate.fleet.WireFormatError`
— never a mis-decoded envelope), then assigns the connection to the
oldest worker slot awaiting one and answers ``welcome``.  Everything a
worker needs — campaign config, setup program, fault injection,
heartbeat pacing — travels in the welcome frame, so a bare
``repro fleet-worker`` invocation needs only the endpoint and the token.

Reconnect-as-fresh-worker: connections carry no durable identity.  A
worker that loses its link (or is killed and restarted by an operator)
simply handshakes again and claims whatever slot is waiting — typically
the slot its own death vacated, respawned at a higher generation.  Stale
results from the old incarnation are discarded by the coordinator's
generation check.  Worker death is detected purely by missed heartbeats;
an EOF on the connection is *not* treated as a death report (a dead link
and a dead worker are indistinguishable here, and the heartbeat deadline
already covers both).
"""

from __future__ import annotations

import dataclasses
import json
import os
import secrets
import signal
import socket
import struct
import threading
import time
import traceback
from collections import deque
from typing import Any, Dict, Optional, Tuple

import multiprocessing as mp
import queue as stdqueue

from repro.orchestrate.fleet import (
    WIRE_VERSION,
    FleetFault,
    HeartbeatEnvelope,
    ResultEnvelope,
    TaskEnvelope,
    WireFormatError,
    WorkerSpec,
    _BootFailed,
    _boot_worker,
    _check_version,
    _execute_envelope,
    start_heartbeat,
)
from repro.orchestrate.persistence import program_from_obj, program_to_obj

# -- framing -----------------------------------------------------------------------

_LEN = struct.Struct(">I")

#: Upper bound on one frame's payload; a length prefix beyond this is a
#: corrupt or hostile stream, not a big result.
MAX_FRAME_BYTES = 256 * 1024 * 1024


def send_frame(sock: socket.socket, obj: Dict, lock: Optional[threading.Lock] = None) -> None:
    """Write one length-prefixed JSON frame (atomically under ``lock``)."""
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    payload = _LEN.pack(len(data)) + data
    if lock is not None:
        with lock:
            sock.sendall(payload)
    else:
        sock.sendall(payload)


def _recv_exact(sock: socket.socket, nbytes: int) -> Optional[bytes]:
    buf = bytearray()
    while len(buf) < nbytes:
        chunk = sock.recv(nbytes - len(buf))
        if not chunk:
            return None
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> Optional[Dict]:
    """Read one frame; ``None`` on a clean EOF mid-boundary.

    A payload that is not a JSON object (undecodable, nested past the
    decoder's depth, or a list, string or number) raises
    :class:`WireFormatError`.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(
            f"frame length {length} exceeds {MAX_FRAME_BYTES} bytes"
        )
    data = _recv_exact(sock, length)
    if data is None:
        return None
    try:
        frame = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        raise WireFormatError(f"undecodable frame: {error}") from None
    if not isinstance(frame, dict):
        raise WireFormatError(f"frame holds a {type(frame).__name__}, not an object")
    return frame


# -- JSON codecs for the envelopes -------------------------------------------------


def _from_fields(cls, obj: Dict, what: str):
    known = set(cls.__dataclass_fields__)
    unknown = set(obj) - known
    if unknown:
        raise WireFormatError(f"{what} carries unknown fields {sorted(unknown)}")
    return cls(**obj)


def task_envelope_to_obj(envelope: TaskEnvelope) -> Dict:
    return dataclasses.asdict(envelope)


def task_envelope_from_obj(obj: Dict) -> TaskEnvelope:
    return _from_fields(TaskEnvelope, obj, "task frame")


def result_envelope_to_obj(envelope: ResultEnvelope) -> Dict:
    return dataclasses.asdict(envelope)


def result_envelope_from_obj(obj: Dict) -> ResultEnvelope:
    return _from_fields(ResultEnvelope, obj, "result frame")


def config_to_obj(config) -> Dict:
    """A SnowboardConfig as plain JSON data (setup program included)."""
    out: Dict = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name == "setup_program" and value is not None:
            value = program_to_obj(value)
        out[field.name] = value
    return out


def config_from_obj(obj: Dict):
    from repro.orchestrate.pipeline import SnowboardConfig

    obj = dict(obj)
    known = {f.name for f in dataclasses.fields(SnowboardConfig)}
    unknown = set(obj) - known
    if unknown:
        raise WireFormatError(
            f"welcome config carries unknown fields {sorted(unknown)}"
        )
    if obj.get("setup_program") is not None:
        obj["setup_program"] = program_from_obj(obj["setup_program"])
    return SnowboardConfig(**obj)


def worker_spec_to_obj(spec: WorkerSpec) -> Dict:
    return {
        "config": config_to_obj(spec.config),
        "obs_enabled": spec.obs_enabled,
        "obs_epoch": spec.obs_epoch,
        "fault": dataclasses.asdict(spec.fault) if spec.fault is not None else None,
        "heartbeat_interval": spec.heartbeat_interval,
    }


def worker_spec_from_obj(obj: Dict) -> WorkerSpec:
    fault = obj.get("fault")
    return WorkerSpec(
        config=config_from_obj(obj["config"]),
        obs_enabled=bool(obj.get("obs_enabled", False)),
        obs_epoch=float(obj.get("obs_epoch", 0.0)),
        fault=FleetFault(**fault) if fault is not None else None,
        heartbeat_interval=float(obj.get("heartbeat_interval", 0.5)),
    )


# -- coordinator side: the transport -----------------------------------------------


class _SocketHandle:
    """One worker slot generation awaiting — or owning — a connection."""

    def __init__(self, worker_id: int, generation: int):
        self.worker_id = worker_id
        self.generation = generation
        self.conn: Optional[socket.socket] = None
        self.process = None  # auto-spawned local worker, if any
        self.cancelled = False
        self._send_lock = threading.Lock()

    def attach(self, conn: socket.socket) -> bool:
        if self.cancelled:
            return False
        self.conn = conn
        return True

    def ready(self) -> bool:
        return self.conn is not None and not self.cancelled

    def send(self, envelope: TaskEnvelope) -> None:
        conn = self.conn
        if conn is None:
            return
        try:
            send_frame(
                conn,
                {"kind": "task", "envelope": task_envelope_to_obj(envelope)},
                lock=self._send_lock,
            )
        except OSError:
            pass  # the missed-heartbeat path reclaims the lease

    def stop(self) -> None:
        conn = self.conn
        if conn is not None:
            try:
                send_frame(conn, {"kind": "shutdown"}, lock=self._send_lock)
            except OSError:
                pass

    def kill(self) -> None:
        self.cancelled = True
        conn, self.conn = self.conn, None
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - double close
                pass
        if self.process is not None:
            self.process.kill()

    def join(self, timeout: float = 5.0) -> None:
        if self.process is not None:
            self.process.join(timeout=timeout)


class SocketTransport:
    """TCP transport: listen, handshake, frame envelopes both ways.

    ``spawn_workers=True`` (the default) launches one local
    ``socket_worker_main`` process per spawned slot — ``--fleet sockets``
    is then self-contained, exercising the full network path on
    localhost.  With ``spawn_workers=False`` the transport only listens:
    slots wait for external ``repro fleet-worker`` connections, and a
    slot whose worker never dials in is respawned by the coordinator
    when its boot grace expires.

    Single-use, like every transport: :meth:`close` releases the
    listening port (important for fixed-port multi-round campaigns,
    where each round binds the same endpoint afresh and external
    workers reconnect as fresh workers).
    """

    def __init__(
        self,
        spec: WorkerSpec,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        spawn_workers: bool = True,
        start_method: str = "spawn",
        handshake_timeout: float = 10.0,
    ):
        self.spec = spec
        self.token = token or secrets.token_hex(16)
        self.spawn_workers = spawn_workers
        self.handshake_timeout = handshake_timeout
        self._start_method = start_method
        self._listener = socket.create_server((host, port))
        self.host = host
        self.port = self._listener.getsockname()[1]
        self._inbox: "stdqueue.Queue" = stdqueue.Queue()
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._waiting: "deque[_SocketHandle]" = deque()
        self._handles: list = []
        self._procs: Dict[int, Any] = {}  # pid -> auto-spawned local worker
        self._closed = False
        threading.Thread(target=self._accept_loop, daemon=True).start()

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def _connect_host(self) -> str:
        return "127.0.0.1" if self.host in ("", "0.0.0.0", "::") else self.host

    # -- Transport protocol ----------------------------------------------------

    def spawn(self, worker_id: int, generation: int) -> _SocketHandle:
        handle = _SocketHandle(worker_id, generation)
        with self._available:
            if self._closed:
                raise RuntimeError("spawn on a closed SocketTransport")
            self._waiting.append(handle)
            self._handles.append(handle)
            self._available.notify()
        if self.spawn_workers:
            ctx = mp.get_context(self._start_method)
            process = ctx.Process(
                target=socket_worker_main,
                args=(self._connect_host(), self.port, self.token),
                kwargs={"reconnect": False},
                daemon=True,
            )
            process.start()
            # NOT attached to this handle: slots are claimed in connect
            # order, so which process ends up serving which slot is
            # decided at handshake time (the hello frame carries the pid).
            with self._available:
                self._procs[process.pid] = process
        return handle

    def recv(self, timeout: float) -> Optional[Any]:
        try:
            if timeout <= 0:
                return self._inbox.get_nowait()
            return self._inbox.get(timeout=timeout)
        except stdqueue.Empty:
            return None

    def close(self) -> None:
        with self._available:
            if self._closed:
                return
            self._closed = True
            self._waiting.clear()
            self._available.notify_all()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        for handle in self._handles:
            handle.kill()
        for handle in self._handles:
            handle.join(timeout=5.0)
        with self._available:
            leftover = list(self._procs.values())
            self._procs.clear()
        for process in leftover:  # spawned but never completed a handshake
            process.kill()
        for process in leftover:
            process.join(timeout=5.0)

    # -- accept / handshake / reader threads ------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._handshake, args=(conn,), daemon=True
            ).start()

    def _reject(self, conn: socket.socket, code: str, error: str) -> None:
        try:
            send_frame(conn, {"kind": "reject", "code": code, "error": error})
        except OSError:
            pass
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass

    def _claim_handle(self, deadline: float) -> Optional[_SocketHandle]:
        """The oldest worker slot awaiting a connection (blocks until one
        appears, the deadline passes, or the transport closes)."""
        with self._available:
            while True:
                while self._waiting:
                    handle = self._waiting.popleft()
                    if not handle.cancelled:
                        return handle
                if self._closed:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._available.wait(timeout=remaining):
                    return None

    def _handshake(self, conn: socket.socket) -> None:
        try:
            conn.settimeout(self.handshake_timeout)
            hello = recv_frame(conn)
        except (OSError, ValueError, WireFormatError):
            self._reject(conn, "malformed", "unreadable hello frame")
            return
        if not isinstance(hello, dict) or hello.get("kind") != "hello":
            self._reject(conn, "malformed", "expected a hello frame")
            return
        if hello.get("token") != self.token:
            self._reject(conn, "token", "bad or missing fleet token")
            return
        advertised = hello.get("wire_version")
        if advertised != WIRE_VERSION:
            self._reject(
                conn,
                "wire_version",
                f"worker speaks wire version {advertised}, "
                f"this coordinator speaks {WIRE_VERSION}",
            )
            return
        handle = self._claim_handle(time.monotonic() + self.handshake_timeout)
        if handle is None:
            self._reject(conn, "no_slot", "no worker slot awaiting a connection")
            return
        try:
            send_frame(
                conn,
                {
                    "kind": "welcome",
                    "worker_id": handle.worker_id,
                    "generation": handle.generation,
                    "wire_version": WIRE_VERSION,
                    "spec": worker_spec_to_obj(self.spec),
                },
            )
            conn.settimeout(None)
        except OSError:
            conn.close()
            return  # slot self-heals: its boot grace expires and it respawns
        if not handle.attach(conn):
            conn.close()
            return  # killed between claim and attach
        pid = hello.get("pid")
        if isinstance(pid, int):
            # Pair the slot with the auto-spawned local process that
            # actually dialed in (if it is one of ours), so handle.kill()
            # reaps the right process.  External workers' pids are
            # meaningless here and simply miss the dict.
            with self._available:
                handle.process = self._procs.pop(pid, None)
        # The completed handshake is the first liveness signal.
        self._inbox.put(HeartbeatEnvelope(handle.worker_id, handle.generation))
        threading.Thread(
            target=self._reader, args=(handle, conn), daemon=True
        ).start()

    def _reader(self, handle: _SocketHandle, conn: socket.socket) -> None:
        worker_id, generation = handle.worker_id, handle.generation
        while True:
            try:
                frame = recv_frame(conn)
            except (OSError, ValueError, WireFormatError):
                return
            if frame is None:
                return  # EOF: death (if any) surfaces via missed heartbeat
            kind = frame.get("kind")
            if kind == "heartbeat":
                self._inbox.put(HeartbeatEnvelope(worker_id, generation))
            elif kind == "result":
                try:
                    envelope = result_envelope_from_obj(frame["envelope"])
                except (KeyError, TypeError, WireFormatError):
                    continue  # malformed: the lease path will recover the task
                # The handshake assignment is authoritative — stamp it over
                # whatever the worker believes its identity is.
                self._inbox.put(
                    dataclasses.replace(
                        envelope, worker_id=worker_id, generation=generation
                    )
                )
            elif kind == "boot_failed":
                self._inbox.put(
                    _BootFailed(
                        worker_id,
                        generation,
                        str(frame.get("error_type", "")),
                        str(frame.get("message", "")),
                        str(frame.get("traceback", "")),
                    )
                )
            # unknown kinds within a matching wire version are ignored


# -- worker side -------------------------------------------------------------------


def connect_worker(
    host: str,
    port: int,
    token: str,
    wire_version: Optional[int] = None,
    timeout: float = 10.0,
) -> Tuple[socket.socket, Dict]:
    """Dial a coordinator and handshake; returns ``(socket, welcome)``.

    Raises :class:`WireFormatError` when the coordinator rejects the
    advertised wire version (or speaks a different one itself),
    ``PermissionError`` on a token mismatch, and ``ConnectionError`` for
    anything else that cuts the handshake short.  ``wire_version``
    overrides the advertised version — the forward-compat tests dial in
    as a build from the future.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        send_frame(
            sock,
            {
                "kind": "hello",
                "token": token,
                "wire_version": WIRE_VERSION if wire_version is None else wire_version,
                # Lets a coordinator that auto-spawned this worker pair the
                # claimed slot with the right local process: slots are
                # claimed in connect order, not spawn order, so killing
                # "the process spawned with this slot" would murder
                # whichever innocent worker dialed in first.
                "pid": os.getpid(),
            },
        )
        reply = recv_frame(sock)
        if reply is None:
            raise ConnectionError("coordinator closed during handshake")
        if reply.get("kind") == "reject":
            code = reply.get("code", "")
            error = str(reply.get("error", "rejected"))
            if code == "wire_version":
                raise WireFormatError(error)
            if code == "token":
                raise PermissionError(error)
            raise ConnectionError(f"handshake rejected: {error}")
        if reply.get("kind") != "welcome":
            raise ConnectionError(f"unexpected handshake reply {reply.get('kind')!r}")
        _check_version(int(reply.get("wire_version", -1)), "welcome frame")
        sock.settimeout(None)
        return sock, reply
    except BaseException:
        sock.close()
        raise


def _serve_connection(sock: socket.socket, welcome: Dict) -> bool:
    """Serve one authenticated connection until shutdown or loss.

    Returns True on a clean shutdown (or terminal boot failure — no
    point redialing a deterministic crash), False when the link dropped
    and the caller may reconnect as a fresh worker.
    """
    worker_id = int(welcome["worker_id"])
    generation = int(welcome["generation"])
    spec = worker_spec_from_obj(welcome["spec"])
    send_lock = threading.Lock()
    stop_beats = start_heartbeat(
        lambda: send_frame(sock, {"kind": "heartbeat"}, lock=send_lock),
        spec.heartbeat_interval,
    )
    fault = spec.fault
    try:
        if fault is not None and fault.kill_at_boot and fault.claim():
            os.kill(os.getpid(), signal.SIGKILL)
        try:
            executor = _boot_worker(spec)
        except Exception as error:  # noqa: BLE001 - boot crash -> coordinator call
            try:
                send_frame(
                    sock,
                    {
                        "kind": "boot_failed",
                        "error_type": type(error).__name__,
                        "message": str(error),
                        "traceback": traceback.format_exc(),
                    },
                    lock=send_lock,
                )
            except OSError:
                pass
            return True
        while True:
            try:
                frame = recv_frame(sock)
            except OSError:
                return False
            if frame is None:
                return False
            kind = frame.get("kind")
            if kind == "shutdown":
                return True
            if kind != "task":
                continue
            envelope = task_envelope_from_obj(frame["envelope"])
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
            result = _execute_envelope(
                executor, spec, worker_id, envelope, generation
            )
            try:
                send_frame(
                    sock,
                    {"kind": "result", "envelope": result_envelope_to_obj(result)},
                    lock=send_lock,
                )
            except OSError:
                return False
    finally:
        stop_beats.set()


def socket_worker_main(
    host: str,
    port: int,
    token: str,
    reconnect: bool = True,
    connect_deadline: float = 20.0,
) -> int:
    """Entry point of one socket worker (``repro fleet-worker``).

    Dials the coordinator (retrying refused connections until
    ``connect_deadline`` — the coordinator may still be binding), serves
    the connection, and — when ``reconnect`` is set — redials after a
    lost link to claim a fresh slot.  Returns a process exit status.
    """
    while True:
        sock = welcome = None
        deadline = time.monotonic() + connect_deadline
        while True:
            try:
                sock, welcome = connect_worker(host, port, token)
                break
            except (WireFormatError, PermissionError):
                raise  # incompatible build / wrong token: retrying cannot help
            except OSError:
                if time.monotonic() >= deadline:
                    return 1  # coordinator gone (campaign over, most likely)
                time.sleep(0.2)
        try:
            clean = _serve_connection(sock, welcome)
        finally:
            sock.close()
        if clean or not reconnect:
            return 0
