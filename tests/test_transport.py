"""The fleet transport layer: protocol conformance, socket framing and
handshake, heartbeat liveness, and the lease/generation edge cases.

Everything campaign-shaped lives in ``test_fleet.py``; this file tests
the machinery underneath with scripted stub transports (deterministic
races the real fleets only hit under load) and real TCP sockets (the
handshake and framing paths of ``--fleet sockets``).
"""

from __future__ import annotations

import queue as stdqueue
import socket
import time
from typing import List

import pytest

from repro.orchestrate.fleet import (
    WIRE_VERSION,
    FleetCoordinator,
    HeartbeatEnvelope,
    HelloEnvelope,
    ResultEnvelope,
    TaskEnvelope,
    WireFormatError,
    WorkerSpec,
    _BootFailed,
)
from repro.orchestrate.socketfleet import (
    SocketTransport,
    config_from_obj,
    config_to_obj,
    connect_worker,
    recv_frame,
    result_envelope_from_obj,
    result_envelope_to_obj,
    send_frame,
    task_envelope_from_obj,
    task_envelope_to_obj,
    worker_spec_from_obj,
    worker_spec_to_obj,
)
from repro.orchestrate.transport import (
    MultiprocessingTransport,
    Transport,
    WorkerHandle,
)
from repro.orchestrate.pipeline import SnowboardConfig
from repro.orchestrate.queue import TaskFailure


def make_envelope(task_id: int) -> TaskEnvelope:
    """A syntactically valid envelope; stub workers never execute it."""
    return TaskEnvelope(
        task_id=task_id,
        writer=(),
        reader=(),
        writer_test=0,
        reader_test=1,
        trials=1,
    )


# -- scripted stub transport -------------------------------------------------------


class StubHandle:
    """A worker handle whose behaviour is a pair of callbacks."""

    def __init__(self, transport, worker_id, generation, on_task=None, on_kill=None):
        self.transport = transport
        self.worker_id = worker_id
        self.generation = generation
        self.on_task = on_task
        self.on_kill = on_kill
        self.killed = False
        self.stopped = False

    def emit(self, msg) -> None:
        self.transport.inbox.put(msg)

    def send(self, envelope: TaskEnvelope) -> None:
        if self.on_task is not None:
            self.on_task(self, envelope)

    def ready(self) -> bool:
        return True

    def stop(self) -> None:
        self.stopped = True

    def kill(self) -> None:
        if not self.killed and self.on_kill is not None:
            self.on_kill(self)
        self.killed = True

    def join(self, timeout: float = 5.0) -> None:
        pass


class StubTransport:
    """Spawns scripted handles: one ``(on_spawn, on_task, on_kill)``
    behaviour triple per spawn call, in order; the last repeats."""

    def __init__(self, behaviors: List[dict]):
        self.behaviors = list(behaviors)
        self.inbox: "stdqueue.Queue" = stdqueue.Queue()
        self.spawned: List[StubHandle] = []
        self.closed = False

    def spawn(self, worker_id: int, generation: int) -> StubHandle:
        behavior = self.behaviors.pop(0) if len(self.behaviors) > 1 else self.behaviors[0]
        handle = StubHandle(
            self,
            worker_id,
            generation,
            on_task=behavior.get("on_task"),
            on_kill=behavior.get("on_kill"),
        )
        self.spawned.append(handle)
        on_spawn = behavior.get("on_spawn")
        if on_spawn is not None:
            on_spawn(handle)
        return handle

    def recv(self, timeout: float):
        try:
            if timeout <= 0:
                return self.inbox.get_nowait()
            return self.inbox.get(timeout=timeout)
        except stdqueue.Empty:
            return None

    def close(self) -> None:
        self.closed = True


def make_coordinator(transport, **kwargs) -> FleetCoordinator:
    kwargs.setdefault("nworkers", 1)
    kwargs.setdefault("max_task_retries", 1)
    kwargs.setdefault("max_worker_respawns", 2)
    kwargs.setdefault("heartbeat_timeout", 0.3)
    kwargs.setdefault("boot_grace", 5.0)
    kwargs.setdefault("poll_interval", 0.01)
    return FleetCoordinator(transport, **kwargs)


class TestProtocolConformance:
    def test_stub_and_real_transports_satisfy_protocols(self):
        transport = StubTransport([{}])
        assert isinstance(transport, Transport)
        assert isinstance(transport.spawn(0, 1), WorkerHandle)
        mp_transport = MultiprocessingTransport(
            WorkerSpec(config=SnowboardConfig())
        )
        assert isinstance(mp_transport, Transport)
        mp_transport.close()

    def test_socket_transport_satisfies_protocol(self):
        transport = SocketTransport(
            WorkerSpec(config=SnowboardConfig()), spawn_workers=False
        )
        try:
            assert isinstance(transport, Transport)
            assert isinstance(transport.spawn(0, 1), WorkerHandle)
        finally:
            transport.close()


def heard(transport, worker_id: int, count: int, timeout: float = 20.0) -> bool:
    """True once ``count`` messages from ``worker_id`` arrive in time."""
    deadline = time.monotonic() + timeout
    while count and time.monotonic() < deadline:
        msg = transport.recv(0.05)
        if msg is not None and msg.worker_id == worker_id:
            count -= 1
    return count == 0


class TestProcessResultsChannel:
    def test_worker_killed_mid_send_does_not_silence_the_others(self):
        """Workers that beat without pause are sending nearly all the
        time, so a SIGKILL catches each victim mid-send.  The survivor
        must still be heard after every kill, well past what the channel
        buffered before it: a results queue shared by every worker stays
        locked by the first victim that died holding its write lock."""
        transport = MultiprocessingTransport(
            WorkerSpec(config=SnowboardConfig(), heartbeat_interval=0.0)
        )
        handles = [transport.spawn(0, 1)]
        try:
            for generation in range(1, 11):
                victim = transport.spawn(1, generation)
                handles.append(victim)
                assert heard(transport, 1, 50)  # the victim is flooding
                victim.kill()
                victim.join()
                assert heard(transport, 0, 2000), f"silent after kill {generation}"
        finally:
            for handle in handles:
                handle.kill()
                handle.join()
            transport.close()


# -- coordinator liveness / generation edge cases ----------------------------------


class TestHeartbeatLiveness:
    def test_hello_from_future_build_rejected(self):
        """A worker advertising a higher WIRE_VERSION is rejected with
        WireFormatError before any of its envelopes is decoded
        (multiprocessing-shaped channel: the Hello *is* the handshake)."""
        transport = StubTransport(
            [
                {
                    "on_spawn": lambda h: h.emit(
                        HelloEnvelope(
                            h.worker_id, h.generation, version=WIRE_VERSION + 1
                        )
                    )
                }
            ]
        )
        coordinator = make_coordinator(transport)
        with pytest.raises(WireFormatError):
            coordinator.run([make_envelope(0)])
        assert transport.closed  # run() releases the transport on error too

    def test_missed_heartbeat_reclaims_and_respawns(self):
        """Generation 1 says hello, takes the task, then falls silent;
        the coordinator declares it dead at the heartbeat deadline and
        generation 2 completes the reclaimed task."""

        def gen2_task(handle, envelope):
            handle.emit(
                ResultEnvelope(
                    task_id=envelope.task_id,
                    worker_id=handle.worker_id,
                    status="ok",
                    generation=handle.generation,
                )
            )

        transport = StubTransport(
            [
                {"on_spawn": lambda h: h.emit(HelloEnvelope(h.worker_id, h.generation))},
                {
                    "on_spawn": lambda h: h.emit(
                        HelloEnvelope(h.worker_id, h.generation)
                    ),
                    "on_task": gen2_task,
                },
            ]
        )
        coordinator = make_coordinator(transport)
        results = coordinator.run([make_envelope(0)])
        assert results[0].generation == 2
        stats = coordinator.worker_stats[0]
        assert stats.heartbeats_missed == 1
        assert stats.respawns == 1
        assert stats.retries == 1
        assert stats.tasks_done == 1

    def test_stale_generation_result_discarded(self):
        """The reclaimed generation-1 worker lives long enough to report
        after generation 2 took over: its result must be dropped, and
        generation 2's accepted."""

        def gen2_task(handle, envelope):
            # The predecessor's late report lands first...
            handle.emit(
                ResultEnvelope(
                    task_id=envelope.task_id,
                    worker_id=handle.worker_id,
                    status="ok",
                    generation=1,
                    message="stale",
                )
            )
            # ...then the live generation's.
            handle.emit(
                ResultEnvelope(
                    task_id=envelope.task_id,
                    worker_id=handle.worker_id,
                    status="ok",
                    generation=handle.generation,
                    message="fresh",
                )
            )

        transport = StubTransport(
            [
                {"on_spawn": lambda h: h.emit(HelloEnvelope(h.worker_id, h.generation))},
                {
                    "on_spawn": lambda h: h.emit(
                        HelloEnvelope(h.worker_id, h.generation)
                    ),
                    "on_task": gen2_task,
                },
            ]
        )
        coordinator = make_coordinator(transport)
        results = coordinator.run([make_envelope(0)])
        assert results[0].message == "fresh"
        assert results[0].generation == 2
        assert coordinator.worker_stats[0].tasks_done == 1

    def test_queued_final_result_wins_and_charges_no_retry(self):
        """The satellite regression: a worker's final result and its
        death race.  The result is already on the channel when the
        coordinator reclaims — it must win, and the task must not be
        charged a retry (the respawn still is)."""

        def final_result_then_die(handle):
            # kill() fires at reclaim time; the result it emits models a
            # message that was in flight when the worker died.
            handle.emit(
                ResultEnvelope(
                    task_id=0,
                    worker_id=handle.worker_id,
                    status="ok",
                    generation=handle.generation,
                )
            )

        transport = StubTransport(
            [
                {
                    "on_spawn": lambda h: h.emit(
                        HelloEnvelope(h.worker_id, h.generation)
                    ),
                    "on_kill": final_result_then_die,
                },
                {"on_spawn": lambda h: h.emit(HelloEnvelope(h.worker_id, h.generation))},
            ]
        )
        coordinator = make_coordinator(transport)
        results = coordinator.run([make_envelope(0)])
        assert results[0].status == "ok"
        stats = coordinator.worker_stats[0]
        assert stats.retries == 0  # the queued result won the race
        assert stats.respawns == 1  # the death itself is still a death
        assert stats.tasks_done == 1

    def test_wedged_but_beating_worker_reclaimed_by_lease(self):
        """Heartbeats alone must not keep a lease alive: a worker that
        beats forever but never answers is reclaimed at the lease
        deadline, not trusted indefinitely."""

        def keep_beating(handle, envelope):
            handle.emit(HeartbeatEnvelope(handle.worker_id, handle.generation))

        def gen2_task(handle, envelope):
            handle.emit(
                ResultEnvelope(
                    task_id=envelope.task_id,
                    worker_id=handle.worker_id,
                    status="ok",
                    generation=handle.generation,
                )
            )

        transport = StubTransport(
            [
                {
                    "on_spawn": lambda h: h.emit(
                        HelloEnvelope(h.worker_id, h.generation)
                    ),
                    # One beat per poll keeps the heartbeat deadline
                    # permanently fresh while the task never completes.
                    "on_task": keep_beating,
                },
                {
                    "on_spawn": lambda h: h.emit(
                        HelloEnvelope(h.worker_id, h.generation)
                    ),
                    "on_task": gen2_task,
                },
            ]
        )
        # heartbeat_timeout far above the lease: only lease expiry can
        # reclaim here, which is the property under test.
        coordinator = make_coordinator(
            transport, heartbeat_timeout=10.0, lease_timeout=0.3
        )
        results = coordinator.run([make_envelope(0)])
        assert results[0].status == "ok"
        assert results[0].generation == 2
        stats = coordinator.worker_stats[0]
        assert stats.heartbeats_missed == 0
        assert stats.respawns == 1
        assert stats.retries == 1


# -- task errors -------------------------------------------------------------------


def hello(handle) -> None:
    handle.emit(HelloEnvelope(handle.worker_id, handle.generation))


def boot_fails(handle) -> None:
    """A worker whose private kernel fails to boot: it reports the
    boot failure and never serves a task."""
    handle.emit(
        _BootFailed(
            handle.worker_id,
            handle.generation,
            "RuntimeError",
            "kernel boot failed",
            "",
        )
    )


def answer(fail_task_ids, calls):
    """A worker body that reports ``task_error`` for the task ids in
    ``fail_task_ids`` (each id's remaining failures) and ``ok`` otherwise."""

    def on_task(handle, envelope):
        task_id = envelope.task_id
        calls.append(task_id)
        if fail_task_ids.get(task_id, 0) > 0:
            fail_task_ids[task_id] -= 1
            handle.emit(
                ResultEnvelope(
                    task_id=task_id,
                    worker_id=handle.worker_id,
                    status="task_error",
                    error_type="RuntimeError",
                    message="injected task crash",
                    generation=handle.generation,
                )
            )
            return
        handle.emit(
            ResultEnvelope(
                task_id=task_id,
                worker_id=handle.worker_id,
                status="ok",
                generation=handle.generation,
            )
        )

    return on_task


class TestTaskErrors:
    def test_task_error_retried_then_recorded_as_failure(self):
        """A task that raises in a surviving worker is re-dispatched
        ``max_task_retries`` times, then given up on as a TaskFailure
        carrying its attempts; the worker lives on and the other tasks
        complete."""
        calls: List[int] = []
        transport = StubTransport(
            [{"on_spawn": hello, "on_task": answer({1: 99}, calls)}]
        )
        coordinator = make_coordinator(transport, max_task_retries=2)
        results = coordinator.run([make_envelope(i) for i in range(3)])
        failure = results[1]
        assert isinstance(failure, TaskFailure)
        assert failure.attempts == 3  # 1 initial + 2 retries
        assert failure.error_type == "RuntimeError"
        assert failure.message == "injected task crash"
        assert results[0].status == "ok" and results[2].status == "ok"
        assert calls.count(1) == 3
        stats = coordinator.worker_stats[0]
        assert stats.retries == 2
        assert stats.respawns == 0
        assert stats.tasks_done == 2
        assert len(transport.spawned) == 1

    def test_transient_task_error_recovers_on_retry(self):
        calls: List[int] = []
        transport = StubTransport(
            [{"on_spawn": hello, "on_task": answer({0: 1}, calls)}]
        )
        coordinator = make_coordinator(transport, max_task_retries=1)
        results = coordinator.run([make_envelope(0)])
        assert results[0].status == "ok"
        assert calls == [0, 0]
        assert coordinator.worker_stats[0].retries == 1


# -- socket framing ----------------------------------------------------------------


class TestFraming:
    def test_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"kind": "hello", "n": 1})
            send_frame(a, {"kind": "task", "payload": ["x"] * 100})
            assert recv_frame(b) == {"kind": "hello", "n": 1}
            assert recv_frame(b) == {"kind": "task", "payload": ["x"] * 100}
        finally:
            a.close()
            b.close()

    def test_eof_mid_stream_returns_none(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"kind": "hello"})
            a.close()
            assert recv_frame(b) == {"kind": "hello"}
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_oversized_length_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 31).to_bytes(4, "big"))
            with pytest.raises(WireFormatError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_task_envelope_json_round_trip(self):
        envelope = make_envelope(5)
        clone = task_envelope_from_obj(task_envelope_to_obj(envelope))
        assert clone.task_id == envelope.task_id
        assert clone.trials == envelope.trials
        assert clone.version == WIRE_VERSION

    def test_result_envelope_json_round_trip(self):
        envelope = ResultEnvelope(
            task_id=3,
            worker_id=1,
            status="ok",
            obs_prelude=({"kind": "event"},),
            generation=4,
        )
        clone = result_envelope_from_obj(result_envelope_to_obj(envelope))
        assert clone.task_id == 3
        assert clone.generation == 4
        assert list(clone.obs_prelude) == [{"kind": "event"}]

    def test_unknown_fields_rejected(self):
        obj = result_envelope_to_obj(
            ResultEnvelope(task_id=0, worker_id=0, status="ok")
        )
        obj["from_the_future"] = True
        with pytest.raises(WireFormatError):
            result_envelope_from_obj(obj)
        task_obj = task_envelope_to_obj(make_envelope(0))
        task_obj["novel_knob"] = 1
        with pytest.raises(WireFormatError):
            task_envelope_from_obj(task_obj)

    def test_config_and_spec_round_trip(self):
        config = SnowboardConfig(seed=11, corpus_budget=99, trials_per_pmc=5)
        assert config_from_obj(config_to_obj(config)) == config
        spec = WorkerSpec(config=config, obs_enabled=True, heartbeat_interval=0.25)
        clone = worker_spec_from_obj(worker_spec_to_obj(spec))
        assert clone.config == config
        assert clone.obs_enabled is True
        assert clone.heartbeat_interval == 0.25
        bad = config_to_obj(config)
        bad["knob_from_the_future"] = 1
        with pytest.raises(WireFormatError):
            config_from_obj(bad)


# -- socket handshake --------------------------------------------------------------


class TestSocketHandshake:
    @pytest.fixture()
    def listening_transport(self):
        transport = SocketTransport(
            WorkerSpec(config=SnowboardConfig(seed=3), heartbeat_interval=0.2),
            token="sesame",
            spawn_workers=False,
            handshake_timeout=5.0,
        )
        transport.spawn(0, 1)
        yield transport
        transport.close()

    def test_future_wire_version_rejected(self, listening_transport):
        transport = listening_transport
        with pytest.raises(WireFormatError):
            connect_worker(
                transport.host,
                transport.port,
                "sesame",
                wire_version=WIRE_VERSION + 1,
            )

    def test_bad_token_rejected(self, listening_transport):
        transport = listening_transport
        with pytest.raises(PermissionError):
            connect_worker(transport.host, transport.port, "wrong")

    def test_welcome_carries_slot_and_spec(self, listening_transport):
        transport = listening_transport
        sock, welcome = connect_worker(transport.host, transport.port, "sesame")
        try:
            assert welcome["worker_id"] == 0
            assert welcome["generation"] == 1
            assert welcome["wire_version"] == WIRE_VERSION
            spec = worker_spec_from_obj(welcome["spec"])
            assert spec.config.seed == 3
            assert spec.heartbeat_interval == 0.2
            # The completed handshake doubles as the first liveness
            # signal on the coordinator's channel.
            first = transport.recv(timeout=1.0)
            assert first == HeartbeatEnvelope(0, 1)
        finally:
            sock.close()

    def test_reconnect_claims_fresh_slot(self, listening_transport):
        """Reconnect-as-fresh-worker: a second dial after the first
        connection drops claims the next spawned slot (a new generation),
        never the dead one."""
        transport = listening_transport
        sock, welcome = connect_worker(transport.host, transport.port, "sesame")
        sock.close()
        # The coordinator respawns the slot at a higher generation.
        transport.spawn(0, 2)
        sock2, welcome2 = connect_worker(transport.host, transport.port, "sesame")
        try:
            assert welcome2["generation"] == 2
        finally:
            sock2.close()
