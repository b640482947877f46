"""Outside-in layer timing: wrap each layer's public entry points.

Nothing here edits ``repro``.  :class:`LayerTimer` replaces module or
class attributes with timing wrappers for the duration of a traced run
and puts the originals back afterwards.  Every thread keeps its own span
stack, so a span's *self* time (its duration minus the time of wrapped
calls it made) never mixes frames of two threads.  Self times of one
thread add up to the time its outermost spans covered; ``unattributed``
is the rest of that thread's wall.

Which entry point feeds which layer metric is the :data:`LAYERS` table.
Per-access calls (``RaceDetector.on_access``, memory reads) are not
wrapped: their cost sits in the self time of the layer that calls them.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, layer).  The same layer may collect several
#: entry points; nested calls inside one layer are simply nested spans.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    # Campaign glue: prepare/run_campaign/run_rounds minus everything below.
    ("repro.orchestrate.pipeline", "Snowboard.prepare", "orchestrate.campaign_s"),
    ("repro.orchestrate.pipeline", "Snowboard.run_campaign", "orchestrate.campaign_s"),
    ("repro.orchestrate.pipeline", "Snowboard.run_rounds", "orchestrate.campaign_s"),
    # One Stage-4 test: the serial loop, or the fleet worker body.
    ("repro.orchestrate.pipeline", "Snowboard.execute_test", "orchestrate.task_s"),
    ("repro.orchestrate.pipeline", "run_task_trials", "orchestrate.task_s"),
    ("repro.orchestrate.pipeline", "boot_kernel", "kernel.boot_s"),
    ("repro.kernel.kernel", "boot_kernel", "kernel.boot_s"),
    ("repro.orchestrate.pipeline", "seed_corpus", "fuzz.corpus_s"),
    ("repro.orchestrate.pipeline", "grow_corpus", "fuzz.corpus_s"),
    ("repro.orchestrate.pipeline", "profile_new", "profile.profile_s"),
    ("repro.orchestrate.pipeline", "identify_delta", "pmc.identify_s"),
    ("repro.orchestrate.pipeline", "ordered_exemplars", "pmc.select_s"),
    ("repro.pmc.store", "AccessStore.flush", "pmc.store_flush_s"),
    ("repro.pmc.store", "AccessStore.checkpoint", "pmc.store_checkpoint_s"),
    ("repro.pmc.store", "AccessStore.load_bucket", "pmc.store_load_s"),
    ("repro.sched.prefixfork", "PrefixMemo.prepare", "sched.prefix_record_s"),
    ("repro.sched.prefixfork", "PrefixMemo.run_trial", "sched.trial_s"),
    ("repro.machine.snapshot", "Snapshot.restore", "machine.restore_s"),
    ("repro.machine.snapshot", "ForkSnapshot.restore", "machine.restore_s"),
    ("repro.orchestrate.pipeline", "observe", "detect.observe_s"),
    ("repro.orchestrate.persistence", "CheckpointWriter.create", "orchestrate.journal_s"),
    ("repro.orchestrate.persistence", "CheckpointWriter.append_to", "orchestrate.journal_s"),
    ("repro.orchestrate.persistence", "CheckpointWriter.round_begin", "orchestrate.journal_s"),
    ("repro.orchestrate.persistence", "CheckpointWriter.task_done", "orchestrate.journal_s"),
    ("repro.orchestrate.persistence", "CheckpointWriter.close", "orchestrate.journal_s"),
    ("repro.orchestrate.fleet", "FleetCoordinator.run", "fleet.run_s"),
    ("repro.orchestrate.fleet", "TaskEnvelope.from_task", "fleet.encode_s"),
    ("repro.orchestrate.fleet", "ResultEnvelope.decode", "fleet.decode_s"),
    ("repro.orchestrate.socketfleet", "task_envelope_to_obj", "fleet.encode_s"),
    ("repro.orchestrate.socketfleet", "result_envelope_to_obj", "fleet.encode_s"),
    ("repro.orchestrate.socketfleet", "send_frame", "fleet.encode_s"),
    ("repro.orchestrate.socketfleet", "task_envelope_from_obj", "fleet.decode_s"),
    ("repro.orchestrate.socketfleet", "result_envelope_from_obj", "fleet.decode_s"),
    ("repro.orchestrate.socketfleet", "recv_frame", "fleet.recv_wait_s"),
    # Daemon lifecycle outside turns: HTTP thread start, shutdown wait.
    ("repro.service.daemon", "ServiceDaemon.run", "service.daemon_s"),
    ("repro.service.daemon", "CampaignService.run_turn", "service.turn_s"),
    ("repro.service.scheduler", "FairScheduler.next_turn", "service.wait_s"),
    ("repro.service.registry", "JobRegistry.submit", "service.registry_s"),
    ("repro.service.registry", "JobRegistry.record_state", "service.registry_s"),
)

#: Every layer's self-time metric, in report order.
TIME_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for _, _, layer in LAYERS)) + (
    "service.api_s",
)


class _ThreadState:
    """One thread's span stack and totals."""

    def __init__(self, main: bool):
        self.main = main
        self.stack: List[List[float]] = []  # [child seconds] per open span
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)  # by entry point
        self.counts: Dict[str, float] = defaultdict(float)
        self.root_s = 0.0


class LayerTimer:
    """Thread-safe outside-in span timer over the :data:`LAYERS` table."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.started = 0.0
        self.wall_s = 0.0

    # -- per-thread state ---------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            main = threading.current_thread() is threading.main_thread()
            state = _ThreadState(main)
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        self._state().counts[name] += amount

    # -- wrapping -----------------------------------------------------------

    def timed(self, fn: Callable, layer: str, entry: str, after=None) -> Callable:
        """``fn`` wrapped in a span of ``layer``; ``after(result)`` sees
        each return value (for counters measured at the boundary)."""
        timer = self

        def wrapper(*args, **kwargs):
            state = timer._state()
            frame = [0.0]
            state.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                state.stack.pop()
                state.self_s[layer] += duration - frame[0]
                state.incl_s[entry] += duration
                if state.stack:
                    state.stack[-1][0] += duration
                else:
                    state.root_s += duration
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _patch(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> "LayerTimer":
        """Wrap every :data:`LAYERS` entry point; start the traced wall."""
        hooks = trial_hooks(self)
        for module_name, path, layer in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            self._patch(
                owner,
                attr,
                lambda fn, layer=layer, path=path: self.timed(
                    fn, layer, path, hooks.get(path)
                ),
            )
        self._patch_overlap_counter()
        self._patch_http_handler()
        self.started = time.perf_counter()
        return self

    def _patch_overlap_counter(self) -> None:
        """Count the overlaps the delta scan yields (a generator: the time
        of producing them is the consuming identify span's)."""
        from repro.pmc.index import AccessIndex

        timer = self

        def make(fn):
            def counting(*args, **kwargs):
                state = timer._state()
                for overlap in fn(*args, **kwargs):
                    state.counts["pmc.overlaps"] += 1
                    yield overlap

            return counting

        self._patch(AccessIndex, "read_write_overlaps_since", make)

    def _patch_http_handler(self) -> None:
        """Time each HTTP request the daemon serves (handler threads)."""
        import repro.service.daemon as daemon

        def make(fn):
            def make_handler(service):
                handler = fn(service)
                handler._dispatch = self.timed(
                    handler._dispatch, "service.api_s", "Handler._dispatch"
                )
                return handler

            return make_handler

        self._patch(daemon, "_make_handler", make)

    def uninstall(self) -> None:
        """Restore every patched attribute; fixes the traced wall."""
        self.wall_s = time.perf_counter() - self.started
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- results ------------------------------------------------------------

    def totals(self) -> Dict:
        """Plain-data totals: all threads summed, plus the time the main
        thread's outermost spans covered (for ``unattributed_s``)."""
        self_s: Dict[str, float] = defaultdict(float)
        incl_s: Dict[str, float] = defaultdict(float)
        counts: Dict[str, float] = defaultdict(float)
        main_root = 0.0
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for layer, seconds in state.self_s.items():
                self_s[layer] += seconds
            for entry, seconds in state.incl_s.items():
                incl_s[entry] += seconds
            for name, value in state.counts.items():
                counts[name] += value
            if state.main:
                main_root += state.root_s
        return {
            "wall_s": self.wall_s,
            "self_s": dict(self_s),
            "incl_s": dict(incl_s),
            "counts": dict(counts),
            "main_root_s": main_root,
        }


def merge_totals(parts: List[Dict]) -> Dict:
    """Sum the layer totals of several processes (fleet workers)."""
    out: Dict[str, Dict[str, float]] = {
        key: defaultdict(float) for key in ("self_s", "incl_s", "counts")
    }
    for part in parts:
        for key, merged in out.items():
            for name, value in part[key].items():
                merged[name] += value
    return {key: dict(value) for key, value in out.items()}


def run_traced(out_path: str, fn: Callable, *args, **kwargs):
    """Run ``fn`` in this process under a fresh timer, then write the
    totals to ``out_path`` (the child-process side of a traced run)."""
    timer = LayerTimer().install()
    try:
        return fn(*args, **kwargs)
    finally:
        timer.uninstall()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(timer.totals(), handle)


def traced_socket_worker(out_dir: str, host: str, port: int, token: str, **kwargs) -> int:
    """A socket fleet worker that times its layers (spawn target).

    The traced campaign points the transport's worker entry at
    ``functools.partial(traced_socket_worker, out_dir)``; each worker
    writes ``worker-<pid>.json`` into ``out_dir`` when it exits.
    """
    from repro.orchestrate.socketfleet import socket_worker_main

    out_path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
    return run_traced(out_path, socket_worker_main, host, port, token, **kwargs)


def trial_hooks(timer: LayerTimer) -> Dict[str, Callable]:
    """Counters read off entry-point return values."""

    def on_trial(result) -> None:
        trial, forked = result
        timer.count("sched.trials")
        timer.count("sched.forked", bool(forked))
        timer.count("machine.pages_restored", trial.pages_restored)

    def on_identify(result) -> None:
        timer.count("pmc.new_pairs", result[1])

    def on_load(_result) -> None:
        timer.count("pmc.store_cold_loads")

    return {
        "PrefixMemo.run_trial": on_trial,
        "identify_delta": on_identify,
        "AccessStore.load_bucket": on_load,
    }
