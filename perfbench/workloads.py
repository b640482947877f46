"""The four campaign workloads and their reference summaries.

Every workload runs a fixed set of *units* derived from the workload
seed (``seed * 100 + i``): each unit is one campaign on its own fuzzed
corpus (one daemon session of three tenants for ``service``), so a run
averages over many corpora instead of resting on one.  The measured
phase visits the units in turn, and again, until their measured time
reaches ``--seconds``; each visit prepares a fresh instance, whose
set-up time is one ``setup_s`` sample.  A unit's wall and CPU time are
medians over its visits.

One client thread polls campaign progress in an open loop during each
unit's measured phase, each poll timed from when it was due.  The rate is
``ServiceClient.wait``'s default: every job is polled once per 0.2 s.
For ``service`` a poll is ``GET /jobs/<id>``, round-robin over the
session's jobs; for the in-process workloads it reads the packages found
so far from the live checkpoint journal, as ``GET /jobs/<id>/packages``
does mid-flight.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Workload sizes.  ``full`` is what BENCHMARK.json runs; ``tiny`` is the
#: self-test's.  ``campaign`` is shared by batch and fleet-sockets, which
#: must produce identical summaries.  ``poll_ms`` is the journal poll
#: period: :data:`JOB_POLL_S` at full size, shorter at tiny size, whose
#: campaigns end before a full period has passed.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "campaign": dict(units=24, corpus_budget=30, tests=16, trials=16, poll_ms=200),
        "rounds": dict(
            units=24, corpus_budget=30, rounds=3, round_budget=3, growth=15,
            hot_records=200, trials=16, poll_ms=200,
        ),
        "service": dict(
            sessions=8, tenants=3, corpus_budget=30, rounds=2, round_budget=3,
            growth=15, trials=16,
        ),
    },
    "tiny": {
        "campaign": dict(units=2, corpus_budget=20, tests=4, trials=4, poll_ms=20),
        "rounds": dict(
            units=2, corpus_budget=20, rounds=2, round_budget=2, growth=10,
            hot_records=50, trials=4, poll_ms=20,
        ),
        "service": dict(
            sessions=1, tenants=3, corpus_budget=20, rounds=2, round_budget=2,
            growth=10, trials=4,
        ),
    },
}

#: Which reference (and pin table) each workload is checked against.
FAMILY = {
    "batch": "campaign",
    "fleet-sockets": "campaign",
    "rounds-spill": "rounds",
    "service": "service",
}

STRATEGY = "S-INS-PAIR"
#: Seconds between two polls of one job: ``ServiceClient.wait``/``watch``'s
#: default ``poll``.
JOB_POLL_S = 0.2
FLEET_WORKERS = 2
#: Rounds of work in one :func:`speed_probe` call (about 15 ms).
PROBE_REPEATS = 6
#: The probe's seconds at the reference speed, the speed every reported
#: time is scaled to: about its quickest readings on a 2-vCPU
#: "Intel(R) Xeon(R) Processor" VM under Python 3.11.
PROBE_REF_S = 0.015
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def unit_seed(seed: int, index: int) -> int:
    return seed * 100 + index


def cpu_now() -> float:
    """CPU seconds of this process plus every reaped child."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def process_cpu(pid: int) -> float:
    """CPU seconds a live process has used so far (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tree_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


# -- results -----------------------------------------------------------------------


@dataclass
class Unit:
    """One campaign's deterministic summary and its per-pass costs, each
    with the machine slowdown probed at both ends of its measured phase."""

    summary: Dict
    walls: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    slowdowns: List[float] = field(default_factory=list)


@dataclass
class Outcome:
    """Everything one pass-loop of a workload measured and checked."""

    setup_s: List[float] = field(default_factory=list)
    setup_slowdowns: List[float] = field(default_factory=list)
    units: Dict[str, Unit] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)
    max_late_ms: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    visits: int = 0
    fleet: Dict[str, int] = field(
        default_factory=lambda: {"retries": 0, "respawns": 0, "missed_heartbeats": 0}
    )
    journal_bytes: int = 0
    store_bytes: int = 0
    daemon_totals: List[Dict] = field(default_factory=list)
    worker_totals: List[Dict] = field(default_factory=list)
    probe_s: List[float] = field(default_factory=list)

    def probe(self) -> float:
        """Run :func:`speed_probe` now; returns the slowdown it read."""
        seconds = speed_probe()
        self.probe_s.append(seconds)
        return seconds / PROBE_REF_S

    def record_setup(self, seconds: float, slowdown: float) -> None:
        self.setup_s.append(seconds)
        self.setup_slowdowns.append(slowdown)

    def record(
        self, key: str, summary: Dict, wall: float, cpu: float, slowdown: float
    ) -> None:
        unit = self.units.get(key)
        if unit is None:
            unit = self.units[key] = Unit(summary)
        elif canonical(unit.summary) != canonical(summary):
            self.problems.append(f"{key}: summary changed between visits")
        unit.walls.append(wall)
        unit.cpus.append(cpu)
        unit.slowdowns.append(slowdown)
        tasks = int(summary.get("tested_pmcs", 0))
        self.attempted += tasks
        self.failed += int(summary.get("task_failures", 0))
        if int(summary.get("trials", 0)) == 0:
            self.problems.append(f"{key}: no trial ran")

    def record_campaign(
        self, key: str, campaign, wall: float, cpu: float, slowdown: float
    ) -> None:
        self.record(key, campaign.summary(), wall, cpu, slowdown)
        self.failed += campaign.task_retries + campaign.worker_respawns
        for stats in campaign.worker_stats:
            self.fleet["retries"] += stats.retries
            self.fleet["respawns"] += stats.respawns
            self.fleet["missed_heartbeats"] += stats.heartbeats_missed

    def ordered_units(self) -> List:
        """``(key, unit)`` pairs in unit order (``"3"``, or ``"session.tenant"``)."""
        return sorted(
            self.units.items(), key=lambda item: tuple(map(int, item[0].split(".")))
        )

    def summaries(self) -> List[Dict]:
        return [unit.summary for _, unit in self.ordered_units()]

    # With ``reference`` (the default) every time is first divided by the
    # slowdown probed around it: the figure the reference machine would
    # have measured.  Without, the figures are as measured here.

    def setup_median(self, reference: bool = True) -> float:
        return statistics.median(at_speed(self.setup_s, self.setup_slowdowns, reference))

    def exec_per_min(self, reference: bool = True) -> float:
        trials = sum(u.summary["trials"] for u in self.units.values())
        wall = sum(
            statistics.median(at_speed(u.walls, u.slowdowns, reference))
            for u in self.units.values()
        )
        return 60.0 * trials / wall

    def obs_per_cpu_s(self, reference: bool = True) -> float:
        observations = sum(u.summary["observations"] for u in self.units.values())
        cpu = sum(
            statistics.median(at_speed(u.cpus, u.slowdowns, reference))
            for u in self.units.values()
        )
        return observations / cpu

    def slowdown(self) -> float:
        """This run's mean slowdown against the reference speed."""
        return statistics.fmean(self.probe_s) / PROBE_REF_S


def at_speed(seconds: List[float], slowdowns: List[float], reference: bool) -> List[float]:
    if not reference:
        return seconds
    return [value / slowdown for value, slowdown in zip(seconds, slowdowns)]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pin_of(summaries: List[Dict]) -> Dict:
    """The pinned facts of a workload's unit summaries: totals, and one
    digest per unit."""
    return {
        "units": len(summaries),
        "trials": sum(s["trials"] for s in summaries),
        "instructions": sum(s["instructions"] for s in summaries),
        "observations": sum(s["observations"] for s in summaries),
        "bugs": sum(len(s["bugs"]) for s in summaries),
        "digests": [
            hashlib.sha256(canonical(s).encode()).hexdigest()[:12] for s in summaries
        ],
    }


# -- the status client ---------------------------------------------------------------


def poll_open_loop(
    query: Callable[[], object],
    period: float,
    stop: Callable[[], bool],
    outcome: Outcome,
    sleep: Callable[[float], object] = time.sleep,
    first: float = 0.0,
) -> None:
    """Send ``query`` after ``first`` seconds and every ``period`` seconds
    from then on until ``stop()``.

    Open loop: the schedule does not wait for replies, so a stalled
    system meets queries that are already late.  Latency counts from
    the due time; a query that raises counts as failed.  ``sleep`` may
    return early when ``stop()`` turns true.
    """
    start = time.perf_counter()
    sent = 0
    while not stop():
        due = start + first + sent * period
        sent += 1
        delay = due - time.perf_counter()
        if delay > 0:
            sleep(delay)
            if stop():
                break
        began = time.perf_counter()
        outcome.max_late_ms = max(outcome.max_late_ms, (began - due) * 1000.0)
        outcome.attempted += 1
        try:
            query()
        except Exception as error:  # noqa: BLE001 - a failed query is a result
            outcome.failed += 1
            outcome.problems.append(f"status query failed: {error!r}")
        outcome.latencies_ms.append((time.perf_counter() - due) * 1000.0)


class JournalPoller:
    """The in-process workloads' status client thread, live while one
    campaign runs.

    Every ``period`` seconds it collects the reproduction packages found
    so far from the campaign's journal, as the service's
    ``GET /jobs/<id>/packages`` reads a running job's journal.  The first
    poll is one period in: a poll at the very start would meet a campaign
    that has not yet begun, and the share of such polls would move with
    campaign length.
    """

    def __init__(self, outcome: Outcome, journal: str, period: float):
        self._outcome = outcome
        self._journal = journal
        self._period = period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="status-client")

    def _query(self) -> int:
        from repro.orchestrate.persistence import CheckpointMismatch, load_checkpoint

        try:
            _, tasks = load_checkpoint(self._journal)
        except FileNotFoundError:
            return 0  # the campaign has not created its journal yet
        except CheckpointMismatch as error:
            if "no header" in str(error):
                return 0  # journal created, header not yet written
            raise
        return len({bug for task in tasks for bug in task.get("packages", {})})

    def _poll(self) -> None:
        poll_open_loop(
            self._query, self._period, self._stop.is_set, self._outcome, self._stop.wait,
            first=self._period,
        )

    def __enter__(self) -> "JournalPoller":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python work (dict, list, tuple and
    generator operations, no ``repro`` code) takes right now.

    The garbage collector is off meanwhile: its passes cost in proportion
    to the campaign's heap, which would make the probe read heap size
    instead of machine speed.
    """
    gc.disable()
    began = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        table: Dict[int, int] = {}
        window: List[tuple] = []
        for i in range(3000):
            key = (i * 7919) & 255
            table[key] = table.get(key, 0) + 1
            window.append((key, i))
            if len(window) > 8:
                window.pop(0)
            sum(v for _, v in window)
    elapsed = time.perf_counter() - began
    gc.enable()
    return elapsed


def cycle_units(count: int, seconds: float, one_pass: bool, visit: Callable[[int], float]) -> int:
    """Visit units ``0..count-1`` in turn, and again, until their measured
    time reaches ``seconds``; every unit is visited at least once.
    ``visit(index)`` returns its measured seconds.  Returns the visits."""
    measured = 0.0
    for visits in itertools.count(1):
        measured += visit((visits - 1) % count)
        if visits >= count and (one_pass or measured >= seconds):
            return visits


# -- batch and fleet-sockets ---------------------------------------------------------------


def campaign_config(seed: int, index: int, params: Dict, **extra):
    from repro import SnowboardConfig

    return SnowboardConfig(
        seed=unit_seed(seed, index),
        corpus_budget=params["corpus_budget"],
        trials_per_pmc=params["trials"],
        **extra,
    )


def _prepared(config, outcome: Outcome) -> Tuple[object, float]:
    """A prepared instance; its ``prepare()`` wall is one set-up sample.
    Also returns the slowdown probed right after set-up."""
    from repro import Snowboard

    before = outcome.probe()
    began = time.perf_counter()
    snowboard = Snowboard(config).prepare()
    setup = time.perf_counter() - began
    after = outcome.probe()
    outcome.record_setup(setup, (before + after) / 2)
    gc.collect()  # every measured campaign starts from a collected heap
    return snowboard, after


def run_campaigns(
    seed: int,
    seconds: float,
    size: str,
    tmp: str,
    fleet: bool,
    one_pass: bool = False,
    trace_dir: Optional[str] = None,
    serial_check: bool = False,
) -> Outcome:
    """``batch`` (serial) or ``fleet-sockets`` (two socket workers).

    ``serial_check`` reruns each fleet campaign serially on the same
    instance (untimed, first visit only) and requires equal summaries:
    the check for seeds without a pin.
    """
    params = SIZES[size]["campaign"]
    outcome = Outcome()
    kind = {"workers": FLEET_WORKERS, "fleet": "sockets"} if fleet else {}
    journals: Dict[int, int] = {}

    def visit(index: int) -> float:
        snowboard, before = _prepared(campaign_config(seed, index, params), outcome)
        journal = os.path.join(tmp, f"journal-{index}.jsonl")
        with JournalPoller(outcome, journal, params["poll_ms"] / 1000):
            cpu = cpu_now()
            began = time.perf_counter()
            campaign = snowboard.run_campaign(
                STRATEGY, test_budget=params["tests"], checkpoint_path=journal, **kind
            )
            wall = time.perf_counter() - began
        cpu = cpu_now() - cpu
        slowdown = (before + outcome.probe()) / 2
        first = str(index) not in outcome.units
        outcome.record_campaign(str(index), campaign, wall, cpu, slowdown)
        journals[index] = os.path.getsize(journal)
        if serial_check and first:
            serial = snowboard.run_campaign(STRATEGY, test_budget=params["tests"])
            if serial.summary() != campaign.summary():
                outcome.problems.append(f"unit {index}: fleet summary differs from serial")
        return wall

    restore = _trace_socket_workers(trace_dir) if fleet and trace_dir else None
    try:
        outcome.visits = cycle_units(params["units"], seconds, one_pass, visit)
    finally:
        if restore is not None:
            restore()
    outcome.journal_bytes = sum(journals.values())
    if trace_dir is not None and fleet:
        outcome.worker_totals = _read_totals(trace_dir, "worker-")
    return outcome


def _trace_socket_workers(out_dir: str) -> Callable[[], None]:
    """Point auto-spawned socket workers at the traced entry point."""
    import repro.orchestrate.socketfleet as socketfleet
    from layers import traced_socket_worker

    original = socketfleet.socket_worker_main
    socketfleet.socket_worker_main = functools.partial(traced_socket_worker, out_dir)

    def restore() -> None:
        socketfleet.socket_worker_main = original

    return restore


def _read_totals(directory: str, prefix: str) -> List[Dict]:
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith(prefix) and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                out.append(json.load(handle))
    return out


def campaign_reference(seed: int, size: str) -> List[Dict]:
    """Serial summaries of every campaign unit (batch == fleet-sockets)."""
    from repro import Snowboard

    params = SIZES[size]["campaign"]
    return [
        Snowboard(campaign_config(seed, index, params))
        .run_campaign(STRATEGY, test_budget=params["tests"])
        .summary()
        for index in range(params["units"])
    ]


# -- rounds-spill -------------------------------------------------------------------


def run_rounds_spill(
    seed: int,
    seconds: float,
    size: str,
    tmp: str,
    one_pass: bool = False,
    trace_dir: Optional[str] = None,
) -> Outcome:
    """Multi-round campaigns over a spilled PMC store with a capped hot tier."""
    params = SIZES[size]["rounds"]
    outcome = Outcome()
    stores: Dict[int, int] = {}
    journals: Dict[int, int] = {}

    def visit(index: int) -> float:
        spill = os.path.join(tmp, f"spill-{index}")
        config = campaign_config(
            seed, index, params, pmc_spill_dir=spill, pmc_hot_records=params["hot_records"]
        )
        snowboard, before = _prepared(config, outcome)
        journal = os.path.join(tmp, f"rounds-{index}.jsonl")
        with JournalPoller(outcome, journal, params["poll_ms"] / 1000):
            cpu = cpu_now()
            began = time.perf_counter()
            campaign = snowboard.run_rounds(
                params["rounds"],
                params["round_budget"],
                corpus_growth=params["growth"],
                checkpoint_path=journal,
            )
            wall = time.perf_counter() - began
        cpu = cpu_now() - cpu
        slowdown = (before + outcome.probe()) / 2
        outcome.record_campaign(str(index), campaign, wall, cpu, slowdown)
        snowboard.state.index.store.close()
        stores[index] = tree_bytes(spill)
        journals[index] = os.path.getsize(journal)
        shutil.rmtree(spill)
        return wall

    outcome.visits = cycle_units(params["units"], seconds, one_pass, visit)
    outcome.store_bytes = sum(stores.values())
    outcome.journal_bytes = sum(journals.values())
    return outcome


def rounds_reference(seed: int, size: str) -> List[Dict]:
    """In-memory summaries of every rounds unit (spilling is invisible)."""
    from repro import Snowboard

    params = SIZES[size]["rounds"]
    return [
        Snowboard(campaign_config(seed, index, params))
        .run_rounds(params["rounds"], params["round_budget"], corpus_growth=params["growth"])
        .summary()
        for index in range(params["units"])
    ]


# -- service ---------------------------------------------------------------------------


def tenant_spec(seed: int, session: int, tenant: int, params: Dict) -> Dict:
    return dict(
        rounds=params["rounds"],
        round_budget=params["round_budget"],
        seed=unit_seed(seed, session * params["tenants"] + tenant),
        corpus_budget=params["corpus_budget"],
        corpus_growth=params["growth"],
        trials=params["trials"],
    )


def _start_daemon(data: str, layers_out: Optional[str]) -> subprocess.Popen:
    command = [sys.executable, RUN_PY, "--daemon", data]
    if layers_out is not None:
        command += ["--layers-out", layers_out]
    with open(data + ".log", "w", encoding="utf-8") as log:
        return subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)


def _stop_daemon(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _connect(data: str, process: subprocess.Popen, timeout: float = 60.0):
    from repro.service.client import ServiceClient

    deadline = time.monotonic() + timeout
    endpoint = os.path.join(data, "endpoint")
    while not os.path.exists(endpoint):
        if process.poll() is not None:
            raise RuntimeError(f"service daemon exited with {process.returncode}")
        if time.monotonic() > deadline:
            raise RuntimeError("service daemon did not publish its endpoint")
        time.sleep(0.01)
    return ServiceClient.connect(data)


def run_service(
    seed: int,
    seconds: float,
    size: str,
    tmp: str,
    one_pass: bool = False,
    trace_dir: Optional[str] = None,
) -> Outcome:
    """Daemon sessions, each running several tenants' round-based jobs.

    A session is one unit: daemon start plus submits is its set-up, and
    its measured wall runs from the last submit until the status client
    has seen every job terminal.  Its CPU time covers the same window:
    the daemon's, read from ``/proc`` at both ends, plus this process's.
    """
    from repro.service import TERMINAL_STATES

    params = SIZES[size]["service"]
    outcome = Outcome()
    journals: Dict[int, int] = {}
    daemons = itertools.count()

    def visit(session: int) -> float:
        data = os.path.join(tmp, f"service-{session}")
        shutil.rmtree(data, ignore_errors=True)
        layers_out = (
            os.path.join(trace_dir, f"daemon-{next(daemons)}.json") if trace_dir else None
        )
        before = outcome.probe()
        began = time.perf_counter()
        process = _start_daemon(data, layers_out)
        try:
            client = _connect(data, process)
            jobs = [
                client.submit(f"tenant-{t}", tenant_spec(seed, session, t, params))["job_id"]
                for t in range(params["tenants"])
            ]
            outcome.attempted += len(jobs)
            setup = time.perf_counter() - began
            states = {job: "" for job in jobs}
            turn = itertools.cycle(jobs)

            def query() -> None:
                job = next(turn)
                states[job] = client.status(job)["state"]

            cpu = time.process_time() + process_cpu(process.pid)
            began = time.perf_counter()
            poll_open_loop(
                query,
                JOB_POLL_S / len(jobs),
                lambda: all(s in TERMINAL_STATES for s in states.values()),
                outcome,
            )
            wall = time.perf_counter() - began
            session_cpu = time.process_time() + process_cpu(process.pid) - cpu
            # Probing after the submits would delay the wall's start while
            # the daemon already runs; both samples share the outer probes.
            slowdown = (before + outcome.probe()) / 2
            outcome.record_setup(setup, slowdown)
            summaries = []
            for job in jobs:
                if states[job] != "done":
                    outcome.failed += 1
                    outcome.problems.append(f"job {job} ended {states[job]}")
                summaries.append(client.summary(job))
            journals[session] = sum(
                os.path.getsize(os.path.join(data, "jobs", job, "checkpoint.jsonl"))
                for job in jobs
            )
        finally:
            _stop_daemon(process)
        if process.returncode != 0:
            outcome.problems.append(f"daemon exited with {process.returncode}")
        total = max(1, sum(s["trials"] for s in summaries))
        for tenant, summary in enumerate(summaries):
            # The tenants share the session's wall and CPU; split both by
            # trials so the per-unit medians stay additive.
            share = summary["trials"] / total
            outcome.record(
                f"{session}.{tenant}", summary, wall * share, session_cpu * share, slowdown
            )
        return wall

    outcome.visits = cycle_units(params["sessions"], seconds, one_pass, visit)
    outcome.journal_bytes = sum(journals.values())
    if trace_dir is not None:
        outcome.daemon_totals = _read_totals(trace_dir, "daemon-")
    return outcome


def service_reference(seed: int, size: str) -> List[Dict]:
    """Solo ``run_rounds`` summaries of every tenant's spec."""
    from repro import Snowboard
    from repro.service import JobSpec

    params = SIZES[size]["service"]
    out = []
    for session in range(params["sessions"]):
        for tenant in range(params["tenants"]):
            spec = JobSpec.from_obj(tenant_spec(seed, session, tenant, params))
            campaign = Snowboard(spec.config()).run_rounds(
                spec.rounds,
                spec.round_budget,
                trials=spec.trials,
                corpus_growth=spec.growth(),
            )
            out.append(json.loads(canonical(campaign.summary())))
    return out


RUNNERS = {
    "batch": functools.partial(run_campaigns, fleet=False),
    "fleet-sockets": functools.partial(run_campaigns, fleet=True),
    "rounds-spill": run_rounds_spill,
    "service": run_service,
}

REFERENCES = {
    "campaign": campaign_reference,
    "rounds": rounds_reference,
    "service": service_reference,
}
