"""The campaign service: many tenants' campaigns behind one daemon.

:class:`CampaignService` is the engine — registry + fair scheduler +
one :class:`~repro.service.runner.JobRunner` per active job, guarded by
a single service lock.  Campaign rounds execute on the caller of
:meth:`run_turn` (the daemon's scheduler loop) *outside* the lock, so
the API stays responsive while a round runs; every lifecycle mutation
happens under the lock and is journalled to the registry before the
call returns.

:class:`ServiceDaemon` wraps the engine in a localhost HTTP JSON API
(stdlib ``ThreadingHTTPServer``; the bound ``host:port`` is written to
``<data>/endpoint`` so clients need only the data directory):

    ==========  =================================  =======================
    method      path                               action
    ==========  =================================  =======================
    GET         /healthz                           liveness + job counts
    POST        /jobs                              submit {tenant, spec}
    GET         /jobs[?tenant=]                    list jobs
    GET         /jobs/<id>                         status + funnel counters
    POST        /jobs/<id>/pause                   pause at round boundary
    POST        /jobs/<id>/resume                  re-enter the rotation
    POST        /jobs/<id>/cancel                  terminal cancel
    POST        /jobs/<id>/snapshot                freeze campaign journal
    POST        /jobs/<id>/fork                    {snapshot, tenant, rounds?}
    GET         /jobs/<id>/packages                repro packages so far
    GET         /jobs/<id>/summary                 final summary (done jobs)
    GET         /jobs/<id>/trace?offset=N          stream obs JSONL lines
    ==========  =================================  =======================

Crash contract: kill the daemon (SIGKILL included) at any point and
restart it on the same data directory — every job is recovered from the
registry journal, interrupted campaigns resume from their checkpoint
journals bit-identically, and finished jobs keep serving their
persisted summaries and packages.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs import JsonlSink
from repro.orchestrate.persistence import write_atomic
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    PAUSED,
    PENDING,
    RUNNING,
    CampaignJob,
    InvalidTransition,
    JobSpec,
)
from repro.service.registry import JobRegistry, RegistryError
from repro.service.runner import JobRunner
from repro.service.scheduler import FairScheduler


class ServiceError(Exception):
    """An API-level failure carrying its HTTP status code."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class CampaignService:
    """Registry + scheduler + runners: the engine behind the API."""

    def __init__(self, root: str, mirror_trace: bool = True):
        self.registry = JobRegistry(root)
        self.scheduler = FairScheduler()
        self._runners: Dict[str, JobRunner] = {}
        self._lock = threading.RLock()
        self._active: Optional[str] = None  # job id currently mid-round
        self._mirror = None
        if mirror_trace:
            self._mirror = JsonlSink(
                os.path.join(self.registry.root, "service.jsonl"),
                header={"service": "repro-campaign-service"},
                append=True,
            )
        # Recovered non-terminal jobs re-enter the rotation in submit
        # order (paused jobs stay parked until their tenant resumes).
        for job in self.registry.list():
            if job.state == PENDING:
                self.scheduler.enqueue(job.job_id)

    # -- lifecycle API ---------------------------------------------------------

    def submit(self, tenant: str, spec_obj: Optional[Dict] = None) -> Dict:
        try:
            spec = JobSpec.from_obj(spec_obj or {})
        except (TypeError, ValueError) as error:
            raise ServiceError(400, f"bad spec: {error}")
        with self._lock:
            try:
                job = self.registry.submit(tenant, spec)
            except ValueError as error:
                raise ServiceError(400, str(error))
            self.scheduler.enqueue(job.job_id)
            return job.to_obj()

    def jobs(self, tenant: Optional[str] = None) -> List[Dict]:
        with self._lock:
            return [job.to_obj() for job in self.registry.list(tenant)]

    def _job(self, job_id: str) -> CampaignJob:
        try:
            return self.registry.job(job_id)
        except RegistryError as error:
            raise ServiceError(404, str(error))

    def status(self, job_id: str) -> Dict:
        with self._lock:
            job = self._job(job_id)
            out = job.to_obj()
            runner = self._runners.get(job_id)
            if runner is not None:
                out.update(runner.status())
            if job.state == DONE:
                summary = self._read_summary(job_id)
                if summary is not None:
                    out["summary"] = summary
            return out

    def pause(self, job_id: str) -> Dict:
        with self._lock:
            job = self._job(job_id)
            self._transition(job, PAUSED)
            self.scheduler.dequeue(job_id)
            self.registry.record_state(job)
            return job.to_obj()

    def resume(self, job_id: str) -> Dict:
        with self._lock:
            job = self._job(job_id)
            self._transition(job, PENDING)
            self.registry.record_state(job)
            self.scheduler.enqueue(job_id)
            return job.to_obj()

    def cancel(self, job_id: str) -> Dict:
        with self._lock:
            job = self._job(job_id)
            self._transition(job, CANCELLED)
            self.scheduler.dequeue(job_id)
            self.registry.record_state(job)
            # Mid-round cancels leave the runner to the turn's epilogue;
            # the round finishes (journalled as always) and is discarded.
            if self._active != job_id:
                self._close_runner(job_id)
            return job.to_obj()

    def snapshot(self, job_id: str) -> Dict:
        with self._lock:
            job = self._job(job_id)
            snapshot_id = self.registry.snapshot(job.job_id)
            return {"job_id": job_id, "snapshot": snapshot_id}

    def fork(
        self,
        job_id: str,
        snapshot_id: str,
        tenant: str,
        rounds: Optional[int] = None,
    ) -> Dict:
        with self._lock:
            self._job(job_id)
            try:
                child = self.registry.fork(job_id, snapshot_id, tenant, rounds)
            except (RegistryError, ValueError) as error:
                raise ServiceError(400, str(error))
            self.scheduler.enqueue(child.job_id)
            return child.to_obj()

    def _transition(self, job: CampaignJob, state: str) -> None:
        try:
            job.transition(state)
        except InvalidTransition as error:
            raise ServiceError(409, str(error))

    def _settle(self, job: CampaignJob, state: str) -> None:
        """Drive a job whose round just finished (or raised) terminal.

        A pause or pause+resume landing while the round executed leaves
        the job PAUSED or PENDING; the round outcome wins that race, so
        route back through the legal edges before the terminal hop, and
        drop any queue entry a concurrent resume may have added.
        """
        if job.state == PAUSED:
            job.transition(PENDING)
        if job.state == PENDING:
            job.transition(RUNNING)
        job.transition(state)
        self.scheduler.dequeue(job.job_id)

    # -- artifacts -------------------------------------------------------------

    def _read_summary(self, job_id: str) -> Optional[Dict]:
        path = self.registry.summary_path(job_id)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def summary(self, job_id: str) -> Dict:
        with self._lock:
            job = self._job(job_id)
            summary = self._read_summary(job_id)
        if summary is None:
            raise ServiceError(
                409, f"job {job_id!r} is {job.state!r}; summary exists "
                f"only for done jobs"
            )
        return summary

    def packages(self, job_id: str) -> Dict[str, Dict]:
        """Reproduction packages captured so far, straight from the
        job's campaign journal (works mid-flight and after restarts)."""
        from repro.orchestrate.persistence import load_checkpoint

        with self._lock:
            self._job(job_id)
            path = self.registry.checkpoint_path(job_id)
        if not os.path.exists(path):
            return {}
        _, task_records = load_checkpoint(path)
        packages: Dict[str, Dict] = {}
        for record in task_records:
            for bug_id, obj in record.get("packages", {}).items():
                packages.setdefault(bug_id, obj)
        return packages

    def trace(
        self, job_id: str, offset: int = 0, limit: int = 1000
    ) -> Tuple[int, List[str]]:
        """Complete trace lines from byte ``offset`` (live streaming).

        Returns ``(new_offset, lines)``; a partially written final line
        is left for the next poll, so every returned line is valid JSON.
        """
        with self._lock:
            self._job(job_id)
            path = self.registry.trace_path(job_id)
        if not os.path.exists(path):
            return offset, []
        lines: List[str] = []
        with open(path, "rb") as handle:
            handle.seek(offset)
            while len(lines) < limit:
                line = handle.readline()
                if not line or not line.endswith(b"\n"):
                    break
                offset += len(line)
                lines.append(line.decode("utf-8").rstrip("\n"))
        return offset, lines

    # -- the scheduler turn ----------------------------------------------------

    def _runner(self, job: CampaignJob) -> JobRunner:
        runner = self._runners.get(job.job_id)
        if runner is None:
            runner = self._runners[job.job_id] = JobRunner(
                job, self.registry, mirror=self._mirror
            )
        return runner

    def _close_runner(self, job_id: str) -> None:
        runner = self._runners.pop(job_id, None)
        if runner is not None:
            runner.close()

    def run_turn(self, timeout: Optional[float] = 0.2) -> bool:
        """Give the next queued job one campaign round.

        Returns True when a turn ran (even if it failed), False when the
        queue stayed empty for ``timeout``.  The round itself executes
        outside the service lock; lifecycle changes requested mid-round
        (pause/cancel) are honoured in the epilogue, at the round
        boundary — the service's preemption granularity.
        """
        job_id = self.scheduler.next_turn(timeout)
        if job_id is None:
            return False
        with self._lock:
            job = self.registry.jobs.get(job_id)
            if job is None or job.state not in (PENDING, RUNNING):
                return True  # cancelled/paused while queued: drop the turn
            if job.state == PENDING:
                self._transition(job, RUNNING)
                self.registry.record_state(job)
            runner = self._runner(job)
            self._active = job_id
        done = False
        error: Optional[str] = None
        try:
            done = runner.step()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        with self._lock:
            self._active = None
            try:
                if job.state == CANCELLED:
                    self._close_runner(job_id)
                elif error is not None:
                    job.error = error
                    self._settle(job, FAILED)
                    self.registry.record_state(job)
                    self._close_runner(job_id)
                elif done:
                    self._settle(job, DONE)
                    self.registry.record_state(job)
                    self._close_runner(job_id)
                elif job.state == PAUSED:
                    self.registry.record_state(job)  # parked, progress recorded
                else:
                    self.registry.record_state(job)
                    self.scheduler.enqueue(job_id)
            except Exception as exc:  # pragma: no cover - defensive backstop
                # One job's epilogue must never take the scheduler loop
                # (and every other tenant) down: force the job terminal
                # and keep serving.
                job.error = job.error or f"{type(exc).__name__}: {exc}"
                job.state = FAILED
                self.scheduler.dequeue(job_id)
                self._close_runner(job_id)
                try:
                    self.registry.record_state(job)
                except Exception:
                    pass
        return True

    def stop(self) -> None:
        """Graceful shutdown: close runners, journals and the mirror."""
        with self._lock:
            for job_id in list(self._runners):
                self._close_runner(job_id)
            if self._mirror is not None:
                self._mirror.close()
            self.registry.close()


# -- HTTP layer --------------------------------------------------------------------

_ROUTES: List[Tuple[str, "re.Pattern", str]] = [
    ("GET", re.compile(r"^/healthz$"), "health"),
    ("POST", re.compile(r"^/jobs$"), "submit"),
    ("GET", re.compile(r"^/jobs$"), "jobs"),
    ("GET", re.compile(r"^/jobs/([\w.-]+)$"), "status"),
    ("POST", re.compile(r"^/jobs/([\w.-]+)/pause$"), "pause"),
    ("POST", re.compile(r"^/jobs/([\w.-]+)/resume$"), "resume"),
    ("POST", re.compile(r"^/jobs/([\w.-]+)/cancel$"), "cancel"),
    ("POST", re.compile(r"^/jobs/([\w.-]+)/snapshot$"), "snapshot"),
    ("POST", re.compile(r"^/jobs/([\w.-]+)/fork$"), "fork"),
    ("GET", re.compile(r"^/jobs/([\w.-]+)/packages$"), "packages"),
    ("GET", re.compile(r"^/jobs/([\w.-]+)/summary$"), "summary"),
    ("GET", re.compile(r"^/jobs/([\w.-]+)/trace$"), "trace"),
]


def _make_handler(service: CampaignService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, fmt, *args):  # quiet by default
            pass

        def _reply(self, status: int, obj) -> None:
            body = json.dumps(obj).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _int_param(self, value, name: str, minimum: int = 0) -> int:
            """Parse a client-supplied integer; out-of-range or
            non-numeric values are the client's fault (400, not 500)."""
            try:
                number = int(value)
            except (TypeError, ValueError):
                raise ServiceError(
                    400, f"{name} must be an integer, got {value!r}"
                )
            if number < minimum:
                raise ServiceError(
                    400, f"{name} must be >= {minimum}, got {number}"
                )
            return number

        def _body(self) -> Dict:
            try:
                length = self._int_param(
                    self.headers.get("Content-Length") or 0, "Content-Length"
                )
            except ServiceError:
                # The body's end is unknown: its bytes must not be read
                # as the next request on this connection.
                self.close_connection = True
                raise
            if length == 0:
                return {}
            try:
                obj = json.loads(self.rfile.read(length).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise ServiceError(400, "request body is not valid JSON")
            if not isinstance(obj, dict):
                raise ServiceError(400, "request body must be a JSON object")
            return obj

        def _dispatch(self, method: str) -> None:
            parsed = urlparse(self.path)
            query = parse_qs(parsed.query)
            try:
                for verb, pattern, name in _ROUTES:
                    if verb != method:
                        continue
                    match = pattern.match(parsed.path)
                    if match is None:
                        continue
                    self._route(name, match.groups(), query)
                    return
                raise ServiceError(404, f"no route for {method} {parsed.path}")
            except ServiceError as error:
                self._reply(error.status, {"error": str(error)})
            except Exception as error:  # never take the daemon down
                self._reply(500, {"error": f"{type(error).__name__}: {error}"})

        def _route(self, name: str, groups, query) -> None:
            if name == "health":
                jobs = service.jobs()
                states: Dict[str, int] = {}
                for job in jobs:
                    states[job["state"]] = states.get(job["state"], 0) + 1
                self._reply(200, {"ok": True, "jobs": len(jobs), "states": states})
            elif name == "submit":
                body = self._body()
                tenant = str(body.get("tenant") or "")
                self._reply(201, service.submit(tenant, body.get("spec")))
            elif name == "jobs":
                tenant = query.get("tenant", [None])[0]
                self._reply(200, {"jobs": service.jobs(tenant)})
            elif name == "status":
                self._reply(200, service.status(groups[0]))
            elif name == "pause":
                self._reply(200, service.pause(groups[0]))
            elif name == "resume":
                self._reply(200, service.resume(groups[0]))
            elif name == "cancel":
                self._reply(200, service.cancel(groups[0]))
            elif name == "snapshot":
                self._reply(201, service.snapshot(groups[0]))
            elif name == "fork":
                body = self._body()
                snapshot = str(body.get("snapshot") or "")
                tenant = str(body.get("tenant") or "")
                rounds = body.get("rounds")
                if rounds is not None:
                    rounds = self._int_param(rounds, "rounds", minimum=1)
                self._reply(
                    201,
                    service.fork(groups[0], snapshot, tenant, rounds=rounds),
                )
            elif name == "packages":
                self._reply(200, {"packages": service.packages(groups[0])})
            elif name == "summary":
                self._reply(200, service.summary(groups[0]))
            elif name == "trace":
                offset = self._int_param(query.get("offset", ["0"])[0], "offset")
                limit = self._int_param(
                    query.get("limit", ["1000"])[0], "limit", minimum=1
                )
                new_offset, lines = service.trace(groups[0], offset, limit)
                self._reply(200, {"offset": new_offset, "lines": lines})
            else:  # pragma: no cover - route table and names stay in sync
                raise ServiceError(500, f"unwired route {name!r}")

        def do_GET(self):
            self._dispatch("GET")

        def do_POST(self):
            self._dispatch("POST")

    return Handler


class ServiceDaemon:
    """The long-running process: HTTP front end + scheduler loop."""

    def __init__(self, root: str, host: str = "127.0.0.1", port: int = 0):
        self.service = CampaignService(root)
        self._httpd = ThreadingHTTPServer(
            (host, port), _make_handler(self.service)
        )
        self.host, self.port = self._httpd.server_address[:2]
        self.endpoint_path = os.path.join(self.service.registry.root, "endpoint")
        write_atomic(self.endpoint_path, f"{self.host}:{self.port}\n")
        self._stop = threading.Event()

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def request_stop(self, *_args) -> None:
        self._stop.set()

    def run(self, install_signals: bool = True) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_stop`)."""
        if install_signals:
            signal.signal(signal.SIGTERM, self.request_stop)
            signal.signal(signal.SIGINT, self.request_stop)
        http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http",
            daemon=True,
        )
        http_thread.start()
        try:
            while not self._stop.is_set():
                self.service.run_turn(timeout=0.2)
        finally:
            self._httpd.shutdown()
            http_thread.join(timeout=5)
            self.service.stop()
            if os.path.exists(self.endpoint_path):
                os.remove(self.endpoint_path)
