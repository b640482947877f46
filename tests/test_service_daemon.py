"""The campaign service daemon over HTTP, as a real subprocess.

The acceptance contract for campaign-as-a-service: start ``repro serve``
as a child process, submit three tenants' jobs over the JSON API,
``SIGKILL`` the daemon mid-campaign, start a fresh daemon on the same
data directory, and every job finishes with a summary bit-identical to
the same spec run solo through ``run_rounds``.  Also exercised: the
health endpoint, endpoint-file discovery, offset-based trace streaming
and graceful SIGTERM shutdown.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.service import TERMINAL_STATES
from repro.service.client import ServiceClient, ServiceClientError

from tests.test_service import BASE, run_solo

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SPECS = {
    "alice": dict(BASE),
    "bob": dict(BASE, seed=13, rounds=3),
    "dave": dict(BASE, seed=19),
}


def spawn_daemon(data_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    endpoint = os.path.join(data_dir, "endpoint")
    if os.path.exists(endpoint):  # stale after SIGKILL: the new daemon
        os.remove(endpoint)  # republishes once it has bound its port
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--data", data_dir],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 30
    while not os.path.exists(endpoint):
        if process.poll() is not None:
            raise AssertionError(
                f"daemon died at startup:\n{process.stdout.read()}"
            )
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError("daemon never published its endpoint")
        time.sleep(0.05)
    return process


def wait_all(client: ServiceClient, job_ids, timeout: float = 300.0):
    deadline = time.monotonic() + timeout
    while True:
        jobs = {j["job_id"]: j for j in client.jobs()}
        if all(jobs[j]["state"] in TERMINAL_STATES for j in job_ids):
            return jobs
        assert time.monotonic() < deadline, f"jobs stuck: {jobs}"
        time.sleep(0.2)


@pytest.fixture(scope="module")
def solo():
    return {
        tenant: run_solo(spec)[1].summary() for tenant, spec in SPECS.items()
    }


def test_daemon_sigkill_restart_is_bit_identical(tmp_path_factory, solo):
    data = str(tmp_path_factory.mktemp("daemon"))
    daemon = spawn_daemon(data)
    killed = False
    try:
        client = ServiceClient.connect(data)
        assert client.health()["ok"] is True
        ids = {
            tenant: client.submit(tenant, spec)["job_id"]
            for tenant, spec in SPECS.items()
        }
        # Let the rotation make partial progress, then pull the plug.
        deadline = time.monotonic() + 120
        while True:
            jobs = {j["job_id"]: j for j in client.jobs()}
            if any(j["rounds_done"] >= 1 for j in jobs.values()) and not all(
                j["state"] in TERMINAL_STATES for j in jobs.values()
            ):
                break
            assert time.monotonic() < deadline, "no mid-campaign window"
            time.sleep(0.05)
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)
        killed = True

        revived = spawn_daemon(data)
        try:
            client = ServiceClient.connect(data)  # fresh endpoint file
            jobs = wait_all(client, ids.values())
            for tenant, job_id in ids.items():
                assert jobs[job_id]["state"] == "done", jobs[job_id]
                assert client.summary(job_id) == solo[tenant]

            # Trace streaming: offset-paged reads reassemble the full
            # per-job trace, which spans both daemon incarnations.
            offset, records = 0, []
            while True:
                offset, lines = client.trace(ids["alice"], offset, limit=50)
                if not lines:
                    break
                records.extend(json.loads(line) for line in lines)
            assert records[0]["kind"] == "header"
            assert records[0]["job_id"] == ids["alice"]
            # One header only: the revived daemon appended to the trace
            # instead of restarting it, so the stream stays well-formed.
            assert sum(1 for r in records if r["kind"] == "header") == 1
            assert any(r["kind"] == "metrics" for r in records)

            # Graceful shutdown removes the endpoint file.
            revived.send_signal(signal.SIGTERM)
            assert revived.wait(timeout=30) == 0
            assert not os.path.exists(os.path.join(data, "endpoint"))
        finally:
            if revived.poll() is None:
                revived.kill()
                revived.wait(timeout=30)
    finally:
        if not killed and daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)


def test_client_reports_missing_daemon(tmp_path):
    with pytest.raises(ServiceClientError, match="endpoint"):
        ServiceClient.connect(str(tmp_path))


class TestConnectRetry:
    """Refused connections retry with backoff, then surface.

    The daemon publishes its endpoint file just before it starts
    accepting, so a client fired immediately after ``repro serve`` can
    hit a bound-but-not-listening window; the retry loop papers over
    exactly that and nothing else.
    """

    def client(self, monkeypatch, outcomes):
        monkeypatch.setattr(ServiceClient, "CONNECT_BACKOFF", 0.001)
        client = ServiceClient("127.0.0.1", 1)
        calls = []

        def fake_request_once(method, path, body=None):
            calls.append((method, path))
            outcome = outcomes[min(len(calls), len(outcomes)) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_request_once", fake_request_once)
        return client, calls

    def test_refused_connect_retries_until_listening(self, monkeypatch):
        client, calls = self.client(
            monkeypatch,
            [ConnectionRefusedError(), ConnectionRefusedError(), {"ok": True}],
        )
        assert client.health() == {"ok": True}
        assert len(calls) == 3

    def test_retries_are_bounded(self, monkeypatch):
        client, calls = self.client(monkeypatch, [ConnectionRefusedError()])
        with pytest.raises(ConnectionRefusedError):
            client.health()
        assert len(calls) == ServiceClient.CONNECT_RETRIES + 1

    def test_api_errors_do_not_retry(self, monkeypatch):
        client, calls = self.client(
            monkeypatch, [ServiceClientError(404, "no such job")]
        )
        with pytest.raises(ServiceClientError):
            client.status("job-9999")
        assert len(calls) == 1


def test_malformed_numbers_are_client_errors(tmp_path):
    """Bad query/body numbers are the client's fault: 400, never 500."""
    from repro.service.daemon import ServiceDaemon

    data = str(tmp_path / "svc")
    daemon = ServiceDaemon(data)
    thread = threading.Thread(
        target=daemon._httpd.serve_forever, daemon=True
    )
    thread.start()
    try:
        client = ServiceClient.connect(data)
        job_id = client.submit("alice", SPECS["alice"])["job_id"]
        for path in (
            f"/jobs/{job_id}/trace?offset=abc",
            f"/jobs/{job_id}/trace?offset=-3",
            f"/jobs/{job_id}/trace?limit=abc",
            f"/jobs/{job_id}/trace?limit=0",
        ):
            with pytest.raises(ServiceClientError) as err:
                client._request("GET", path)
            assert err.value.status == 400, path
        with pytest.raises(ServiceClientError) as err:
            client._request(
                "POST",
                f"/jobs/{job_id}/fork",
                {"snapshot": "snap-0001", "tenant": "x", "rounds": "x"},
            )
        assert err.value.status == 400
        with pytest.raises(ServiceClientError) as err:
            client.submit("x", {"trials": 2.5})
        assert err.value.status == 400
        # ServiceClient always sends a correct Content-Length; a bad one
        # answered 500 ("abc") or hung the handler until hang-up ("-1").
        for length in ("abc", "-1"):
            conn = http.client.HTTPConnection(daemon.host, daemon.port, timeout=5)
            try:
                conn.putrequest("POST", "/jobs")
                conn.putheader("Content-Length", length)
                conn.endheaders(b'{"tenant": "x"}')
                response = conn.getresponse()
                response.read()
                assert response.status == 400, length
            finally:
                conn.close()
    finally:
        daemon._httpd.shutdown()
        thread.join(timeout=10)
        daemon.service.stop()
