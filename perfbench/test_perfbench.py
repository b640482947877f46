"""Self-test of the benchmark at its tiny size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs untraced and traced at ``--size tiny``; its summary
must match the pin for seed 7, no operation may fail, and every metric
it prints must be declared in BENCHMARK.json.  ``fleet-sockets`` also
runs one unpinned seed, so its cross-check against the serial campaigns
is exercised too.  A run that starts processes (fleet workers, the
daemon) must have ended and reaped all of them when it exits.  A copy
holding only the benchmark files must refuse to run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch", "fleet-sockets", "rounds-spill", "service")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_pinned_correct_and_declared(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("visits=") and "pinned=True" in line for line in lines)
    expected = declared()[int(trace)]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_unpinned_seed_cross_checks_fleet_against_serial():
    out = bench(ROOT, "--workload", "fleet-sockets", "--seed", "11", "--seconds", "1",
                "--size", "tiny")
    assert out.returncode == 0, out.stderr
    assert "pinned=False" in out.stdout
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"], out.stdout


def group_members(pgid: int):
    """Pids of live or zombie processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[2]) == pgid:
            members.append(int(entry))
    return members


@pytest.mark.parametrize("workload", ["fleet-sockets", "service"])
def test_leaves_no_process_behind(workload):
    process = subprocess.Popen(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert process.wait(timeout=300) == 0
    assert group_members(process.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = bench(str(tmp_path), "--workload", "batch", "--seed", "7", "--seconds", "1",
                "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
