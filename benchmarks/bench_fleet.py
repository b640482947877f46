"""Experiment — process fleet and socket fleet throughput against serial.

The process fleet spreads private-kernel workers over real processes;
the socket fleet runs the same worker bodies over localhost TCP
(length-prefixed JSON frames instead of pickled queue messages), so its
leg quantifies what the network transport costs relative to the
multiprocessing queues on the same machine.  The serial campaign is the
reference both fleets must equal.  On a small container spawn and
pickle overhead dominate and no fleet beats serial, so the figure
asserted here is *equality of results*; the throughput numbers are
recorded for the gate to compare against their own baseline on the same
machine class.

Results are appended to ``BENCH_fleet.json`` at the repo root in the
same trajectory shape as ``BENCH_hot_path.json``; ``scripts/bench_gate.py``
gates the figures.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from bench_hot_path import append_record, load_results  # noqa: F401  (re-export)

from repro.orchestrate.pipeline import Snowboard, SnowboardConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_fleet.json")

STRATEGY = "S-INS-PAIR"

# Quick mode: seconds, for the CI gate.
QUICK_CONFIG = SnowboardConfig(seed=7, corpus_budget=120, trials_per_pmc=8)
QUICK_PARAMS = dict(budget=6, workers=2)

# Full mode: the shared bench-session configuration (conftest.py).
FULL_PARAMS = dict(budget=12, workers=4)


def measure_fleet(snowboard: Snowboard, budget: int, workers: int) -> Dict[str, object]:
    """Run the same campaign serially and over process and socket fleets.

    All runs are fully deterministic (fixed seed); summary equality with
    the serial run is asserted — a bench that changed campaign results
    would be measuring the wrong thing.
    """
    config = snowboard.config
    walls = {}
    campaigns = {}
    for fleet in ("serial", "processes", "sockets"):
        sb = Snowboard(config).prepare()
        kind = {} if fleet == "serial" else {"workers": workers, "fleet": fleet}
        start = time.perf_counter()
        campaigns[fleet] = sb.run_campaign(STRATEGY, test_budget=budget, **kind)
        walls[fleet] = time.perf_counter() - start
    serial = campaigns["serial"]
    assert campaigns["processes"].summary() == serial.summary()
    assert campaigns["sockets"].summary() == serial.summary()

    serial_epm = serial.executions_per_minute
    process_epm = campaigns["processes"].executions_per_minute
    socket_epm = campaigns["sockets"].executions_per_minute
    return {
        "budget": budget,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "trials": serial.trials,
        "serial_wall_seconds": round(walls["serial"], 3),
        "process_wall_seconds": round(walls["processes"], 3),
        "socket_wall_seconds": round(walls["sockets"], 3),
        "serial_executions_per_min": round(serial_epm, 1),
        "process_executions_per_min": round(process_epm, 1),
        "socket_executions_per_min": round(socket_epm, 1),
        "process_speedup": round(process_epm / serial_epm, 2) if serial_epm else 0.0,
        "socket_overhead": (
            round(process_epm / socket_epm, 2) if socket_epm else 0.0
        ),
        "campaign_summary": serial.summary(),
    }


#: The figures the regression gate compares (higher is better).
THROUGHPUT_KEYS = (
    "process_executions_per_min",
    "socket_executions_per_min",
)


def test_fleet_throughput(snowboard):
    """Measure and record the full-mode fleet throughput figures."""
    record = measure_fleet(snowboard, **FULL_PARAMS)
    append_record(record, mode="full", label="bench_fleet", path=RESULTS_PATH)
    print(
        f"\nfleet ({record['workers']} workers, {record['cpu_count']} cores): "
        f"serial {record['serial_executions_per_min']:,.0f} exec/min, "
        f"processes {record['process_executions_per_min']:,.0f} exec/min "
        f"({record['process_speedup']:.2f}x serial), "
        f"sockets {record['socket_executions_per_min']:,.0f} exec/min"
    )
    assert record["trials"] > 0
