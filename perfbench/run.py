"""The repository benchmark: four campaign workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload batch --seed 7 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload once
untraced and once with every layer's public entry points wrapped
(``layers.py``) and reports the per-layer metrics.  Lines before it
describe the machine (cores, CPU model, Python, commit or source digest,
load average at start and end), each campaign unit and every metric.

Workloads (the seed picks every input; see ``workloads.py`` for sizes):

``batch``
    Serial ``Snowboard.run_campaign("S-INS-PAIR")`` with the checkpoint
    journal on.  Trials, restore, prefix-fork and journal appends do
    almost all the work; Stages 1-2 run only in set-up, so a Stage-2
    change should leave ``exec_per_min`` unmoved here.
``fleet-sockets``
    The same campaigns with ``workers=2, fleet="sockets"``.  Stage-4
    work is identical and the summaries must equal ``batch``'s; only the
    coordinator, JSON framing, wire codec and worker boot differ.  The
    workload for fleet and transport changes.
``rounds-spill``
    Multi-round ``run_rounds`` with ``pmc_spill_dir`` set and the hot
    tier capped well below the record count.  Delta identify, store
    flush/load, corpus growth and profiling dominate; the access index
    runs through its cold/disk path.  Where a cheaper Stage 2 must show.
``service``
    A ``repro serve`` daemon in a subprocess running three in-memory
    round-based tenants per session; one client thread submits the jobs
    and polls ``GET /jobs/<id>`` in an open loop, each job every 0.2 s
    (``ServiceClient.wait``'s default), until all are done.  The only
    workload reaching turn scheduling, the registry journal, per-turn
    checkpoint reopen and the HTTP API; it uses the in-memory index path.

End-to-end metrics: ``setup_s`` (median ``prepare()`` per visit; daemon
start plus submits for ``service``), ``exec_per_min`` (trials per minute
of measured wall), ``obs_per_cpu_s`` (deduplicated observations per CPU
second of the measured phase, reaped fleet workers included; for
``service`` the daemon's CPU over the measured window), ``peak_rss_mb`` (largest
resident set of this process or a reaped child), ``status_p50_ms`` and
``status_p95_ms`` (progress-query latency while campaigns run, timed
from the query's due time, one client thread polling each job every
0.2 s: ``GET /jobs/<id>`` for ``service``; for the in-process workloads
the packages found so far, read from the live checkpoint journal while
the campaign runs, as ``GET /jobs/<id>/packages`` reads it).  The
three time-based rates and ``setup_s`` are given at a reference machine
speed: each set-up and measured time is divided by the slowdown a fixed
pure-Python probe reads just before and after it (``speed_probe``), so
a shared host's drifting speed does not pass for a change in the
program.  The ``raw`` line before the result has them as measured.

Which layer metric should move which end-to-end metric, on which
workload — and which it should leave alone — is :data:`LAYER_MAP`.
Layer times are self times (duration minus wrapped children) summed
over every thread and process of the traced pass; on ``fleet-sockets``
the ``sched``, ``machine`` and ``detect`` layers are the workers'.
``unattributed_s`` is the driving thread's wall outside any wrapped
call and the speed probes (the daemon's turn loop for ``service``); the
driving thread's self times, its probes and ``unattributed_s`` make up
its wall.  ``obs.coverage`` checks
the timer against a clock it does not derive: the wrapped time of
``prepare``/``run_campaign``/``run_rounds`` over the workload's own
set-up plus measured walls (for ``service``, the daemon's busy turn time
over the sessions' measured walls).
"""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(HERE, "pins.json")
WORKLOADS = ("batch", "fleet-sockets", "rounds-spill", "service")
#: The calls a workload times itself (``setup_s`` and the measured walls).
ROOT_ENTRIES = ("Snowboard.prepare", "Snowboard.run_campaign", "Snowboard.run_rounds")
#: Largest |wrapped / own clock - 1| the coverage check accepts.
COVERAGE_TOLERANCE = 0.03
#: Largest share of the traced wall that may lie outside every wrapped call.
UNATTRIBUTED_SHARE = 0.1

#: layer metric prefix -> (end-to-end metrics and workloads it should
#: move, the pairings it must leave unmoved).
LAYER_MAP: Dict[str, Tuple[str, str]] = {
    "pmc.identify_s pmc.overlaps pmc.new_pairs pmc.pairs_per_overlap": (
        "exec_per_min on rounds-spill and service; setup_s on every workload",
        "exec_per_min on batch and fleet-sockets",
    ),
    "pmc.store_*": (
        "exec_per_min and peak_rss_mb on rounds-spill",
        "every metric of batch, fleet-sockets and service",
    ),
    "fuzz.corpus_s profile.profile_s pmc.select_s": (
        "setup_s on every workload; exec_per_min on rounds-spill and service",
        "exec_per_min on batch and fleet-sockets",
    ),
    "sched.* machine.* detect.observe_s orchestrate.task_s": (
        "exec_per_min and obs_per_cpu_s on batch, and on fleet-sockets via its workers",
        "setup_s on every workload",
    ),
    "orchestrate.journal_s orchestrate.journal_bytes": (
        "exec_per_min on batch and service",
        "setup_s on every workload",
    ),
    "fleet.*": (
        "exec_per_min and obs_per_cpu_s on fleet-sockets",
        "every metric of batch, rounds-spill and service",
    ),
    "service.*": (
        "status_p95_ms and exec_per_min on service",
        "every metric of batch, fleet-sockets and rounds-spill",
    ),
    "kernel.boot_s": (
        "setup_s on every workload; exec_per_min on fleet-sockets (worker boot)",
        "exec_per_min on batch",
    ),
    "orchestrate.campaign_s unattributed_s obs.trace_overhead obs.coverage": (
        "reported on every workload",
        "-",
    ),
}


# -- environment --------------------------------------------------------------------


def machine_descriptor() -> Dict:
    """Cores, CPU model, Python, commit and load: where a number was taken."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_digest": digest.hexdigest()[:16],
        "loadavg_start": list(os.getloadavg()),
    }


def load_pins() -> Dict:
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# -- metrics -------------------------------------------------------------------------


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (statistics' exclusive method)."""
    return statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(outcome, reference: bool = True) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics; with ``reference``, at the reference speed.

    Every set-up and measured time is then divided by the machine slowdown
    probed around it (``workloads.speed_probe``).  Memory is left as
    measured, and so are the status latencies: they are mostly waits for
    the interpreter lock or the poll schedule, which a slower machine
    does not stretch alike.
    """
    from workloads import peak_rss_mb

    return {
        "setup_s": (outcome.setup_median(reference), "s"),
        "exec_per_min": (outcome.exec_per_min(reference), "1/min"),
        "obs_per_cpu_s": (outcome.obs_per_cpu_s(reference), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "status_p50_ms": (percentile(outcome.latencies_ms, 50), "ms"),
        "status_p95_ms": (percentile(outcome.latencies_ms, 95), "ms"),
    }


def per_layer(
    workload: str, untraced, traced, totals: Dict, problems: List[str]
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass, with the coverage check."""
    from layers import TIME_LAYERS, merge_totals
    from workloads import JOB_POLL_S

    parts = [totals] + traced.worker_totals + traced.daemon_totals
    merged = merge_totals(parts)
    self_s, counts, incl = merged["self_s"], merged["counts"], merged["incl_s"]
    # The driving thread: the daemon's turn loop for service, else ours,
    # whose speed probes are the benchmark's own and not unattributed.
    driving = traced.daemon_totals if workload == "service" else [totals]
    probes = 0.0 if workload == "service" else sum(traced.probe_s)
    wall = sum(part["wall_s"] for part in driving)
    unattributed = wall - sum(part["main_root_s"] for part in driving) - probes
    if unattributed > UNATTRIBUTED_SHARE * wall:
        problems.append(f"{unattributed:.3f} s of the {wall:.3f} s traced wall unattributed")
    # Coverage: the timer's wrapped time against the workload's own clock.
    walls = sum(sum(unit.walls) for unit in traced.units.values())
    if workload == "service":
        timed = sum(
            part["incl_s"].get("CampaignService.run_turn", 0.0)
            - part["incl_s"].get("FairScheduler.next_turn", 0.0)
            for part in traced.daemon_totals
        )
        coverage = timed / walls
        # The client sees the last job done up to one poll period late.
        tolerance = JOB_POLL_S * len(traced.setup_s) / walls + COVERAGE_TOLERANCE
    else:
        timed = sum(totals["incl_s"].get(entry, 0.0) for entry in ROOT_ENTRIES)
        coverage = timed / (sum(traced.setup_s) + walls)
        tolerance = COVERAGE_TOLERANCE
    if abs(coverage - 1.0) > tolerance:
        problems.append(f"wrapped time is {coverage:.3f} of the workload's own clock")
    trials = counts.get("sched.trials", 0)
    overlaps = counts.get("pmc.overlaps", 0)
    turn_overhead = (
        incl.get("CampaignService.run_turn", 0.0)
        - incl.get("Snowboard.run_rounds", 0.0)
        - incl.get("FairScheduler.next_turn", 0.0)
    ) if workload == "service" else 0.0
    metrics: Dict[str, Tuple[float, str]] = {
        name: (self_s.get(name, 0.0), "s") for name in TIME_LAYERS
    }
    metrics.update({
        "pmc.overlaps": (overlaps, "count"),
        "pmc.new_pairs": (counts.get("pmc.new_pairs", 0), "count"),
        "pmc.pairs_per_overlap": (
            counts.get("pmc.new_pairs", 0) / overlaps if overlaps else 0.0, "ratio"
        ),
        "pmc.store_cold_loads": (counts.get("pmc.store_cold_loads", 0), "count"),
        "pmc.store_bytes": (traced.store_bytes, "B"),
        "sched.trials": (trials, "count"),
        "sched.forked_share": (
            counts.get("sched.forked", 0) / trials if trials else 0.0, "ratio"
        ),
        "machine.pages_restored": (counts.get("machine.pages_restored", 0), "count"),
        "orchestrate.journal_bytes": (traced.journal_bytes, "B"),
        "fleet.retries": (traced.fleet["retries"], "count"),
        "fleet.respawns": (traced.fleet["respawns"], "count"),
        "fleet.missed_heartbeats": (traced.fleet["missed_heartbeats"], "count"),
        "service.turn_overhead_s": (turn_overhead, "s"),
        "unattributed_s": (unattributed, "s"),
        "traced_wall_s": (wall, "s"),
        "obs.coverage": (coverage, "ratio"),
        "obs.trace_overhead": (
            1.0 - traced.exec_per_min() / untraced.exec_per_min(), "ratio"
        ),
    })
    return metrics


# -- correctness ---------------------------------------------------------------------


def check_outputs(workload: str, seed: int, size: str, outcome, pins: Dict) -> None:
    """Compare the unit summaries against the pin for this seed (batch
    and fleet-sockets share their pins: their summaries must be equal).

    Without a pin the workload's own cross-checks are all there is
    (identical summaries on every visit; fleet equals serial).
    Mismatches land in ``outcome.problems``.
    """
    from workloads import FAMILY, pin_of

    pin = pins.get(FAMILY[workload], {}).get(f"{size}:{seed}")
    got = pin_of(outcome.summaries())
    if pin is not None and got != pin:
        outcome.problems.append(f"summary {got} differs from the pin {pin}")
    if got["observations"] == 0:
        outcome.problems.append("no observation in any unit")


def run_workload(args, tmp: str, pins: Dict, pinned: bool):
    """Run the workload (twice when traced); returns (metrics, outcome)."""
    import workloads
    from layers import LayerTimer

    runner = checked = workloads.RUNNERS[args.workload]
    if args.workload == "fleet-sockets":
        checked = functools.partial(runner, serial_check=not pinned)
    if not args.trace:
        outcome = checked(args.seed, args.seconds, args.size, tmp)
        check_outputs(args.workload, args.seed, args.size, outcome, pins)
        return end_to_end(outcome), outcome
    untraced = checked(args.seed, args.seconds, args.size, tmp, one_pass=True)
    trace_dir = os.path.join(tmp, "trace")
    os.makedirs(trace_dir)
    timer = LayerTimer().install()
    try:
        traced = runner(
            args.seed, args.seconds, args.size, tmp, one_pass=True, trace_dir=trace_dir
        )
    finally:
        timer.uninstall()
    for outcome in (untraced, traced):
        check_outputs(args.workload, args.seed, args.size, outcome, pins)
    if untraced.summaries() != traced.summaries():
        traced.problems.append("traced pass changed the campaign summaries")
    metrics = per_layer(args.workload, untraced, traced, timer.totals(), traced.problems)
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.problems += untraced.problems
    return metrics, traced


# -- entry points --------------------------------------------------------------------


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--daemon", metavar="DATA", help=argparse.SUPPRESS)
    parser.add_argument("--layers-out", help=argparse.SUPPRESS)
    parser.add_argument(
        "--make-pins", metavar="SEEDS",
        help="recompute pins for a seed range such as 0-24 (all workload families)",
    )
    args = parser.parse_args(argv)
    if not (args.workload or args.daemon or args.make_pins):
        parser.error("--workload is required")
    return args


def serve(data: str, layers_out: Optional[str]) -> int:
    """The service workload's daemon process (``repro serve`` equivalent)."""
    from layers import run_traced
    from repro.service.daemon import ServiceDaemon

    def go() -> None:
        ServiceDaemon(data).run()

    if layers_out:
        run_traced(layers_out, go)
    else:
        go()
    return 0


def make_pins(spec: str, size: str) -> int:
    from workloads import REFERENCES, pin_of

    low, _, high = spec.partition("-")
    pins = load_pins()
    for seed in range(int(low), int(high or low) + 1):
        for family, reference in REFERENCES.items():
            pins.setdefault(family, {})[f"{size}:{seed}"] = pin_of(reference(seed, size))
            print(f"pinned {family} {size}:{seed}", flush=True)
        with open(PINS_PATH, "w", encoding="utf-8") as handle:
            json.dump(pins, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


def stop_children() -> None:
    """End and reap every process this run started, helpers included.

    The socket fleet starts its workers with the ``spawn`` method, which
    also starts multiprocessing's resource-tracker process; left alone,
    that helper outlives the benchmark by a moment.  Stop it and wait.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    elif getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)


def report(args, descriptor: Dict, metrics: Dict, outcome, pinned: bool) -> None:
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print("machine " + json.dumps(descriptor, sort_keys=True))
    print(f"visits={outcome.visits} pinned={pinned} status_queries={len(outcome.latencies_ms)} "
          f"max_late_ms={outcome.max_late_ms:.1f}")
    probes = sorted(outcome.probe_s)
    print(f"speed probes={len(probes)} min_ms={1000 * probes[0]:.2f} "
          f"median_ms={1000 * statistics.median(probes):.2f} max_ms={1000 * probes[-1]:.2f} "
          f"slowdown={outcome.slowdown():.4f}")
    if not args.trace:
        raw = end_to_end(outcome, reference=False)
        print("raw " + " ".join(f"{name}={value:.6g}" for name, (value, _) in raw.items()))
    for key, unit in outcome.ordered_units():
        s = unit.summary
        print(f"  unit {key:>5} trials={s['trials']:>5} obs={s['observations']:>3} "
              f"bugs={len(s['bugs']):>2} wall_s={statistics.median(unit.walls):.3f} "
              f"cpu_s={statistics.median(unit.cpus):.3f}")
    for problem in outcome.problems:
        print(f"  PROBLEM {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")


def main(argv: List[str]) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    if args.daemon:
        return serve(args.daemon, args.layers_out)
    if args.make_pins:
        return make_pins(args.make_pins, args.size)
    from workloads import FAMILY

    descriptor = machine_descriptor()
    pins = load_pins()
    pinned = f"{args.size}:{args.seed}" in pins.get(FAMILY[args.workload], {})
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        metrics, outcome = run_workload(args, tmp, pins, pinned)
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
    descriptor["loadavg_end"] = list(os.getloadavg())
    report(args, descriptor, metrics, outcome, pinned)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
