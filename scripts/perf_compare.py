#!/usr/bin/env python
"""Paired benchmark compare: the working tree against a base commit.

    python scripts/perf_compare.py --base REF [--pairs K] [--out FILE]

Checks REF out into a temporary ``git worktree`` and runs the benchmark
that ``BENCHMARK.json`` declares (its ``command`` with ``--workload W
--seed 7 --seconds run_seconds``) on every workload, K times on each
tree.  The two runs of a pair go back to back, and the side that runs
first alternates from pair to pair, so a shared machine's drifting speed
falls on both sides alike.

A metric fails only when the head median is worse than the base median
by more than the metric's BENCHMARK.json ``bound`` and the gap also
exceeds the base interquartile range (IQR): one slow sample cannot fail
it.  A metric whose base IQR alone is wider than its bound reads
``unresolved`` unless every head run beats every base run.  A workload
also fails when any head run reports ``correct: false`` or fails a
larger share of its attempted operations than base does.

Exit status: 0 when nothing fails, 1 when something does, and 2, before
anything runs, for a usage error or when ``BENCHMARK.json`` or a path it
lists differs between the trees: that is a benchmark change, which
resets the baseline rather than being judged by it.  The verdict table
goes to standard output; ``--out`` also writes every run and verdict as
JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import tempfile
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Every run's workload seed: one of perfbench's pinned seeds, the same
#: on both sides so that a pair differs only in the code.
SEED = 7
#: A run still going after this long is killed and counts as incorrect.
RUN_TIMEOUT_S = 900


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def bench_changed(base: str, paths: List[str]) -> bool:
    """Whether ``BENCHMARK.json`` or a file under its ``paths`` differs
    between commit ``base`` and the working tree, untracked files included
    (an old base may predate the benchmark: it then differs)."""
    diff = subprocess.run(["git", "diff", "--quiet", base, "--", "BENCHMARK.json", *paths],
                          cwd=ROOT, capture_output=True)
    return diff.returncode != 0 or bool(git("ls-files", "--others", "--exclude-standard",
                                            "--", *paths))


def run_once(tree: str, command: List[str], workload: str, seconds: float) -> Dict:
    """One benchmark run in ``tree``: its result line plus the machine line."""
    argv = [*command, "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds)]
    # Its own session, so a timeout ends the run's workers and daemon too.
    proc = subprocess.Popen(argv, cwd=tree, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out = proc.communicate(timeout=RUN_TIMEOUT_S)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out = proc.communicate()[0]
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit status {proc.returncode} and no result line"}
    machine = [line[len("machine "):] for line in lines if line.startswith("machine ")]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "machine": json.loads(machine[0]) if machine else None,
    }


def spread(values: List[float]) -> Tuple[float, float, float]:
    """Median and quartiles (the inclusive method: no extrapolation)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def judge(metric: Dict, base: List[float], head: List[float]) -> Dict:
    """One end-to-end metric of one workload: base and head spreads, verdict."""
    sign = 1 if metric["better"] == "lower" else -1  # sign * (head - base) > 0: worse
    (b_med, b_q1, b_q3), (h_med, h_q1, h_q3) = spread(base), spread(head)
    gap, iqr, allowed = sign * (h_med - b_med), b_q3 - b_q1, metric["bound"] * abs(b_med)
    if gap > allowed and gap > iqr:
        status = "FAIL"
    elif iqr > allowed and not all(sign * (h - b) < 0 for h in head for b in base):
        status = "unresolved"
    else:
        status = "ok"
    return {
        "metric": metric["name"], "bound": metric["bound"], "status": status,
        "base": [b_med, b_q1, b_q3], "head": [h_med, h_q1, h_q3],
        "change": (h_med - b_med) / b_med if b_med else None,
    }


def verdicts(spec: Dict, runs: List[Dict]) -> List[Dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        side = {s: [r for r in runs if r["workload"] == workload and r["side"] == s]
                for s in ("base", "head")}
        for metric in spec["end_to_end"]:
            base, head = ([r["metrics"][metric["name"]] for r in side[s]
                           if metric["name"] in r["metrics"]] for s in ("base", "head"))
            if base and head:
                rows.append({"workload": workload, **judge(metric, base, head)})
        incorrect = {s: sum(not r["correct"] for r in side[s]) for s in side}
        share = {s: sum(r["failed"] for r in side[s]) / max(1, sum(r["attempted"] for r in side[s]))
                 for s in side}
        rows.append({"workload": workload, "metric": "incorrect_runs",
                     "status": "FAIL" if incorrect["head"] else "ok",
                     "base": [incorrect["base"]], "head": [incorrect["head"]]})
        rows.append({"workload": workload, "metric": "failed_share",
                     "status": "FAIL" if share["head"] > share["base"] else "ok",
                     "base": [share["base"]], "head": [share["head"]]})
    return rows


def print_table(rows: List[Dict]) -> None:
    def number(value: float) -> str:
        return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"

    def cell(values: List[float]) -> str:
        if len(values) == 1:
            return number(values[0])
        return f"{number(values[0])} [{number(values[1])}, {number(values[2])}]"

    print(f"{'workload':<14}{'metric':<16}{'base median [Q1, Q3]':<28}"
          f"{'head median [Q1, Q3]':<28}{'change':>8}{'bound':>7}  status")
    for row in rows:
        change, bound = row.get("change"), row.get("bound")
        print(f"{row['workload']:<14}{row['metric']:<16}{cell(row['base']):<28}"
              f"{cell(row['head']):<28}{'-' if change is None else format(change, '+.1%'):>8}"
              f"{'-' if bound is None else format(bound, '.0%'):>7}  {row['status']}")


def compare(spec: Dict, base_tree: str, pairs: int) -> List[Dict]:
    runs = []
    for pair in range(pairs):
        for workload in (w["name"] for w in spec["workloads"]):
            for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                tree = base_tree if side == "base" else ROOT
                result = run_once(tree, spec["command"], workload, spec["run_seconds"])
                runs.append({"pair": pair, "workload": workload, "side": side, **result})
                shown = " ".join(f"{k}={v:.4g}" for k, v in result["metrics"].items())
                print(f"pair {pair + 1}/{pairs} {workload} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {shown}"
                      f"{' ' + result['error'] if 'error' in result else ''}", flush=True)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare the working tree with")
    parser.add_argument("--pairs", type=int, default=5, help="base/head pairs (default 5)")
    parser.add_argument("--out", help="also write every run and verdict to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--base {args.base!r} names no commit")
    report = {"base": base, "head": git("describe", "--always", "--dirty"),
              "pairs": args.pairs, "seed": SEED, "run_seconds": spec["run_seconds"]}
    if bench_changed(base, spec["paths"]):
        print(f"perf_compare: BENCHMARK.json or {', '.join(spec['paths'])} differ between "
              f"{base[:12]} and the working tree; a benchmark change resets the "
              "baseline, so nothing was measured")
        return 2
    tmp = tempfile.mkdtemp(prefix="perf_compare_")
    base_tree = os.path.join(tmp, "base")
    git("worktree", "add", "--detach", base_tree, base)
    try:
        report["runs"] = compare(spec, base_tree, args.pairs)
    finally:
        git("worktree", "remove", "--force", base_tree)
        shutil.rmtree(tmp, ignore_errors=True)
    report["machine"] = next((r["machine"] for r in report["runs"] if r.get("machine")), None)
    report["verdicts"] = rows = verdicts(spec, report["runs"])
    failing = [f"{r['workload']} {r['metric']}" for r in rows if r["status"] == "FAIL"]
    report["failing"] = failing
    print(f"\nbase {base[:12]}  head {report['head']}  {args.pairs} pair(s), seed {SEED}, "
          f"{spec['run_seconds']} s per run")
    print_table(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    if failing:
        print("perf_compare: FAILED on " + ", ".join(failing))
        return 1
    print("perf_compare: no metric worse than its bound beyond the base spread")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
