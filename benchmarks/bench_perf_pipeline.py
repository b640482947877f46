"""Experiment E2 — section 5.4: analysis-pipeline performance.

The paper reports profiling 129,876 sequential tests in ~40 h,
identification + clustering in <80 h (or <5 h without S-FULL), and a
concurrent-test generation throughput >1000 tests/s.  On the simulated
kernel the absolute numbers are simulator-scale; what we reproduce is
the *relationship*: clustering without S-FULL is far cheaper than with
it, and test generation throughput dwarfs test execution throughput.
"""

from __future__ import annotations

import random


from repro.fuzz.prog import Call, prog
from repro.pmc.clustering import ALL_STRATEGIES, STRATEGIES_BY_NAME
from repro.pmc.identify import identify_pmcs
from repro.pmc.selection import cluster_pmcs, ordered_exemplars
from repro.profile.profiler import Profiler


def test_profiling_throughput(snowboard, benchmark):
    """Sequential tests profiled per second."""
    profiler = Profiler(snowboard.executor)
    programs = snowboard.corpus.programs()[:30]

    def run():
        for i, program in enumerate(programs):
            profiler.profile(i, program)

    benchmark.pedantic(run, rounds=3, iterations=1)
    rate = len(programs) / benchmark.stats["mean"]
    print(f"\nprofiling throughput: {rate:.0f} tests/s")
    benchmark.extra_info["tests_per_second"] = round(rate, 1)


def test_pmc_identification_throughput(snowboard, benchmark):
    """Algorithm 1 over the full corpus profile set."""
    profiles = snowboard.profiles

    def run():
        return identify_pmcs(profiles)

    pmcset = benchmark.pedantic(run, rounds=3, iterations=1)
    rate = pmcset.overlaps_scanned / benchmark.stats["mean"]
    print(
        f"\nidentification: {len(pmcset)} PMCs from "
        f"{pmcset.overlaps_scanned} overlaps; {rate:.0f} overlaps/s"
    )
    benchmark.extra_info["pmcs"] = len(pmcset)
    benchmark.extra_info["overlaps_per_second"] = round(rate)


def test_clustering_cost_with_and_without_s_full(snowboard, benchmark):
    """Paper: S-FULL dominates clustering cost and is not time well spent."""
    import time

    pmcs = snowboard.pmcset.all_pmcs()

    def cluster_all():
        for strategy in ALL_STRATEGIES:
            cluster_pmcs(pmcs, strategy)

    benchmark.pedantic(cluster_all, rounds=3, iterations=1)

    start = time.perf_counter()
    cluster_pmcs(pmcs, STRATEGIES_BY_NAME["S-FULL"])
    with_full = time.perf_counter() - start

    start = time.perf_counter()
    for strategy in ALL_STRATEGIES:
        if strategy.name != "S-FULL":
            cluster_pmcs(pmcs, strategy)
    without_full = time.perf_counter() - start

    nclusters_full = len(cluster_pmcs(pmcs, STRATEGIES_BY_NAME["S-FULL"]))
    print(
        f"\nclustering: S-FULL alone {with_full * 1e3:.1f} ms "
        f"({nclusters_full} clusters) vs all-others {without_full * 1e3:.1f} ms"
    )
    benchmark.extra_info["s_full_clusters"] = nclusters_full
    # S-FULL yields (near-)maximal cluster counts: the costliest strategy.
    for strategy in ALL_STRATEGIES:
        assert nclusters_full >= len(cluster_pmcs(pmcs, strategy)) or strategy.name == "S-FULL"


def test_generation_vs_execution_throughput(snowboard, benchmark):
    """Paper: generation >1000 tests/s, far above execution throughput."""
    import time

    pmcs = snowboard.pmcset.all_pmcs()
    strategy = STRATEGIES_BY_NAME["S-INS-PAIR"]

    def generate():
        rng = random.Random(0)
        exemplars = ordered_exemplars(pmcs, strategy, rng)
        tests = []
        for pmc in exemplars:
            pair = rng.choice(snowboard.pmcset.pairs(pmc))
            tests.append(pair)
        return tests

    tests = benchmark.pedantic(generate, rounds=3, iterations=1)
    generation_rate = len(tests) / benchmark.stats["mean"]

    # Execution rate: run a handful of concurrent tests and time them.
    program = prog(Call("msgget", (1,)), Call("msgsnd", (1, 2)))
    start = time.perf_counter()
    nexec = 20
    for _ in range(nexec):
        snowboard.executor.run_concurrent([program, program])
    execution_rate = nexec / (time.perf_counter() - start)

    print(
        f"\ngeneration: {generation_rate:.0f} tests/s vs execution: "
        f"{execution_rate:.0f} tests/s"
    )
    benchmark.extra_info["generation_per_second"] = round(generation_rate)
    benchmark.extra_info["execution_per_second"] = round(execution_rate)
    assert generation_rate > execution_rate  # the paper's relationship


def test_per_trial_reset_speedup(snowboard, benchmark):
    """Dirty-page restore vs full-copy restore on the standard campaign.

    Every trial restores the boot snapshot; before dirty-page tracking
    that meant rebuilding every mapped page (~4k pages), dwarfing the work
    of a typical trial that dirties a handful.  Run the same campaign
    workload both ways and compare the per-trial reset cost — the
    simulator-relative analogue of the paper's §5.4 throughput table.
    """
    budget = 12

    def run(full_restore):
        snowboard.executor.full_restore = full_restore
        try:
            return snowboard.run_campaign("S-INS-PAIR", test_budget=budget)
        finally:
            snowboard.executor.full_restore = False

    before = run(full_restore=True)
    after = benchmark.pedantic(run, args=(False,), rounds=1, iterations=1)

    # Identical campaign either way: the restore path is behaviour-neutral.
    assert after.summary() == before.summary()

    reset_before = before.restore_seconds / before.trials
    reset_after = after.restore_seconds / after.trials
    speedup = reset_before / reset_after
    print(
        f"\nper-trial reset: full-copy {reset_before * 1e6:.0f} us "
        f"({before.pages_per_trial:.0f} pages) vs dirty-page "
        f"{reset_after * 1e6:.0f} us ({after.pages_per_trial:.1f} pages) "
        f"— {speedup:.1f}x"
    )
    print(
        f"executions/min: {before.executions_per_minute:.0f} (full copy) -> "
        f"{after.executions_per_minute:.0f} (dirty pages); restore fraction "
        f"{before.restore_fraction:.1%} -> {after.restore_fraction:.1%}"
    )
    benchmark.extra_info["reset_speedup"] = round(speedup, 1)
    benchmark.extra_info["pages_per_trial"] = round(after.pages_per_trial, 1)
    benchmark.extra_info["executions_per_minute"] = round(after.executions_per_minute)
    assert after.pages_per_trial < before.pages_per_trial / 10
    assert speedup >= 3.0


def test_parallel_campaign_matches_serial(snowboard, benchmark):
    """Stage 4 on a process fleet: same seed, same bug set as serial."""
    budget = 12
    serial = snowboard.run_campaign("S-INS-PAIR", test_budget=budget)
    parallel = benchmark.pedantic(
        snowboard.run_campaign,
        args=("S-INS-PAIR",),
        kwargs={"test_budget": budget, "workers": 2},
        rounds=1,
        iterations=1,
    )
    print(
        f"\nserial {serial.executions_per_minute:.0f} exec/min vs parallel "
        f"(2 workers) {parallel.executions_per_minute:.0f} exec/min; "
        f"bugs {sorted(parallel.bugs_found())}"
    )
    benchmark.extra_info["serial_per_minute"] = round(serial.executions_per_minute)
    benchmark.extra_info["parallel_per_minute"] = round(parallel.executions_per_minute)
    assert parallel.bugs_found() == serial.bugs_found()
    assert parallel.summary() == serial.summary()
    assert parallel.task_failures == 0
