"""The Snowboard pipeline façade (Figure 2 of the paper).

Stage 1 — sequential test generation & profiling: build a coverage-
distilled corpus with the fuzzer and profile every kept test from the
fixed boot snapshot.

Stage 2 — PMC identification: Algorithm 1 over all profiles.

Stage 3 — PMC selection: cluster under a Table 1 strategy, order
clusters uncommon-first, draw exemplars.

Stage 4 — concurrent test execution: for each exemplar PMC, pick one
(writer, reader) test pair at random, and explore interleavings with the
PMC as scheduling hint (Algorithm 2), running the bug oracles on every
trial.

The baselines of Table 3 (Random pairing, Duplicate pairing, Random
S-INS-PAIR) are exposed through the same interface.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

from repro.detect.datarace import RaceDetector
from repro.detect.report import observe
from repro.fuzz.corpus import Corpus, grow_corpus, seed_corpus
from repro.fuzz.prog import Program
from repro.kernel.kernel import boot_kernel
from repro.obs import NULL_OBSERVER, buffering_observer
from repro.orchestrate.campaign import CampaignState, RoundInfo, selection_rng
from repro.orchestrate.results import CampaignResult
from repro.pmc.clustering import STRATEGIES_BY_NAME
from repro.pmc.identify import PmcSet, identify_delta
from repro.pmc.model import PMC
from repro.pmc.selection import SelectionHistory, cluster_pmcs, ordered_exemplars
from repro.profile.profiler import TestProfile, profile_new
from repro.sched.executor import Executor
from repro.sched.random_sched import RandomScheduler
from repro.sched.prefixfork import PrefixMemo
from repro.sched.ski import SkiScheduler
from repro.sched.snowboard import SnowboardScheduler, channel_exercised

# Table 3 row names for the non-clustering generation methods.
RANDOM_PAIRING = "Random pairing"
DUPLICATE_PAIRING = "Duplicate pairing"
RANDOM_S_INS_PAIR = "Random S-INS-PAIR"

#: Every test-generation method a campaign accepts: the Table 1
#: clustering strategies, then the Table 3 baselines.
ALL_METHODS = tuple(STRATEGIES_BY_NAME) + (
    RANDOM_S_INS_PAIR,
    RANDOM_PAIRING,
    DUPLICATE_PAIRING,
)

#: Stage-4 scheduler kinds (:func:`build_scheduler`).
SCHEDULER_KINDS = ("snowboard", "ski", "random")

#: Stage-4 fleet kinds for ``workers > 1``; the first is the default.
FLEET_KINDS = ("processes", "sockets")


def derive_initial_state(kernel, snapshot, setup_program: Program):
    """Run a setup program from a snapshot and capture the new state.

    Section 4.1: test-specific kernel configuration belongs to the tests
    themselves, but Snowboard "can grow the number of initial kernel
    states it utilizes to increase diversity" — this helper produces such
    an additional fixed initial state.
    """
    from repro.machine.snapshot import Snapshot

    executor = Executor(kernel, snapshot)
    result = executor.run_sequential(setup_program)
    if not result.completed:
        raise ValueError(
            f"setup program failed: panic={result.panic_message!r} "
            f"deadlock={result.deadlocked} budget={result.budget_exceeded}"
        )
    return Snapshot.capture(kernel.machine, label="post-setup")


@dataclass(frozen=True)
class SnowboardConfig:
    """Pipeline knobs (the paper's values, scaled to simulator size)."""

    seed: int = 0
    corpus_budget: int = 300  # fuzzer candidate executions
    trials_per_pmc: int = 24  # paper: at most 64 trials per PMC
    switch_probability: float = 0.5
    max_instructions: int = 60_000  # per-trial instruction budget
    stop_test_on_new_bug: bool = True
    # Boot the patched-kernel variant (every planted bug repaired): the
    # regression target demonstrating that campaigns raise no alarms on a
    # correct kernel.
    fixed_kernel: bool = False
    # Optional setup program: executed once after boot, and the resulting
    # state becomes the fixed initial snapshot.  This is how the pipeline
    # grows the set of reachable initial kernel states (section 4.1) —
    # e.g. pre-populating IPC queues or tunnels before fuzzing.
    setup_program: Optional[Program] = None
    # Incidental-PMC adoption (Algorithm 2 line 27).  Off by default: on a
    # mini-kernel the adopted PMCs are dominated by hot allocator metadata,
    # and the extra switch points defocus the search (see the ablation
    # benchmark bench_ablation_incidental).
    adopt_incidental_pmcs: bool = False
    # Stage-4 fleet fault tolerance: how many times a crashed task is
    # deterministically re-executed, and how many times a dead worker
    # (factory crash or payload BaseException) is respawned.
    task_retries: int = 1
    worker_respawns: int = 2
    # Process-fleet knobs (``fleet="processes"``): how long a dispatched
    # task may run before its lease expires and the coordinator reclaims
    # it (killing the worker), and which multiprocessing start method
    # boots workers.  The lease must comfortably exceed the slowest
    # task's trials; expiry is treated as worker death, so an undersized
    # value turns healthy-but-slow workers into respawn churn.
    fleet_lease_timeout: float = 120.0
    fleet_start_method: str = "spawn"
    # Heartbeat liveness (process and socket fleets): workers beat on the
    # results channel every ``fleet_heartbeat_interval`` seconds; a slot
    # whose last beat is older than ``fleet_heartbeat_timeout`` is
    # declared dead and its lease reclaimed.  ``fleet_boot_grace`` is the
    # pre-first-beat allowance (interpreter start / snapshot import /
    # socket dial-in all happen before the first beat).
    fleet_heartbeat_interval: float = 0.5
    fleet_heartbeat_timeout: float = 10.0
    fleet_boot_grace: float = 60.0
    # Socket-fleet knobs (``fleet="sockets"``): the listen endpoint
    # (port 0 = ephemeral), the shared handshake token (empty = generate
    # a fresh one per round), and whether the transport auto-spawns
    # local worker processes (False = wait for external
    # ``repro fleet-worker --connect`` workers).
    fleet_listen: str = "127.0.0.1:0"
    fleet_token: str = ""
    fleet_spawn_workers: bool = True
    # Out-of-core PMC store (DESIGN §2.14): when set, the access index
    # writes every insert through to an append-only segment store in
    # this directory, and ``pmc_hot_records`` bounds how many records the
    # in-memory hot tier may hold before least-recently-touched buckets
    # are evicted to disk (None = unbounded hot tier, store still
    # written for durability).  Spilled campaigns are bit-identical to
    # in-memory ones; only memory footprint and tier hit rates change.
    pmc_spill_dir: Optional[str] = None
    pmc_hot_records: Optional[int] = None
    # Sequential-prefix fork memoization (DESIGN §2.15).  On by default:
    # trials of one task fork from a cached mid-trial delta snapshot at
    # their first switch point instead of re-running the writer's solo
    # prefix from boot.  Observably invisible — trial streams, funnel
    # totals and repro packages are bit-identical either way.
    prefix_fork: bool = True
    # Commuting-schedule pruning (opt-in): partial-order reduction over
    # the recorded prefix — commuting first-switch candidates share a
    # representative trial, and the rest of the budget is skipped (the
    # skips are credited to ``stage4.trials_pruned``).  Changes how many
    # trials run, so it is off by default and excluded from the
    # bit-identity contract (bug *yield* is preserved instead).
    prune_commuting: bool = False


@dataclass(frozen=True)
class ConcurrentTest:
    """A generated concurrent test: two sequential tests + scheduling hint."""

    writer: Program
    reader: Program
    writer_test: int
    reader_test: int
    pmc: Optional[PMC] = None

    @property
    def duplicate(self) -> bool:
        return self.writer_test == self.reader_test


@dataclass(frozen=True)
class Stage4Task:
    """One Stage-4 work item: run the trials of one test.

    ``task_id`` doubles as the test's position in the campaign, so the
    scheduler seed is ``config.seed + task_id`` wherever the task runs.
    """

    task_id: int
    test: ConcurrentTest
    trials: int
    scheduler_kind: str = "snowboard"
    prefix_fork: bool = True
    prune_commuting: bool = False


@dataclass(frozen=True)
class TrialOutcome:
    """Compact record of one trial, sufficient for deterministic merging.

    Console/switch-point/panic data is kept only for trials that produced
    observations (the only trials a reproduction package can be captured
    from), so a task result stays small even over long trial runs.
    """

    trial: int
    instructions: int
    pages_restored: int
    restore_seconds: float
    races: int = 0
    observations: Tuple = ()
    channel_hit: bool = False
    switch_points: Tuple[int, ...] = ()
    console: Tuple[str, ...] = ()
    panic_message: str = ""
    # True when the trial was served from already-cached prefix state
    # (counted as ``stage4.prefix_fork_hits`` by the merge).
    forked: bool = False


def scheduler_stats(scheduler) -> Dict[str, int]:
    """Exploration diagnostics for span attrs ({} for schedulers without
    a ``stats()``, e.g. the random baseline)."""
    stats = getattr(scheduler, "stats", None)
    return stats() if callable(stats) else {}


def build_scheduler(
    config: SnowboardConfig,
    test: ConcurrentTest,
    seed: int,
    kind: str = "snowboard",
    universe: Optional[Sequence[PMC]] = None,
):
    """Build the scheduler for one concurrent test.

    Module-level (not a :class:`Snowboard` method) because process-fleet
    workers rebuild schedulers from wire data without a pipeline
    instance; ``universe`` is the incidental-adoption PMC list the
    coordinator precomputed (``None`` when adoption is off).
    """
    if kind not in SCHEDULER_KINDS:
        raise ValueError(f"unknown scheduler kind {kind!r}")
    if test.pmc is None or kind == "random":
        return RandomScheduler(seed=seed)
    if kind == "ski":
        return SkiScheduler(test.pmc, seed=seed)
    return SnowboardScheduler(
        test.pmc,
        seed=seed,
        switch_probability=config.switch_probability,
        universe=universe,
    )


def run_task_trials(
    executor: Executor,
    task: Stage4Task,
    scheduler,
    obs_epoch: Optional[float] = None,
    seen_keys: Optional[AbstractSet] = None,
) -> Tuple[List[TrialOutcome], Optional[Dict], int]:
    """Run the trials of one Stage-4 task on ``executor``.

    The one trial loop: inline dispatch (:meth:`Snowboard.execute_test`)
    runs it on the campaign executor, and every fleet worker runs it on a
    private one, so where a task runs never changes what it finds.

    ``seen_keys`` is the campaign's observation dedup set at dispatch.
    When given, the loop stops after the first trial that shows a key
    outside it, which is the trial where the merge stops the test:
    inline dispatch follows every earlier merge, so its set is exact.
    Fleet workers pass ``None`` and run the whole plan, because keys
    found by other tasks after dispatch are unknown to them; the merge
    discards their trials past its stop.

    When ``obs_epoch`` is given, tracing buffers into a private MemorySink
    sharing the campaign tracer's epoch; the returned buffer
    (``{"prelude": [pre-trial events], "trials": [per-trial event
    slices], "tail": [...]}``) is replayed by the merge in task order.
    Funnel counters are NOT incremented here — the merge counts them, on
    exactly the merged trials.

    Returns ``(outcomes, buffer, pruned)``: ``buffer`` is ``None`` when
    tracing is off, and ``pruned`` counts the budgeted trials the
    commuting-schedule plan skipped.
    """
    test = task.test
    sink = None
    obs = NULL_OBSERVER
    executor_obs = executor.obs
    if obs_epoch is not None:
        obs, sink = buffering_observer(obs_epoch)
        executor.obs = obs
    outcomes: List[TrialOutcome] = []
    slices: List[List[Dict]] = []
    exercised = False
    try:
        with obs.span(
            "stage4.test",
            test=task.task_id,
            writer=test.writer_test,
            reader=test.reader_test,
        ) as test_span:
            memo = PrefixMemo(
                executor,
                test.writer,
                test.reader,
                pmc=test.pmc,
                enabled=task.prefix_fork,
                prune=task.prune_commuting,
            )
            if memo.active:
                with obs.span("stage4.prefix_record", test=task.task_id):
                    memo.prepare()
            effective, pruned = memo.plan_trials(task.trials)
            # Everything emitted before the first trial (the recording
            # span) goes into the buffer's prelude so per-trial slices
            # keep their alignment for the merger's replay.
            prelude = len(sink.events) if sink is not None else 0
            for trial in range(effective):
                mark = len(sink.events) if sink is not None else 0
                with obs.span(
                    "stage4.trial", test=task.task_id, trial=trial
                ) as trial_span:
                    scheduler.begin_trial(trial)
                    detector = RaceDetector()
                    result, forked = memo.run_trial(scheduler, detector)
                    if test.pmc is not None and not exercised:
                        # Once the channel fired, the prefix-OR the
                        # merger computes is True regardless of later
                        # trials; skip the scan.
                        exercised = channel_exercised(test.pmc, result.accesses)
                    observations = tuple(observe(result))
                    races = len(result.races)
                    outcomes.append(
                        TrialOutcome(
                            trial=trial,
                            instructions=result.instructions,
                            pages_restored=result.pages_restored,
                            restore_seconds=result.restore_seconds,
                            races=races,
                            observations=observations,
                            channel_hit=exercised,
                            switch_points=(
                                tuple(result.switch_points) if observations else ()
                            ),
                            console=tuple(result.console) if observations else (),
                            panic_message=(
                                result.panic_message if observations else ""
                            ),
                            forked=forked,
                        )
                    )
                    scheduler.end_trial(result)
                    if sink is not None:
                        trial_span.set(
                            instructions=result.instructions, races=races
                        )
                if sink is not None:
                    slices.append(sink.events[mark:])
                if seen_keys is not None and any(
                    o.key not in seen_keys for o in observations
                ):
                    break
            if sink is not None:
                test_span.set(exercised=exercised, **scheduler_stats(scheduler))
    finally:
        executor.obs = executor_obs
    if sink is None:
        return outcomes, None, pruned
    consumed = prelude + sum(len(chunk) for chunk in slices)
    buffer = {
        "prelude": sink.events[:prelude],
        "trials": slices,
        "tail": sink.events[consumed:],
    }
    return outcomes, buffer, pruned


class Snowboard:
    """End-to-end Snowboard instance over the mini-kernel."""

    def __init__(
        self, config: Optional[SnowboardConfig] = None, observer=None
    ):
        self.config = config or SnowboardConfig()
        # Observability facade (repro.obs.Observer); NULL_OBSERVER when off.
        # Instrumentation is passive: it consumes no randomness and alters
        # no control flow, so campaigns are bit-identical either way.
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.kernel = None
        self.snapshot = None
        self.executor: Optional[Executor] = None
        self.corpus: Optional[Corpus] = None
        self.profiles: List[TestProfile] = []
        self.pmcset: Optional[PmcSet] = None
        # Incremental campaign memory (generator, access index, tested
        # history, watermarks); created by prepare(), advanced per round.
        self.state: Optional[CampaignState] = None
        self._pair_index: Optional[Dict[Tuple[int, int], List[PMC]]] = None
        # Test-only fault injection shipped to fleet workers (a
        # repro.orchestrate.fleet.FleetFault); None in real campaigns.
        self.fleet_fault = None
        # First reproduction package captured per catalogued bug id.
        self.repro_packages: Dict[str, "ReproPackage"] = {}

    # -- stages 1 & 2 -----------------------------------------------------------

    def prepare(self) -> "Snowboard":
        """Boot, fuzz, profile, identify — round one of the incremental
        engine.  Idempotent.

        The batch pipeline is the one-round special case: seed the corpus,
        run one fuzzing pass over the full budget, profile everything, and
        classify the whole delta against an empty access index.  All of
        that goes through the same incremental machinery
        (:func:`grow_corpus`, :func:`profile_new`, :func:`identify_delta`)
        that :meth:`run_rounds` advances round after round, so the two
        paths cannot drift.
        """
        if self.pmcset is not None:
            return self
        obs = self.obs
        with obs.span("stage1.boot", fixed=self.config.fixed_kernel):
            self.kernel, self.snapshot = boot_kernel(fixed=self.config.fixed_kernel)
            if self.config.setup_program is not None:
                self.snapshot = derive_initial_state(
                    self.kernel, self.snapshot, self.config.setup_program
                )
        self.executor = Executor(
            self.kernel, self.snapshot, max_instructions=self.config.max_instructions
        )
        self.executor.obs = obs
        from repro.fuzz.spec import DEFAULT_SEEDS

        self.state = CampaignState.fresh(self.config.seed)
        if self.config.pmc_spill_dir is not None:
            from repro.pmc.index import AccessIndex
            from repro.pmc.store import AccessStore

            # The fingerprint pins the store to this campaign's insert
            # stream: a manifest written under different Stage-1 params
            # describes different records and must not be adopted.
            store = AccessStore.open(
                self.config.pmc_spill_dir,
                fingerprint={
                    "seed": self.config.seed,
                    "corpus_budget": self.config.corpus_budget,
                    "fixed_kernel": self.config.fixed_kernel,
                },
            )
            self.state.index = AccessIndex(
                store=store, hot_capacity=self.config.pmc_hot_records
            )
        self.corpus = Corpus()
        self.pmcset = PmcSet()
        with obs.span("stage1.corpus", budget=self.config.corpus_budget):
            seed_corpus(self.corpus, self.executor, DEFAULT_SEEDS)
            grow_corpus(
                self.corpus,
                self.executor,
                self.state.generator,
                self.config.corpus_budget,
            )
        self.state.corpus_epoch = 1
        if obs.enabled:
            obs.count("stage1.corpus_tests", len(self.corpus))
        self._ingest_new_tests()
        return self

    def _grow_corpus(self, budget: int) -> int:
        """One more fuzzing pass over the existing corpus (rounds >= 2).

        The generator's RNG state carries over from earlier passes, and
        mutation draws from all current survivors; returns entries kept.
        """
        obs = self.obs
        with obs.span("stage1.corpus", budget=budget):
            kept = grow_corpus(
                self.corpus, self.executor, self.state.generator, budget
            )
        self.state.corpus_epoch += 1
        if obs.enabled:
            obs.count("stage1.corpus_tests", kept)
        return kept

    def _ingest_new_tests(self) -> Tuple[int, int, int]:
        """Profile the unprofiled corpus tail and classify its delta.

        Advances the profiled-test watermark, runs the delta overlap scan
        against the accumulated access index (each overlapping pair is
        classified exactly once across the campaign's lifetime), and
        rebuilds the eager (writer, reader) pair index.  Returns
        ``(new_profiles, new_pmcs, new_pairs)``.
        """
        state = self.state
        new_entries = self.corpus.entries[state.profiled_watermark :]
        new_profiles = profile_new(new_entries, obs=self.obs)
        self.profiles.extend(new_profiles)
        state.profiled_watermark = len(self.corpus.entries)
        new_pmcs, new_pairs = identify_delta(
            self.pmcset, state.index, new_profiles, obs=self.obs
        )
        # Push the round's write-through suffix to its segments so the
        # hot tier can evict freely and a round-boundary checkpoint only
        # has the manifest left to write.
        state.index.flush()
        self._pair_index = None
        self._build_pair_index()
        return len(new_profiles), new_pmcs, new_pairs

    def _program(self, test_id: int) -> Program:
        return self.corpus.entries[test_id].program

    def _build_pair_index(self) -> Dict[Tuple[int, int], List[PMC]]:
        """Build the (writer, reader) pair -> PMCs index.

        Built eagerly at the end of every ingest (prepare() and each
        round's delta), so Stage-4 dispatch only ever reads it through
        :meth:`_pmcs_for_pair`.
        """
        if self._pair_index is None:
            index: Dict[Tuple[int, int], List[PMC]] = {}
            for pmc, pairs in self.pmcset.pmcs.items():
                for p in pairs:
                    index.setdefault(p, []).append(pmc)
            self._pair_index = index
        return self._pair_index

    def _pmcs_for_pair(self, pair: Tuple[int, int]) -> List[PMC]:
        """All identified PMCs exhibited by this (writer, reader) pair."""
        return self._build_pair_index().get(pair, [])

    # -- stage 3: concurrent test generation ---------------------------------------

    def generate_tests(
        self,
        strategy: str = "S-INS-PAIR",
        limit: Optional[int] = None,
        random_order: bool = False,
        rng: Optional[random.Random] = None,
        history: Optional[SelectionHistory] = None,
    ) -> Tuple[List[ConcurrentTest], int]:
        """Exemplar selection under a strategy.

        Returns (tests in uncommon-first order, number of clusters).

        ``rng`` defaults to the batch selection stream (round one of the
        incremental derivation); round-based campaigns pass the per-round
        stream and their cross-round ``history`` so clusters and PMCs
        tested in earlier rounds are excluded (§4.3).
        """
        self.prepare()
        if rng is None:
            rng = selection_rng(self.config.seed, 1)
        if strategy in (RANDOM_PAIRING, DUPLICATE_PAIRING):
            tests = self._generate_baseline(strategy, limit or 100, rng)
            if self.obs.enabled:
                self.obs.count("stage3.tests", len(tests))
            return tests, 0
        if strategy == RANDOM_S_INS_PAIR:
            clustering = STRATEGIES_BY_NAME["S-INS-PAIR"]
            random_order = True
        else:
            clustering = STRATEGIES_BY_NAME[strategy]
        pmcs = self.pmcset.all_pmcs()
        nclusters = len(cluster_pmcs(pmcs, clustering))
        exemplars = ordered_exemplars(
            pmcs,
            clustering,
            rng,
            random_order=random_order,
            limit=limit,
            obs=self.obs,
            history=history,
        )
        tests = self.tests_from_exemplars(exemplars, rng)
        if self.obs.enabled:
            self.obs.count("stage3.tests", len(tests))
        return tests, nclusters

    def tests_from_exemplars(
        self, exemplars: Sequence[PMC], rng: Optional[random.Random] = None
    ) -> List[ConcurrentTest]:
        """Turn an exemplar PMC list (any selection/composition scheme)
        into concurrent tests, choosing one (writer, reader) pair each."""
        self.prepare()
        rng = rng or random.Random(self.config.seed ^ 0x7E57)
        tests = []
        for pmc in exemplars:
            pairs = self.pmcset.pairs(pmc)
            writer_test, reader_test = rng.choice(pairs)
            tests.append(
                ConcurrentTest(
                    writer=self._program(writer_test),
                    reader=self._program(reader_test),
                    writer_test=writer_test,
                    reader_test=reader_test,
                    pmc=pmc,
                )
            )
        return tests

    def _generate_baseline(
        self, strategy: str, count: int, rng: random.Random
    ) -> List[ConcurrentTest]:
        tests = []
        n = len(self.corpus)
        for _ in range(count):
            writer_test = rng.randrange(n)
            reader_test = (
                writer_test if strategy == DUPLICATE_PAIRING else rng.randrange(n)
            )
            tests.append(
                ConcurrentTest(
                    writer=self._program(writer_test),
                    reader=self._program(reader_test),
                    writer_test=writer_test,
                    reader_test=reader_test,
                    pmc=None,
                )
            )
        return tests

    # -- stage 4: concurrent execution ----------------------------------------------

    def make_scheduler(self, test: ConcurrentTest, seed: int, kind: str = "snowboard"):
        """Build the scheduler for one concurrent test."""
        return build_scheduler(
            self.config, test, seed, kind, universe=self._scheduler_universe(test)
        )

    def _scheduler_universe(self, test: ConcurrentTest) -> Optional[List[PMC]]:
        """The incidental-adoption PMC universe for one test (or None).

        Computed at dispatch: fleet workers have no corpus, so they
        receive it over the wire."""
        if not self.config.adopt_incidental_pmcs or test.pmc is None:
            return None
        return self._pmcs_for_pair((test.writer_test, test.reader_test))

    def _task(
        self,
        task_id: int,
        test: ConcurrentTest,
        scheduler_kind: str,
        trials: Optional[int],
    ) -> Stage4Task:
        """One test as a Stage-4 task under this campaign's config."""
        return Stage4Task(
            task_id=task_id,
            test=test,
            trials=trials or self.config.trials_per_pmc,
            scheduler_kind=scheduler_kind,
            prefix_fork=self.config.prefix_fork,
            prune_commuting=self.config.prune_commuting,
        )

    def execute_test(
        self,
        test: ConcurrentTest,
        campaign: CampaignResult,
        scheduler_kind: str = "snowboard",
        trials: Optional[int] = None,
        task_id: Optional[int] = None,
    ) -> bool:
        """Run one concurrent test inline; True if a new bug surfaced.

        The inline dispatch: :func:`run_task_trials` on the campaign
        executor, handed the campaign's dedup keys so it stops where the
        merge stops, then the same :meth:`_merge_task_outcomes` a fleet
        task's result goes through.

        ``task_id`` pins the test's campaign position (seed and recorded
        ``test_index``) explicitly — required when resuming a checkpointed
        campaign, where tests before the resume point are skipped and
        ``campaign.tested_pmcs`` no longer equals the loop index.
        """
        if task_id is None:
            task_id = campaign.tested_pmcs
        scheduler = self.make_scheduler(
            test, seed=self.config.seed + task_id, kind=scheduler_kind
        )
        result = run_task_trials(
            self.executor,
            self._task(task_id, test, scheduler_kind, trials),
            scheduler,
            obs_epoch=self.obs.tracer.epoch if self.obs.enabled else None,
            seen_keys=campaign.seen_keys if self.config.stop_test_on_new_bug else None,
        )
        return self._merge_task_outcomes(test, result, campaign, task_id)

    def _capture_packages(self, test: ConcurrentTest, result, fresh_records) -> None:
        """Store one deterministic reproduction package per new bug id."""
        from repro.orchestrate.persistence import capture_package

        for record in fresh_records:
            bug_id = record.bug_id
            if bug_id == "unmatched" or bug_id in self.repro_packages:
                continue
            self.repro_packages[bug_id] = capture_package(
                bug_id,
                test.writer,
                test.reader,
                result,
                description=str(record.observation),
            )

    def _merge_task_outcomes(
        self,
        test: ConcurrentTest,
        result,
        campaign: CampaignResult,
        task_id: int,
    ) -> bool:
        """Fold one task's result into the campaign; True if a new bug
        surfaced.

        Every Stage-4 task ends here, inline or from a fleet, in task
        order, and this is the only place the ``stage4.*`` funnel counters
        are counted.  The fold stops at the first trial with a fresh
        observation (under ``stop_test_on_new_bug``), so a fleet task's
        surplus trials are dropped and serial and parallel campaigns
        record identical bug sets, trial counts and first-find positions;
        only the merged trials' buffered spans reach the trace.

        ``result`` is :func:`run_task_trials`' ``(outcomes, buffer,
        pruned)``, or a :class:`~repro.orchestrate.queue.TaskFailure` (or
        ``None``, no result at all) for a task the fleet gave up on: it
        is counted as a failure, not merged, and still consumes its test
        index, keeping later first-find positions aligned with a serial
        run.
        """
        campaign.tested_pmcs += 1
        obs = self.obs
        if not isinstance(result, tuple):
            campaign.task_failures += 1
            if obs.enabled:
                obs.count("stage4.tests", 1)
                obs.event("stage4.task_failed", task=task_id)
                obs.flush_metrics()
            return False
        outcomes, buffer, pruned = result
        trials_before = campaign.trials
        exercised = False
        found_new = False
        for outcome in outcomes:
            campaign.trials += 1
            campaign.instructions += outcome.instructions
            campaign.pages_restored += outcome.pages_restored
            campaign.restore_seconds += outcome.restore_seconds
            if test.pmc is not None and not exercised:
                exercised = outcome.channel_hit
            fresh = campaign.record_observations(
                list(outcome.observations), test_index=task_id, trial=outcome.trial
            )
            if obs.enabled:
                obs.count("stage4.trials", 1)
                obs.count("stage4.instructions", outcome.instructions)
                obs.count("restore.pages", outcome.pages_restored)
                obs.count("stage4.races", outcome.races)
                if fresh:
                    obs.count("stage4.observations", len(fresh))
                if outcome.forked:
                    obs.count("stage4.prefix_fork_hits", 1)
                obs.observe("stage4.trial_instructions", outcome.instructions)
            if fresh:
                found_new = True
                self._capture_packages(test, outcome, fresh)
                if self.config.stop_test_on_new_bug:
                    break
        if exercised:
            campaign.exercised_pmcs += 1
        if obs.enabled:
            obs.count("stage4.tests", 1)
            if exercised:
                obs.count("stage4.exercised", 1)
            if pruned:
                obs.count("stage4.trials_pruned", pruned)
            if buffer is not None:
                events = list(buffer["prelude"])
                for chunk in buffer["trials"][: campaign.trials - trials_before]:
                    events.extend(chunk)
                events.extend(buffer["tail"])
                obs.replay(events)
            obs.flush_metrics()
        return found_new

    def _run_transport_fleet(
        self,
        todo: Sequence[Tuple[int, ConcurrentTest]],
        campaign: CampaignResult,
        scheduler_kind: str,
        trials: Optional[int],
        workers: int,
        fleet: Optional[str],
    ) -> Dict[int, object]:
        """Execute ``(task_id, test)`` items over an out-of-process fleet.

        Tasks cross the process (or machine) boundary as
        :class:`TaskEnvelope`s (the incidental-adoption universe
        precomputed coordinator-side, since workers have no corpus);
        results come back as :class:`ResultEnvelope`s and are decoded to
        :func:`run_task_trials`' ``(outcomes, buffer, pruned)``, keyed by
        task id, or left as the coordinator's ``TaskFailure``.  ``fleet``
        picks the transport under the shared coordinator: ``"processes"``
        (multiprocessing queues, the default) or ``"sockets"``
        (length-prefixed JSON frames over TCP).
        """
        from repro.orchestrate.fleet import (
            FleetCoordinator,
            ResultEnvelope,
            TaskEnvelope,
            WorkerSpec,
        )

        envelopes = [
            TaskEnvelope.from_task(
                self._task(index, test, scheduler_kind, trials),
                universe=self._scheduler_universe(test),
            )
            for index, test in todo
        ]
        obs = self.obs
        spec = WorkerSpec(
            config=self.config,
            obs_enabled=obs.enabled,
            obs_epoch=obs.tracer.epoch if obs.enabled else 0.0,
            fault=self.fleet_fault,
            heartbeat_interval=self.config.fleet_heartbeat_interval,
        )
        if fleet == "sockets":
            from repro.orchestrate.socketfleet import SocketTransport

            host, _, port = self.config.fleet_listen.rpartition(":")
            transport = SocketTransport(
                spec,
                host=host or "127.0.0.1",
                port=int(port or 0),
                token=self.config.fleet_token or None,
                spawn_workers=self.config.fleet_spawn_workers,
                start_method=self.config.fleet_start_method,
            )
        else:
            from repro.orchestrate.transport import MultiprocessingTransport

            transport = MultiprocessingTransport(
                spec, start_method=self.config.fleet_start_method
            )
        coordinator = FleetCoordinator(
            transport,
            nworkers=workers,
            max_task_retries=self.config.task_retries,
            max_worker_respawns=self.config.worker_respawns,
            lease_timeout=self.config.fleet_lease_timeout,
            heartbeat_timeout=self.config.fleet_heartbeat_timeout,
            boot_grace=self.config.fleet_boot_grace,
            obs=obs,
        )
        raw = coordinator.run(envelopes)
        campaign.adopt_worker_stats(coordinator.worker_stats)
        return {
            index: result.decode() if isinstance(result, ResultEnvelope) else result
            for index, result in raw.items()
        }

    def _stamp_store_header(self, header: Dict) -> None:
        """Record the PMC store's identity in a journal header.

        Informational (not a guarded field — resuming a spilled journal
        in memory mode, or vice versa, is legitimate, like switching
        fleet kinds): the spill dir and the manifest digest current at
        journal creation, so an operator can tie a journal to the store
        directory that fed it.  In-memory campaigns add nothing, keeping
        their headers byte-identical to the pre-spill format.
        """
        store = self.state.index.store if self.state is not None else None
        if store is not None:
            header["pmc_spill_dir"] = store.root
            header["store_manifest"] = store.manifest_digest

    def _open_checkpoint(
        self,
        checkpoint_path: str,
        resume: bool,
        campaign: CampaignResult,
        strategy: str,
        shape: Dict,
        scheduler_kind: str,
        trials: Optional[int],
        fsync: bool = False,
        ntests: Optional[int] = None,
    ):
        """Create or resume a campaign journal.

        ``shape`` holds the header's campaign-shape fields: the batch
        ``test_budget`` (plus ``ntests``), or the round-based ``rounds``,
        ``round_budget`` and ``corpus_growth`` (test counts are per-round
        facts there, validated against the journal's round records as
        each round is recomputed on resume).

        Returns (writer, completed task ids, journalled round records).
        On resume the journal is read in one scan and validated against
        the campaign parameters, its records are replayed into
        ``campaign`` and ``self.repro_packages``, and the writer appends
        behind the last whole record.
        """
        from repro.orchestrate.persistence import (
            CHECKPOINT_VERSION,
            CheckpointWriter,
            read_journal,
            restore_campaign,
            verify_checkpoint_header,
        )

        header = {
            "version": CHECKPOINT_VERSION,
            "strategy": strategy,
            "seed": self.config.seed,
            **shape,
            "trials": trials or self.config.trials_per_pmc,
            "scheduler_kind": scheduler_kind,
            "fixed_kernel": self.config.fixed_kernel,
        }
        if ntests is not None:
            header["ntests"] = ntests
        self._stamp_store_header(header)
        if not (resume and os.path.exists(checkpoint_path)):
            writer = CheckpointWriter.create(
                checkpoint_path, header, campaign, self.repro_packages, fsync=fsync
            )
            return writer, frozenset(), {}
        journal = read_journal(checkpoint_path)
        verify_checkpoint_header(journal.header, header)
        completed = restore_campaign(campaign, self.repro_packages, journal.tasks)
        if os.path.getsize(checkpoint_path) > journal.valid_bytes:
            # A kill mid-append left a torn tail.  The next record must
            # not land on that partial line, or every later load would
            # stop there and drop it and all that follow.
            os.truncate(checkpoint_path, journal.valid_bytes)
        writer = CheckpointWriter.append_to(
            checkpoint_path, campaign, self.repro_packages, fsync=fsync
        )
        return writer, frozenset(completed), journal.rounds

    def run_campaign(
        self,
        strategy: str = "S-INS-PAIR",
        test_budget: int = 50,
        scheduler_kind: str = "snowboard",
        trials: Optional[int] = None,
        workers: int = 1,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
        fleet: Optional[str] = None,
        checkpoint_fsync: bool = False,
    ) -> CampaignResult:
        """One full Table 3 campaign: generate, prioritise, execute.

        ``workers > 1`` runs Stage 4 on that many private-kernel workers —
        spawned worker processes (``fleet="processes"``, the default) or
        workers behind a TCP listener (``fleet="sockets"``); results (bug
        sets, trial counts, first-find positions) are identical to the
        serial run for the same seed in every case.

        ``checkpoint_path`` journals every merged Stage-4 task to a JSONL
        file as it completes; with ``resume=True`` an existing journal is
        replayed first (counters, observations, reproduction packages) and
        only the missing task ids are executed.  Because tasks are seeded
        ``seed + task_id``, a killed-and-resumed campaign produces a
        ``summary()`` bit-identical to an uninterrupted run.  The fleet
        kind is deliberately not a guarded header field: a campaign may
        be checkpointed under one fleet and resumed under another.
        ``checkpoint_fsync`` upgrades journal durability from process-kill
        to machine-crash (fsync per record).
        """
        tests, nclusters = self.generate_tests(strategy, limit=test_budget)
        tests = tests[:test_budget]
        campaign = CampaignResult(
            strategy=strategy, exemplar_pmcs=nclusters, workers=max(1, workers)
        )
        writer = None
        completed: frozenset = frozenset()
        if checkpoint_path is not None:
            writer, completed, _ = self._open_checkpoint(
                checkpoint_path,
                resume,
                campaign,
                strategy,
                {"test_budget": test_budget},
                scheduler_kind,
                trials,
                fsync=checkpoint_fsync,
                ntests=len(tests),
            )
        start = time.perf_counter()
        try:
            self._execute_tests(
                tests,
                campaign,
                scheduler_kind=scheduler_kind,
                trials=trials,
                workers=workers,
                completed=completed,
                writer=writer,
                fleet=fleet,
            )
        finally:
            if writer is not None:
                writer.close()
        campaign.wall_seconds = time.perf_counter() - start
        self._finish_campaign_obs(campaign)
        return campaign

    def _execute_tests(
        self,
        tests: Sequence[ConcurrentTest],
        campaign: CampaignResult,
        scheduler_kind: str,
        trials: Optional[int],
        workers: int,
        completed: frozenset,
        writer,
        task_offset: int = 0,
        fleet: Optional[str] = None,
    ) -> None:
        """Run one batch of tests inline or on a fleet, merging in task
        order.

        The single dispatch point of :meth:`run_campaign` (one batch),
        :meth:`run_rounds` (one call per round, with the round's global
        ``task_offset``) and :meth:`run_iterative_campaign`.  Ids already
        ``completed`` by a resumed checkpoint are skipped, and each merged
        task is journalled through ``writer``.  ``workers > 1`` runs the
        tasks on a ``fleet`` of that many workers (``"processes"`` unless
        ``"sockets"`` is asked for); the choice never changes results.
        """
        if fleet is not None and fleet not in FLEET_KINDS:
            raise ValueError(f"unknown fleet kind {fleet!r}")
        todo = [
            (task_offset + local, test)
            for local, test in enumerate(tests)
            if task_offset + local not in completed
        ]
        results = None
        if workers > 1:
            results = self._run_transport_fleet(
                todo, campaign, scheduler_kind, trials, workers, fleet
            )
        for index, test in todo:
            if results is None:
                self.execute_test(
                    test,
                    campaign,
                    scheduler_kind=scheduler_kind,
                    trials=trials,
                    task_id=index,
                )
                merged = True
            else:
                result = results.get(index)
                self._merge_task_outcomes(test, result, campaign, index)
                merged = isinstance(result, tuple)
            if writer is not None:
                writer.task_done(index, merged=merged)

    def _finish_campaign_obs(self, campaign: CampaignResult) -> None:
        """End-of-campaign observability tail: fleet health counters,
        level-style quantities as gauges, and a final metrics snapshot.

        The fleet counters are emitted in serial campaigns too (as zeros),
        so serial and parallel runs of the same seed report identical
        funnel totals."""
        obs = self.obs
        if not obs.enabled:
            return
        obs.count("fleet.task_failures", campaign.task_failures)
        obs.count("fleet.task_retries", campaign.task_retries)
        obs.count("fleet.worker_respawns", campaign.worker_respawns)
        # Per-worker fleet health (the ``repro stats`` worker table).
        # Aggregated by worker id — multi-round campaigns run one fleet
        # per round and the same id re-appears each round.  Serial runs
        # have no worker stats and emit nothing, keeping their stats
        # files byte-identical to the pre-table format; parallel funnel
        # equality is untouched because funnel totals only read the
        # FUNNEL_LAYOUT names.
        per_worker: Dict[int, Dict[str, int]] = {}
        for stats in campaign.worker_stats:
            agg = per_worker.setdefault(
                stats.worker_id,
                {"tasks": 0, "retries": 0, "respawns": 0, "missed_heartbeats": 0},
            )
            agg["tasks"] += stats.tasks_done
            agg["retries"] += stats.retries
            agg["respawns"] += stats.respawns
            agg["missed_heartbeats"] += stats.heartbeats_missed
        for worker_id in sorted(per_worker):
            for name, value in per_worker[worker_id].items():
                obs.count(f"fleet.w{worker_id}.{name}", value)
        obs.gauge("stage4.bugs", campaign.distinct_bugs)
        obs.gauge("campaign.workers", campaign.workers)
        obs.gauge("campaign.wall_seconds", round(campaign.wall_seconds, 6))
        obs.flush_metrics()

    # -- round-based incremental campaigns -----------------------------------------

    def run_rounds(
        self,
        rounds: int,
        round_budget: int,
        strategy: str = "S-INS-PAIR",
        scheduler_kind: str = "snowboard",
        trials: Optional[int] = None,
        workers: int = 1,
        corpus_growth: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
        fleet: Optional[str] = None,
        checkpoint_fsync: bool = False,
    ) -> CampaignResult:
        """A round-based incremental campaign (§4.3, §6 continuous mode).

        Each round: grow the corpus by ``corpus_growth`` fuzzer executions
        (round one uses :meth:`prepare`'s full ``corpus_budget`` pass),
        profile only the unprofiled tail, delta-classify the new accesses
        against the accumulated index, select up to ``round_budget``
        exemplars from clusters not tested in earlier rounds, and run
        them through the shared Stage-4 machinery (serial or fleet).

        A one-round campaign whose ``round_budget`` matches the batch
        ``test_budget`` is bit-identical to :meth:`run_campaign` —
        summary, trace and replays — which the golden equivalence tests
        pin.  ``checkpoint_path`` journals round boundaries alongside the
        per-task records; a killed-and-resumed campaign recomputes rounds
        from the seed, validates each against its journalled record, and
        re-executes only the missing global task ids, landing at the
        correct round with a summary bit-identical to an uninterrupted
        run.

        Repeated calls on one instance continue the same campaign: the
        corpus, access index and tested-cluster history carry over, and
        round numbering resumes where the previous call stopped.
        """
        if rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {rounds}")
        if round_budget < 1:
            raise ValueError(f"round_budget must be at least 1, got {round_budget}")
        self.prepare()
        growth = (
            corpus_growth
            if corpus_growth is not None
            else max(1, self.config.corpus_budget // 2)
        )
        campaign = CampaignResult(strategy=strategy, workers=max(1, workers))
        writer = None
        completed: frozenset = frozenset()
        round_records: Dict[int, Dict] = {}
        if checkpoint_path is not None:
            writer, completed, round_records = self._open_checkpoint(
                checkpoint_path,
                resume,
                campaign,
                strategy,
                {"rounds": rounds, "round_budget": round_budget, "corpus_growth": growth},
                scheduler_kind,
                trials,
                fsync=checkpoint_fsync,
            )
        start = time.perf_counter()
        try:
            for _ in range(rounds):
                self._run_round(
                    campaign,
                    strategy=strategy,
                    round_budget=round_budget,
                    growth=growth,
                    scheduler_kind=scheduler_kind,
                    trials=trials,
                    workers=workers,
                    completed=completed,
                    writer=writer,
                    round_records=round_records,
                    fleet=fleet,
                )
        finally:
            if writer is not None:
                writer.close()
        campaign.wall_seconds = time.perf_counter() - start
        self._finish_campaign_obs(campaign)
        return campaign

    def _run_round(
        self,
        campaign: CampaignResult,
        strategy: str,
        round_budget: int,
        growth: int,
        scheduler_kind: str,
        trials: Optional[int],
        workers: int,
        completed: frozenset,
        writer,
        round_records: Dict[int, Dict],
        fleet: Optional[str] = None,
    ) -> RoundInfo:
        """Advance the campaign by one round."""
        from repro.orchestrate.persistence import verify_round_record

        state = self.state
        obs = self.obs
        number = state.round + 1
        trials_before = campaign.trials
        bugs_before = campaign.distinct_bugs
        with obs.span(f"round.{number}", strategy=strategy) as span:
            if number == 1:
                # Round one's Stage-1/2 work is prepare()'s full-budget
                # pass; everything in the campaign is new.
                new_tests = len(self.corpus)
                new_profiles = len(self.profiles)
                new_pmcs = len(self.pmcset)
                new_pairs = self.pmcset.total_pairs()
            else:
                new_tests = self._grow_corpus(growth)
                new_profiles, new_pmcs, new_pairs = self._ingest_new_tests()
            rng = selection_rng(self.config.seed, number)
            tests, nclusters = self.generate_tests(
                strategy, limit=round_budget, rng=rng, history=state.history
            )
            tests = tests[:round_budget]
            campaign.exemplar_pmcs = nclusters
            # Round boundary: make the spilled access records durable and
            # stamp the manifest digest into the round record, so a
            # resumed campaign proves it re-derived the same store state
            # ("" in memory mode keeps old journals byte-identical).  On
            # resume this returns the *historical* digest recorded for
            # this round, not one recomputed over later rounds' data.
            store_digest = state.index.checkpoint()
            info = RoundInfo(
                round=number,
                first_test_index=state.next_test_index,
                ntests=len(tests),
                corpus_size=len(self.corpus),
                new_corpus_tests=new_tests,
                new_profiles=new_profiles,
                pmcs_total=len(self.pmcset),
                new_pmcs=new_pmcs,
                new_pairs=new_pairs,
                exemplars=tuple(t.pmc for t in tests),
                store_digest=store_digest,
            )
            if writer is not None:
                stored = round_records.get(number)
                if stored is not None:
                    # Resumed: the round was journalled before the kill —
                    # the recomputation must land on the same facts.
                    verify_round_record(stored, info)
                else:
                    writer.round_begin(info)
            self._execute_tests(
                tests,
                campaign,
                scheduler_kind=scheduler_kind,
                trials=trials,
                workers=workers,
                completed=completed,
                writer=writer,
                task_offset=state.next_test_index,
                fleet=fleet,
            )
            state.next_test_index += len(tests)
            state.round = number
            state.rounds_log.append(info)
            if obs.enabled:
                span.set(
                    tests=len(tests),
                    corpus=len(self.corpus),
                    pmcs=len(self.pmcset),
                    new_pmcs=new_pmcs,
                )
        if obs.enabled:
            prefix = f"round.{number}"
            obs.count(f"{prefix}.tests", len(tests))
            obs.count(f"{prefix}.trials", campaign.trials - trials_before)
            obs.count(f"{prefix}.corpus_tests", new_tests)
            obs.count(f"{prefix}.profiles", new_profiles)
            obs.count(f"{prefix}.new_pmcs", new_pmcs)
            obs.count(f"{prefix}.bugs", campaign.distinct_bugs - bugs_before)
            obs.flush_metrics()
        return info

    def run_iterative_campaign(
        self,
        strategies: Sequence[str],
        test_budget: int = 50,
        trials: Optional[int] = None,
        workers: int = 1,
    ) -> CampaignResult:
        """The iterative composition of section 4.3's final paragraph.

        "Choose predicate A, test one exemplar from each A-cluster, then
        choose predicate B, test one exemplar from each B-cluster
        excluding those tested before" — applied across the given
        strategy names under one shared test budget.
        """
        from repro.pmc.composition import iterative_exemplars

        self.prepare()
        rng = random.Random(self.config.seed ^ 0x17E8)
        clusterings = [STRATEGIES_BY_NAME[name] for name in strategies]
        chosen = iterative_exemplars(
            self.pmcset.all_pmcs(), clusterings, rng, limit_per_strategy=test_budget
        )
        exemplars = [pmc for _, pmc in chosen][:test_budget]
        name = " -> ".join(strategies)
        campaign = CampaignResult(
            strategy=name, exemplar_pmcs=len(chosen), workers=max(1, workers)
        )
        tests = self.tests_from_exemplars(exemplars, rng)
        start = time.perf_counter()
        self._execute_tests(
            tests,
            campaign,
            scheduler_kind="snowboard",
            trials=trials,
            workers=workers,
            completed=frozenset(),
            writer=None,
        )
        campaign.wall_seconds = time.perf_counter() - start
        self._finish_campaign_obs(campaign)
        return campaign
