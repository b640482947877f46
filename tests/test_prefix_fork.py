"""Sequential-prefix fork memoization: invisibility is the contract.

Every trial served by :class:`PrefixMemo` — forked from a mid-trial
delta snapshot or fully memoized — must be bit-identical to the same
trial run from the boot snapshot: the access trace, console, returns,
switch points, race reports AND the scheduler's post-trial state (RNG
draws, learned flags, adoption choices).  The tests below check that
contract at three levels:

* unit: :class:`ForkSnapshot` delta-capture guards (label collisions,
  untracked machines, foreign bases) and restore re-dirtying;
* trial: explicit scenarios plus hypothesis-generated programs, forked
  streams compared field-for-field against from-boot streams, including
  a switch at the very first instruction and a panic inside the prefix;
* campaign: memo-on and memo-off summaries are identical across the
  serial, process-fleet and socket-fleet paths, while the
  history-dependent savings counters are visible and quarantined from
  funnel equivalence.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.detect.datarace import RaceDetector
from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.prog import Call, Res, prog
from repro.kernel.kernel import boot_kernel
from repro.machine.snapshot import ForkSnapshot, ForkSnapshotError, Snapshot
from repro.obs import MemorySink, Observer
from repro.obs.stats import (
    FUNNEL_LAYOUT,
    HISTORY_DEPENDENT,
    aggregate_trace,
    funnel_totals,
)
from repro.orchestrate.fleet import (
    WIRE_VERSION,
    TaskEnvelope,
    outcome_from_obj,
    outcome_to_obj,
)
from repro.orchestrate.pipeline import (
    Snowboard,
    SnowboardConfig,
    Stage4Task,
    TrialOutcome,
)
from repro.pmc.identify import identify_pmcs
from repro.profile.profiler import profile_from_result
from repro.sched.executor import Executor
from repro.sched.prefixfork import PRUNE_MIN_TRIALS, PrefixMemo, Served
from repro.sched.random_sched import RandomScheduler
from repro.sched.ski import SkiScheduler
from repro.sched.snowboard import SnowboardScheduler

GOLDEN_CONFIG = dict(seed=7, corpus_budget=120, trials_per_pmc=8)
TEST_BUDGET = 8


# -- shared harness -----------------------------------------------------------


def result_fields(result):
    """Every observable field of an ExecutionResult, comparable."""
    return dict(
        accesses=list(result.accesses.iter_fields()),
        console=result.console,
        returns=result.returns,
        panicked=result.panicked,
        panic_message=result.panic_message,
        deadlocked=result.deadlocked,
        budget_exceeded=result.budget_exceeded,
        instructions=result.instructions,
        switches=result.switches,
        switch_points=result.switch_points,
        races=[repr(r) for r in result.races],
    )


def scheduler_state(scheduler):
    """The scheduler's cross-trial state (flags, adoption, RNG history)."""
    out = {}
    for attr in ("flags", "_pmc_sigs", "last_access", "_adopted", "current_pmcs"):
        if hasattr(scheduler, attr):
            out[attr] = repr(getattr(scheduler, attr))
    return out


def assert_memo_equivalent(executor, writer, reader, make_scheduler, trials, pmc=None):
    """Run ``trials`` from boot and via PrefixMemo; demand bit-identity."""
    base_sched = make_scheduler()
    memo_sched = make_scheduler()
    memo = PrefixMemo(executor, writer, reader, pmc=pmc)
    forked_flags = []
    for trial in range(trials):
        base_sched.begin_trial(trial)
        base = executor.run_concurrent(
            [writer, reader], scheduler=base_sched, race_detector=RaceDetector()
        )
        base_sched.end_trial(base)

        memo_sched.begin_trial(trial)
        detector = RaceDetector()
        result, forked = memo.run_trial(memo_sched, detector)
        memo_sched.end_trial(result)
        forked_flags.append(forked)

        assert result_fields(result) == result_fields(base), f"trial {trial}"
        assert scheduler_state(memo_sched) == scheduler_state(base_sched), (
            f"trial {trial} scheduler state diverged"
        )
    return forked_flags


@pytest.fixture(scope="module")
def env():
    """Executor plus the l2tp PMC pair (the SB12 publication bug)."""
    kernel, snapshot = boot_kernel()
    executor = Executor(kernel, snapshot)
    writer = prog(Call("socket", (2,)), Call("connect", (Res(0), 1)))
    reader = prog(
        Call("socket", (2,)), Call("connect", (Res(0), 1)), Call("sendmsg", (Res(0), 5))
    )
    pw = profile_from_result(0, writer, executor.run_sequential(writer))
    pr = profile_from_result(1, reader, executor.run_sequential(reader))
    pmcset = identify_pmcs([pw, pr])
    pmc = next(
        p
        for p in pmcset
        if (0, 1) in pmcset.pairs(p) and "l2tp_tunnel_register" in p.write.ins
    )
    return executor, writer, reader, pmc, list(pmcset)


# -- ForkSnapshot delta-capture guards (the mid-trial snapshot primitive) -----


class TestForkSnapshot:
    def setup_method(self):
        self.kernel, self.base = boot_kernel()
        self.executor = Executor(self.kernel, self.base)
        self.machine = self.kernel.machine

    def _shared_addr(self):
        """A mapped, non-stack address plus its boot-time value."""
        result = self.executor.run_sequential(prog(Call("msgget", (1,))))
        access = next(a for a in result.accesses if a.is_write and not a.is_stack)
        self.base.restore(self.machine)
        return access.addr, access.size, self.machine.memory.read_int(
            access.addr, access.size
        )

    def test_label_collision_with_base_is_rejected(self):
        self.base.restore(self.machine)
        with pytest.raises(ForkSnapshotError, match="collides"):
            ForkSnapshot.capture(self.machine, self.base, label=self.base.label)

    def test_untracked_machine_is_rejected(self):
        self.base.restore(self.machine)
        self.machine.invalidate_restore_tracking()
        with pytest.raises(ForkSnapshotError, match="not\\s+incrementally tracked"):
            ForkSnapshot.capture(self.machine, self.base, label="fork@0")

    def test_foreign_base_is_rejected(self):
        self.base.restore(self.machine)
        other = Snapshot.capture(self.machine, label="other")
        # The machine is tracked against ``base``; capturing a delta
        # against ``other`` would record the wrong page set.
        with pytest.raises(ForkSnapshotError):
            ForkSnapshot.capture(self.machine, other, label="fork@0")

    def test_restore_reproduces_fork_point_and_redirties(self):
        addr, size, boot_value = self._shared_addr()
        sentinel = boot_value ^ 1
        memory = self.machine.memory
        memory.write_int(addr, size, sentinel)
        fork = ForkSnapshot.capture(self.machine, self.base, label="fork@test")
        assert fork.overrides, "dirty write must appear in the delta"

        self.base.restore(self.machine)
        assert memory.read_int(addr, size) == boot_value
        pages = fork.restore(self.machine)
        assert memory.read_int(addr, size) == sentinel
        assert pages >= len(fork.overrides)
        # The override write must count as dirty again: the *next* base
        # restore has to undo it, or later trials run from a poisoned
        # snapshot.
        self.base.restore(self.machine)
        assert memory.read_int(addr, size) == boot_value

    def test_capture_is_delta_sized(self):
        addr, size, boot_value = self._shared_addr()
        self.machine.memory.write_int(addr, size, boot_value ^ 1)
        fork = ForkSnapshot.capture(self.machine, self.base, label="fork@delta")
        assert len(fork.overrides) < len(self.base.pages)


# -- trial-level bit-identity -------------------------------------------------


class TestTrialBitIdentity:
    def test_snowboard_scheduler(self, env):
        executor, writer, reader, pmc, _ = env
        flags = assert_memo_equivalent(
            executor, writer, reader,
            lambda: SnowboardScheduler(pmc, seed=3), trials=24, pmc=pmc,
        )
        assert any(flags), "repeated switch positions must be served as forks"

    def test_snowboard_adoption_path(self, env):
        """end_trial adoption draws depend on total RNG consumption."""
        executor, writer, reader, pmc, universe = env
        assert_memo_equivalent(
            executor, writer, reader,
            lambda: SnowboardScheduler(pmc, seed=11, universe=universe[:40], max_adopted=3),
            trials=16, pmc=pmc,
        )

    def test_random_scheduler(self, env):
        executor, *_ = env
        writer, reader = prog(Call("mkdir", (2,))), prog(Call("lookup", (2,)))
        assert_memo_equivalent(
            executor, writer, reader,
            lambda: RandomScheduler(seed=7, switch_probability=0.5), trials=16,
        )

    def test_switch_at_first_instruction(self, env):
        executor, *_ = env
        writer, reader = prog(Call("mkdir", (2,))), prog(Call("lookup", (2,)))
        flags = assert_memo_equivalent(
            executor, writer, reader,
            lambda: RandomScheduler(seed=1, switch_probability=1.0), trials=6,
        )
        assert flags[1:] == [True] * 5, "identical first-switch position must hit"

    def test_never_switching_trials_are_fully_memoized(self, env):
        executor, *_ = env
        writer, reader = prog(Call("mkdir", (2,))), prog(Call("lookup", (2,)))
        memo = PrefixMemo(executor, writer, reader)
        scheduler = RandomScheduler(seed=1, switch_probability=0.0)
        for trial in range(3):
            scheduler.begin_trial(trial)
            result, forked = memo.run_trial(scheduler, RaceDetector())
            scheduler.end_trial(result)
            assert forked, "no-switch trials never touch the machine"
            assert result.switches == 0
            assert result.pages_restored == 0
        # ... and the memoized stream still matches from-boot execution.
        assert_memo_equivalent(
            executor, writer, reader,
            lambda: RandomScheduler(seed=1, switch_probability=0.0), trials=3,
        )

    def test_panic_inside_prefix(self, env):
        """A writer that panics solo truncates the prefix; still identical."""
        executor, *_ = env
        writer, reader = prog(Call("lookup", (9,))), prog(Call("lookup", (2,)))
        assert_memo_equivalent(
            executor, writer, reader,
            lambda: RandomScheduler(seed=3, switch_probability=0.4), trials=8,
        )

    def test_disabled_memo_falls_back_to_plain_execution(self, env):
        executor, writer, reader, pmc, _ = env
        memo = PrefixMemo(executor, writer, reader, pmc=pmc, enabled=False)
        assert not memo.active
        scheduler = SnowboardScheduler(pmc, seed=3)
        scheduler.begin_trial(0)
        result, forked = memo.run_trial(scheduler, RaceDetector())
        assert not forked
        assert result.instructions > 0


class TestPrefixForkProperties:
    """Hypothesis: memo invisibility holds for arbitrary generated programs."""

    @given(
        seed=st.integers(min_value=0, max_value=2000),
        probability=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @settings(max_examples=12, deadline=None)
    def test_generated_programs_memo_equivalence(self, env, seed, probability):
        executor, *_ = env
        writer = ProgramGenerator(seed=seed).generate()
        reader = ProgramGenerator(seed=seed + 1).generate()
        assert_memo_equivalent(
            executor, writer, reader,
            lambda: RandomScheduler(seed=seed, switch_probability=probability),
            trials=4,
        )

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=8, deadline=None)
    def test_generated_self_pairs_with_adversarial_switching(self, env, seed):
        executor, *_ = env
        program = ProgramGenerator(seed=seed).generate()
        assert_memo_equivalent(
            executor, program, program,
            lambda: RandomScheduler(seed=seed, switch_probability=1.0),
            trials=3,
        )


# -- pruning plan -------------------------------------------------------------


class TestPlanTrials:
    def test_prune_off_runs_everything(self, env):
        executor, writer, reader, pmc, _ = env
        memo = PrefixMemo(executor, writer, reader, pmc=pmc, prune=False)
        assert memo.plan_trials(40) == (40, 0)

    def test_small_budgets_are_never_pruned(self, env):
        executor, writer, reader, pmc, _ = env
        memo = PrefixMemo(executor, writer, reader, pmc=pmc, prune=True)
        assert memo.plan_trials(PRUNE_MIN_TRIALS) == (PRUNE_MIN_TRIALS, 0)

    def test_no_pmc_means_no_pruning(self, env):
        executor, writer, reader, _, _ = env
        memo = PrefixMemo(executor, writer, reader, pmc=None, prune=True)
        assert memo.plan_trials(40) == (40, 0)

    def test_plan_is_deterministic_and_conserves_budget(self, env):
        executor, writer, reader, pmc, _ = env
        memo = PrefixMemo(executor, writer, reader, pmc=pmc, prune=True)
        effective, pruned = memo.plan_trials(40)
        assert (effective, pruned) == memo.plan_trials(40)
        assert effective + pruned == 40
        assert PRUNE_MIN_TRIALS <= effective <= 40

    def test_pruned_stream_is_prefix_of_unpruned(self, env):
        """Trials below the bound run with unchanged seeds."""
        executor, writer, reader, pmc, _ = env
        test_obj = None
        from repro.orchestrate.pipeline import ConcurrentTest, run_task_trials

        test_obj = ConcurrentTest(
            writer=writer, reader=reader, writer_test=0, reader_test=1, pmc=pmc
        )
        full, _, _ = run_task_trials(
            executor,
            Stage4Task(task_id=0, test=test_obj, trials=24, prune_commuting=False),
            SnowboardScheduler(pmc, seed=5),
        )
        pruned, _, _ = run_task_trials(
            executor,
            Stage4Task(task_id=0, test=test_obj, trials=24, prune_commuting=True),
            SnowboardScheduler(pmc, seed=5),
        )
        assert 0 < len(pruned) <= len(full)
        for mine, theirs in zip(pruned, full):
            assert mine.observations == theirs.observations
            assert mine.instructions == theirs.instructions


# -- campaign-level invisibility and savings counters -------------------------


def run_summary(workers=1, fleet=None, **overrides):
    config = SnowboardConfig(**GOLDEN_CONFIG, **overrides)
    campaign = Snowboard(config).run_campaign(
        "S-INS-PAIR", test_budget=TEST_BUDGET, workers=workers, fleet=fleet
    )
    return campaign.summary()


class TestCampaignEquivalence:
    @pytest.fixture(scope="class")
    def memo_off(self):
        return run_summary(prefix_fork=False)

    def test_serial_memo_on_equals_memo_off(self, memo_off):
        assert run_summary() == memo_off

    def test_socket_fleet_memo_on_equals_memo_off(self, memo_off):
        assert run_summary(workers=2, fleet="sockets") == memo_off

    def test_process_fleet_memo_on_equals_memo_off(self, memo_off):
        assert run_summary(workers=2, fleet="processes") == memo_off


class TestSavingsCounters:
    def run_traced(self, **overrides):
        config = SnowboardConfig(
            seed=7, corpus_budget=120, trials_per_pmc=24, **overrides
        )
        obs = Observer(MemorySink())
        campaign = Snowboard(config, observer=obs).run_campaign(
            "S-INS-PAIR", test_budget=10
        )
        return campaign, obs

    def test_fork_hits_are_counted(self):
        _, obs = self.run_traced()
        assert obs.metrics.counter_value("stage4.prefix_fork_hits") > 0

    def test_pruned_trials_are_credited_and_yield_preserved(self):
        base, _ = self.run_traced(prune_commuting=False)
        pruned, obs = self.run_traced(prune_commuting=True)
        credited = obs.metrics.counter_value("stage4.trials_pruned")
        assert credited > 0
        assert pruned.trials + credited <= base.trials + credited
        assert pruned.trials < base.trials
        assert pruned.summary()["bugs"] == base.summary()["bugs"]
        assert pruned.summary()["observations"] == base.summary()["observations"]

    def test_counters_are_history_dependent_funnel_rows(self):
        keys = {key for _, _, key in FUNNEL_LAYOUT}
        assert "stage4.prefix_fork_hits" in keys
        assert "stage4.trials_pruned" in keys
        assert "stage4.prefix_fork_hits" in HISTORY_DEPENDENT
        assert "stage4.trials_pruned" in HISTORY_DEPENDENT


# -- wire format --------------------------------------------------------------


class TestWireV2:
    def test_wire_version_bumped(self):
        # v2 added the memo knobs below; v3 added heartbeat/hello
        # envelopes and generation-stamped results for the transport
        # layer; v4 added the result's pruned count.  The roundtrip
        # tests in this class pin the v2 fields.
        # v5 added the outcome's schedule_hit and new_schedule flags.
        assert WIRE_VERSION == 5

    def test_outcome_roundtrips_forked_flag(self):
        outcome = TrialOutcome(
            trial=3,
            instructions=17,
            pages_restored=2,
            restore_seconds=0.0,
            switch_points=(4, 9),
            forked=True,
        )
        decoded = outcome_from_obj(outcome_to_obj(outcome))
        assert decoded.forked is True
        assert decoded == outcome
        plain = TrialOutcome(
            trial=0, instructions=1, pages_restored=0, restore_seconds=0.0
        )
        assert outcome_from_obj(outcome_to_obj(plain)).forked is False

    def test_task_envelope_roundtrips_memo_knobs(self, env):
        _, writer, reader, pmc, _ = env
        from repro.orchestrate.pipeline import ConcurrentTest

        test_obj = ConcurrentTest(
            writer=writer, reader=reader, writer_test=0, reader_test=1, pmc=pmc
        )
        task = Stage4Task(
            task_id=5,
            test=test_obj,
            trials=8,
            prefix_fork=False,
            prune_commuting=True,
        )
        decoded = TaskEnvelope.from_task(task).to_task()
        assert decoded.prefix_fork is False
        assert decoded.prune_commuting is True


# -- the schedule trie: repeats served from recordings ----------------------


class Scripted:
    """Switches at the listed scheduler calls (1-based) of each trial;
    trial ``t`` follows ``plans[t % len(plans)]``.  ``log`` keeps every
    access it was shown, so two runs can be compared call for call."""

    def __init__(self, plans):
        self.plans = plans
        self.log = []

    def begin_trial(self, trial):
        self.calls = 0
        self.plan = self.plans[trial % len(self.plans)]

    def on_access(self, access):
        self.calls += 1
        self.log.append((access.seq, access.thread, access.ins))
        return self.calls in self.plan

    def end_trial(self, result):
        pass


def assert_trie_invisible(executor, writer, reader, make_scheduler, trials, pmc=None):
    """Like :func:`assert_memo_equivalent`, and also demand the same RNG
    state and the same accesses shown to the scheduler after every
    trial.  Returns the served flags and the memo."""
    base_sched = make_scheduler()
    memo_sched = make_scheduler()
    memo = PrefixMemo(executor, writer, reader, pmc=pmc)
    served = []
    for trial in range(trials):
        base_sched.begin_trial(trial)
        base = executor.run_concurrent(
            [writer, reader], scheduler=base_sched, race_detector=RaceDetector()
        )
        base_sched.end_trial(base)

        memo_sched.begin_trial(trial)
        result, flag = memo.run_trial(memo_sched, RaceDetector())
        memo_sched.end_trial(result)
        served.append(flag)

        assert result_fields(result) == result_fields(base), f"trial {trial}"
        assert scheduler_state(memo_sched) == scheduler_state(base_sched), trial
        if hasattr(base_sched, "rng"):
            assert memo_sched.rng.getstate() == base_sched.rng.getstate(), trial
        if hasattr(base_sched, "log"):
            assert memo_sched.log == base_sched.log, trial
        if flag == Served.LEAF:
            assert result.pages_restored == 0
    return served, memo


@pytest.fixture(scope="module")
def toy():
    """A kernel with syscalls built to end trials every way a leaf can."""
    from repro.kernel import sync

    kernel, _ = boot_kernel()
    flag = kernel.static_alloc("memo_flag", 4)
    lock_a = kernel.static_alloc("memo_lock_a", 4)
    lock_b = kernel.static_alloc("memo_lock_b", 4)

    def sys_set_flag(ctx):
        yield from ctx.load(flag, 4)
        yield from ctx.store(flag, 4, 1)
        return 0

    def sys_bug_if_flag(ctx):
        seen = yield from ctx.load(flag, 4)
        yield from ctx.bug_on(seen == 1, "BUG: memo flag seen")
        return 0

    def sys_wait_flag(ctx):
        # Spins without PAUSE: only a liveness mark can preempt it.
        while (yield from ctx.load(flag, 4)) == 0:
            pass
        return 0

    def locking(first, second):
        def handler(ctx):
            yield from sync.spin_lock(ctx, first)
            yield from sync.spin_lock(ctx, second)
            yield from sync.spin_unlock(ctx, second)
            yield from sync.spin_unlock(ctx, first)
            return 0

        return handler

    kernel.register_syscall("memo_set_flag", sys_set_flag)
    kernel.register_syscall("memo_bug_if_flag", sys_bug_if_flag)
    kernel.register_syscall("memo_wait_flag", sys_wait_flag)
    kernel.register_syscall("memo_ab", locking(lock_a, lock_b))
    kernel.register_syscall("memo_ba", locking(lock_b, lock_a))
    return kernel, Snapshot.capture(kernel.machine)


def toy_prog(name):
    return prog(Call(name, ()))


def pair_pmc(executor, writer, reader):
    """A PMC identified from the pair's own profiles (writer to reader
    first), or None."""
    pw = profile_from_result(0, writer, executor.run_sequential(writer))
    pr = profile_from_result(1, reader, executor.run_sequential(reader))
    pmcset = identify_pmcs([pw, pr])
    pmcs = list(pmcset)
    directed = [p for p in pmcs if (0, 1) in pmcset.pairs(p)]
    return (directed or pmcs or [None])[0]


class TestScheduleTrie:
    def test_branch_below_the_first_switch(self, env):
        """Trial 1 leaves trial 0's path after three shared switches,
        trial 2 leaves trial 1's grafted branch; repeats are leaves."""
        executor, writer, reader, *_ = env
        plans = [{5, 40, 80}, {5, 40, 100}, {5, 40, 100, 110}]
        served, memo = assert_trie_invisible(
            executor, writer, reader, lambda: Scripted(plans), trials=6
        )
        assert served == [Served.LIVE, Served.FORK, Served.FORK] + [Served.LEAF] * 3
        (first,) = memo._root.branches.values()
        (grafted,) = first.branches.values()
        assert grafted.branches, "trial 2 must branch off trial 1's graft"
        a, b = first.leaf.switch_points, grafted.leaf.switch_points
        shared = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        assert shared >= 2, (a, b)

    def test_answers_that_cannot_take_effect_stay_on_the_path(self, env):
        """Call 170 comes after the writer finished: switching there is
        impossible, so the second plan repeats the first's schedule."""
        executor, writer, reader, *_ = env
        plans = [{5, 40, 100}, {5, 40, 100, 170}]
        served, _ = assert_trie_invisible(
            executor, writer, reader, lambda: Scripted(plans), trials=2
        )
        assert served == [Served.LIVE, Served.LEAF]

    @pytest.mark.parametrize(
        "writer, reader, plan",
        [
            # The reader spins on the taken lock: PAUSE forces switches.
            ("memo_ab", "memo_ab", {2}),
            # The reader spins on a plain load: a liveness mark forces it.
            ("memo_set_flag", "memo_wait_flag", {1}),
            # The writer spins solo: a liveness mark forces the first
            # switch, inside the root's recording.
            ("memo_wait_flag", "memo_set_flag", set()),
        ],
    )
    def test_forced_switches_on_a_recorded_path(self, toy, writer, reader, plan):
        kernel, snapshot = toy
        executor = Executor(kernel, snapshot, max_instructions=500)
        served, memo = assert_trie_invisible(
            executor, toy_prog(writer), toy_prog(reader), lambda: Scripted([plan]), trials=4
        )
        assert served == [Served.LIVE] + [Served.LEAF] * 3
        (leaf,) = memo._root.branches.values()
        assert leaf.leaf.switches > len(plan), "a forced switch must be on the path"

    @pytest.mark.parametrize(
        "writer, reader, plan, budget, ending",
        [
            ("memo_ab", "memo_ba", {2}, 200_000, "deadlocked"),
            ("memo_set_flag", "memo_wait_flag", {1}, 9, "budget_exceeded"),
            ("memo_set_flag", "memo_bug_if_flag", {2}, 200_000, "panicked"),
        ],
    )
    def test_leaves_for_every_ending(self, toy, writer, reader, plan, budget, ending):
        kernel, snapshot = toy
        executor = Executor(kernel, snapshot, max_instructions=budget)
        served, memo = assert_trie_invisible(
            executor, toy_prog(writer), toy_prog(reader), lambda: Scripted([plan]), trials=4
        )
        assert served == [Served.LIVE] + [Served.LEAF] * 3
        (node,) = memo._root.branches.values()
        assert getattr(node.leaf, ending)
        assert not node.leaf.completed

    def test_flags_learned_on_a_walk_steer_later_trials(self, env):
        """Trial 0 never switches, so it is served from the root's leaf:
        only the walk shows it the PMC accesses, and the flags it learns
        there (and the PMCs it adopts) move later trials' coin flips off
        every recorded path."""
        executor, writer, reader, pmc, universe = env

        def make():
            return SnowboardScheduler(pmc, seed=0, universe=universe[:40], max_adopted=3)

        served, _ = assert_trie_invisible(
            executor, writer, reader, make, trials=24, pmc=pmc
        )
        scheduler = make()
        memo = PrefixMemo(executor, writer, reader, pmc=pmc)
        scheduler.begin_trial(0)
        result, flag = memo.run_trial(scheduler, RaceDetector())
        assert flag == Served.LEAF and result.switches == 0
        assert scheduler.flags, "the walk must learn flags"
        scheduler.end_trial(result)
        assert scheduler.stats()["adopted"] == 1
        assert served[0] == Served.LEAF
        assert Served.LIVE in served[1:] and Served.FORK in served[1:]


def generated_pair(seed):
    return ProgramGenerator(seed=seed).generate(), ProgramGenerator(seed=seed + 1).generate()


class TestScheduleTrieProperties:
    """Hypothesis: the trie is invisible over generated program pairs."""

    @given(seed=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=8, deadline=None)
    def test_snowboard_with_the_pairs_own_pmc(self, env, seed):
        executor, *_ = env
        writer, reader = generated_pair(seed)
        pmc = pair_pmc(executor, writer, reader)
        assume(pmc is not None)
        assert_trie_invisible(
            executor, writer, reader,
            lambda: SnowboardScheduler(pmc, seed=seed), trials=16, pmc=pmc,
        )

    @given(seed=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=8, deadline=None)
    def test_ski(self, env, seed):
        executor, *_ = env
        writer, reader = generated_pair(seed)
        pmc = pair_pmc(executor, writer, reader)
        assume(pmc is not None)
        assert_trie_invisible(
            executor, writer, reader, lambda: SkiScheduler(pmc, seed=seed), trials=16
        )

    @given(seed=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=8, deadline=None)
    def test_random_always_switching(self, env, seed):
        """p=1.0 repeats one deep schedule: every trial after the first
        is a leaf."""
        executor, *_ = env
        writer, reader = generated_pair(seed)
        served, _ = assert_trie_invisible(
            executor, writer, reader,
            lambda: RandomScheduler(seed=seed, switch_probability=1.0), trials=16,
        )
        assert all(flag == Served.LEAF for flag in served[1:])


def traced_totals(workers=1, fleet=None, **overrides):
    """(campaign, funnel counters incl. history-dependent ones, funnel
    totals) of a traced golden campaign."""
    config = SnowboardConfig(**GOLDEN_CONFIG, **overrides)
    sink = MemorySink()
    obs = Observer(sink)
    campaign = Snowboard(config, observer=obs).run_campaign(
        "S-INS-PAIR", test_budget=TEST_BUDGET, workers=workers, fleet=fleet
    )
    stats = aggregate_trace({}, sink.events)
    return campaign, stats.counters, funnel_totals(stats)


class TestScheduleCounters:
    @pytest.fixture(scope="class")
    def memo_off(self):
        return traced_totals(prefix_fork=False)

    def test_every_repeat_is_served(self):
        campaign, counters, _ = traced_totals()
        trials = counters["stage4.trials"]
        assert trials == campaign.trials
        assert counters["stage4.schedule_hits"] > 0
        assert counters["stage4.schedule_hits"] + counters["stage4.schedules"] >= trials
        assert counters["stage4.schedules"] < trials

    def test_memo_off_counts_the_same_schedules(self, memo_off):
        _, counters, _ = memo_off
        assert counters["stage4.schedules"] > 0
        assert counters.get("stage4.schedule_hits", 0) == 0

    @pytest.mark.parametrize(
        "workers, fleet", [(1, None), (2, "processes"), (2, "sockets")]
    )
    def test_funnel_totals_match_memo_off(self, memo_off, workers, fleet):
        campaign, _, totals = traced_totals(workers=workers, fleet=fleet)
        assert "stage4.schedules" in totals
        assert "stage4.schedule_hits" not in totals
        assert totals == memo_off[2]
        assert campaign.summary() == memo_off[0].summary()

    def test_schedule_rows_in_the_funnel(self):
        keys = {key for _, _, key in FUNNEL_LAYOUT}
        assert {"stage4.schedules", "stage4.schedule_hits"} <= keys
        assert "stage4.schedule_hits" in HISTORY_DEPENDENT
        assert "stage4.schedules" not in HISTORY_DEPENDENT

    def test_outcome_roundtrips_schedule_flags(self):
        outcome = TrialOutcome(
            trial=1,
            instructions=9,
            pages_restored=0,
            restore_seconds=0.0,
            schedule_hit=True,
            new_schedule=True,
        )
        assert outcome_from_obj(outcome_to_obj(outcome)) == outcome


# -- a fork at every position of the recorded root ----------------------------


class Shown(Scripted):
    """:class:`Scripted` that logs each trial's shown accesses in full."""

    def begin_trial(self, trial):
        super().begin_trial(trial)
        self.log = []

    def on_access(self, access):
        self.calls += 1
        self.log.append(
            (
                access.seq,
                access.thread,
                access.type,
                access.addr,
                access.size,
                access.value,
                access.ins,
                access.is_stack,
            )
        )
        return self.calls in self.plan


# A generated pair can run thousands of scheduler calls; forking at the
# first 150 of each keeps the whole class to seconds.
FORK_CALL_CAP = 150


def assert_every_fork_invisible(executor, writer, reader):
    """One memo; for every scheduler call ``j`` of the pair's no-switch
    run, trials switching at ``{j}`` and at ``{j, j + 3}`` equal their
    from-boot runs.  Returns how many trials were checked."""
    probe = Shown([set()])
    probe.begin_trial(0)
    executor.run_concurrent(
        [writer, reader], scheduler=probe, race_detector=RaceDetector()
    )
    calls = min(probe.calls, FORK_CALL_CAP)
    plans = [plan for j in range(1, calls + 1) for plan in ({j}, {j, j + 3})]
    assert plans, "the pair must consult the scheduler"
    assert_trie_invisible(
        executor, writer, reader, lambda: Shown(plans), trials=len(plans)
    )
    return len(plans)


@pytest.fixture(scope="module")
def rcu_toy():
    """A kernel with an RCU read-side section against synchronize_rcu;
    both syscalls return the flag they read, so earlier call results
    show in the returns."""
    from repro.kernel import sync

    kernel, _ = boot_kernel()
    flag = kernel.static_alloc("memo_rcu_flag", 4)

    def sys_rcu_hold(ctx):
        yield from sync.rcu_read_lock(ctx)
        first = yield from ctx.load(flag, 4)
        second = yield from ctx.load(flag, 4)
        yield from sync.rcu_read_unlock(ctx)
        return 10 + first + second

    def sys_rcu_sync(ctx):
        seen = yield from ctx.load(flag, 4)
        yield from ctx.store(flag, 4, seen + 1)
        yield from sync.synchronize_rcu(ctx)
        after = yield from ctx.load(flag, 4)
        return 20 + after

    kernel.register_syscall("memo_rcu_hold", sys_rcu_hold)
    kernel.register_syscall("memo_rcu_sync", sys_rcu_sync)
    return kernel, Snapshot.capture(kernel.machine)


class TestForkAtEveryPosition:
    def test_l2tp_pair(self, env):
        executor, writer, reader, *_ = env
        assert_every_fork_invisible(executor, writer, reader)

    @pytest.mark.parametrize(
        "writer, reader",
        [
            ("memo_set_flag", "memo_bug_if_flag"),
            ("memo_ab", "memo_ba"),
            ("memo_set_flag", "memo_wait_flag"),
            ("memo_wait_flag", "memo_set_flag"),
        ],
    )
    def test_toy_pairs(self, toy, writer, reader):
        kernel, snapshot = toy
        executor = Executor(kernel, snapshot, max_instructions=500)
        assert_every_fork_invisible(executor, toy_prog(writer), toy_prog(reader))

    @pytest.mark.parametrize(
        "writer, reader",
        [("memo_rcu_hold", "memo_rcu_sync"), ("memo_rcu_sync", "memo_rcu_hold")],
    )
    def test_rcu_pair(self, rcu_toy, writer, reader):
        """A fork inside the writer's read-side section resumes its RCU
        depth, one past its synchronize_rcu resumes the answer it got,
        and one in its second call resumes the first call's result."""
        kernel, snapshot = rcu_toy
        executor = Executor(kernel, snapshot, max_instructions=500)
        writer_prog = prog(Call(writer, ()), Call(writer, ()))
        assert_every_fork_invisible(executor, writer_prog, toy_prog(reader))

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_pairs(self, env, seed):
        executor, *_ = env
        assert_every_fork_invisible(executor, *generated_pair(seed))
