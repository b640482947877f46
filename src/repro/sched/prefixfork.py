"""Schedule memoization and commuting-schedule pruning.

A trial is a pure function of the scheduler's answers where a switch
can take effect, and Algorithm 2 draws few of them, so most trials of a
Stage-4 task repeat a schedule the task already ran.  :class:`PrefixMemo`
keeps one trie of the task's schedules (DESIGN §2.15):

* the root is the writer's (and, when it completes, the reader's) solo
  run, recorded once per task; its leaf is the no-switch result;
* every deeper node is the schedule a live trial ran past a decision
  that no earlier trial took, and its leaf is that trial's result; the
  root's children also own the mid-trial
  :class:`~repro.machine.snapshot.ForkSnapshot` at their first switch.

A trial drives the *live* scheduler down the trie, making exactly the
``on_access`` calls the executor would make, in the same order, so RNG
draws, learned flags and adoption choices are unchanged.  Reaching a
leaf serves its result without touching the machine.  Leaving the
recorded path resumes the executor at the first-switch fork behind a
shim that hands back the answers the walk already drew, and the steps
the resumed run records are grafted on as a new branch.

Bit-identity with the from-boot path is the contract, so the root is
recorded by the executor itself: its replay of the pair with no switch
points runs the writer alone to its end, then the reader, and logs each
op's coroutine value, post-op liveness stuck flag, RCU depth, call
position, counters and trace rows.  Trials and the recording they stand
in for share one interpreter loop.

The second layer, commuting-schedule pruning (``--prune-commuting``),
is a partial-order reduction over the same recording: candidate switch
positions in the writer's solo trace between which no access conflicts
with the reader's shared footprint commute — switching at either yields
the reader an identical memory view — so one representative per
commuting class bounds how many trials are worth running.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.detect.datarace import RaceDetector
from repro.fuzz.prog import Program
from repro.kernel.ops import CasOp, MemOp, PauseOp, PrintkOp, SyncOp
from repro.machine.accesses import MemoryAccess
from repro.machine.snapshot import ForkSnapshot
from repro.sched.executor import (
    ExecutionResult,
    Executor,
    ResumeState,
    run_program,
)
from repro.sched.liveness import LivenessMonitor
from repro.sched.snowboard import access_sig, pmc_sigs

# Pruning keeps at least this many trials per task, and this many per
# commuting class (plus a constant).  The floor is deliberately generous:
# pruning must preserve bug yield (tests/test_prune_soundness.py pins the
# Table-2 set), and trials below the bound run with unchanged seeds, so
# yield can only be lost beyond it.
PRUNE_MIN_TRIALS = 6
PRUNE_TRIALS_PER_CLASS = 2
PRUNE_EXTRA = 2


class _Event:
    """One op of the recording run: the executor's log entry for it
    (:meth:`~repro.sched.executor.Executor.run_concurrent`), and the
    trace rows it added as record objects."""

    __slots__ = (
        "thread",
        "accesses",
        "atomic",
        "pending",
        "sync",
        "printk",
        "pause",
        "stuck",
        "rcu_after",
        "results",
        "call_index",
        "seq_after",
        "rows_after",
        "ninstr",
    )

    def __init__(self, entry: tuple, trace, rows_before: int):
        (
            self.thread,
            op,
            self.pending,
            self.stuck,
            self.rcu_after,
            self.results,
            self.call_index,
            self.seq_after,
            self.rows_after,
            self.ninstr,
        ) = entry
        cls = op.__class__
        self.accesses: Tuple[MemoryAccess, ...] = tuple(
            trace[rows_before : self.rows_after]
        )
        self.atomic = cls is CasOp or (cls is MemOp and op.atomic)
        self.sync = op if cls is SyncOp else None
        self.printk = op.message if cls is PrintkOp else None
        self.pause = cls is PauseOp


class PrefixRecording:
    """The trie's root: the executor's replay of the pair with no switch
    points, which runs the writer alone to its end, then the reader."""

    def __init__(self, executor: Executor, writer: Program, reader: Program):
        log: List[tuple] = []
        self.result = result = executor.run_concurrent(
            [writer, reader], replay_switch_points=(), replay_log=log
        )
        trace = result.accesses
        self.events: List[_Event] = []
        # Number of events belonging to the writer's solo portion.
        self.t0_events = 0
        # Per writer call with ops: the index of its first event.
        self.call_starts: Dict[int, int] = {}
        rows = 0
        for entry in log:
            ev = _Event(entry, trace, rows)
            rows = ev.rows_after
            if ev.thread == 0:
                self.call_starts.setdefault(ev.call_index, self.t0_events)
                self.t0_events += 1
            self.events.append(ev)
        # True when the writer ran to completion (so the reader portion
        # was recorded and the no-switch result is fully known).
        self.t0_completed = len(result.returns[0]) == len(writer.calls)


@dataclass
class _ForkState:
    """Cached state right after a first switch, shared by every trial
    that first switches there."""

    event: int
    snapshot: ForkSnapshot
    liveness: LivenessMonitor
    detector: RaceDetector


class Served(enum.IntEnum):
    """How :meth:`PrefixMemo.run_trial` served a trial; truthy when
    cached state served it."""

    LIVE = 0  # ran on the machine: from boot, or from a new fork
    LEAF = 1  # repeated a recorded schedule: its result, no machine work
    FORK = 2  # resumed from a cached first-switch fork, then ran live


# The decision of a root step every trial switches at (a pause, or a
# liveness mark): the solo run went on, but no answer equals it, so the
# walk always leaves the root there.
_FORCED = "forced"


class _Node:
    """A stretch of recorded schedule in a task's trie.

    ``steps`` are ``(accesses, decision)`` pairs as the executor records
    them (:class:`~repro.sched.executor.ResumeState`).  ``leaf`` is the
    result of the trial that ran to their end, and ``branches`` maps a
    step index to the node that took the other decision there.
    """

    __slots__ = ("steps", "leaf", "branches", "fork")

    def __init__(self, steps, leaf=None, fork=None):
        self.steps = steps
        self.leaf = leaf
        self.branches: Dict[int, "_Node"] = {}
        # The first-switch fork: children of the root only.
        self.fork: Optional[_ForkState] = fork


class _Replay:
    """Scheduler shim for a trial leaving the trie: the answers its walk
    already drew, in order, then the live scheduler's."""

    __slots__ = ("_drawn", "_live")

    def __init__(self, drawn: List, scheduler):
        self._drawn = iter(drawn)
        self._live = scheduler.on_access

    def on_access(self, access: MemoryAccess):
        for answer in self._drawn:
            return answer
        return self._live(access)


class PrefixMemo:
    """Per-task trial server: the schedule trie + optional pruning."""

    def __init__(
        self,
        executor: Executor,
        writer: Program,
        reader: Program,
        pmc=None,
        enabled: bool = True,
        prune: bool = False,
    ):
        self.executor = executor
        self.writer = writer
        self.reader = reader
        self.pmc = pmc
        # full_restore is the restore-cost benchmark knob: it deliberately
        # invalidates dirty tracking, which delta fork snapshots rely on.
        usable = not executor.full_restore
        self.fork_enabled = enabled and usable
        self.prune = prune and usable
        self._rec: Optional[PrefixRecording] = None
        self._root: Optional[_Node] = None

    @property
    def active(self) -> bool:
        """True when this memo will record anything at all."""
        return self.fork_enabled or self.prune

    # -- public API --------------------------------------------------------

    def prepare(self) -> None:
        """Record the sequential prefix now (idempotent)."""
        if self.active:
            self._ensure_recorded()

    def plan_trials(self, trials: int) -> Tuple[int, int]:
        """(effective trials, trials pruned) for a budget of ``trials``.

        Without ``--prune-commuting`` every trial runs.  With it, the
        commuting-class count bounds how many distinct first-switch
        behaviours exist; trials below the bound run with unchanged
        seeds, so the surviving trial stream is a strict prefix of the
        unpruned one.
        """
        if not self.prune or trials <= PRUNE_MIN_TRIALS:
            return trials, 0
        rec = self._ensure_recorded()
        if not rec.t0_completed or self.pmc is None:
            return trials, 0
        classes = self._commuting_classes(rec)
        effective = min(
            trials,
            max(
                PRUNE_MIN_TRIALS,
                PRUNE_TRIALS_PER_CLASS * classes + PRUNE_EXTRA,
            ),
        )
        return effective, trials - effective

    def run_trial(self, scheduler, detector: RaceDetector):
        """Run one trial; returns ``(result, served)``.

        ``served`` is a :class:`Served`, truthy when cached state served
        the trial: a recorded leaf (``stage4.schedule_hits``) or a cached
        first-switch fork (``stage4.prefix_fork_hits``).
        """
        if not self.fork_enabled:
            result = self.executor.run_concurrent(
                [self.writer, self.reader],
                scheduler=scheduler,
                race_detector=detector,
            )
            return result, Served.LIVE
        self._ensure_recorded()
        root = node = self._root
        top = None  # the root's child the walk went down
        offset = 0  # the live steps recorded before node.steps[0]
        on_access = scheduler.on_access
        drawn: List = []
        draw = drawn.append
        while True:
            for k, (accesses, decision) in enumerate(node.steps):
                switch = False
                for access in accesses:
                    answer = on_access(access)
                    draw(answer)
                    if answer:
                        switch = True
                if decision is not None and switch is not decision:
                    break
            else:
                return self._serve(node), Served.LEAF
            child = node.branches.get(k)
            if child is None:
                return self._branch(scheduler, detector, node, k, top, offset, drawn)
            if node is root:
                # The fork stands in for the solo prefix: no live run
                # asks for the root's answers again.
                drawn.clear()
                top = child
            else:
                offset += k + 1
            node = child

    # -- trial service internals -------------------------------------------

    def _serve(self, node: _Node) -> ExecutionResult:
        """A fresh copy of ``node``'s leaf; costs no machine execution."""
        leaf = node.leaf
        if leaf is None:  # the root: the no-switch result, built once
            leaf = node.leaf = self._no_switch_result(self._rec)
        return ExecutionResult(
            accesses=leaf.accesses,
            console=list(leaf.console),
            returns=[list(r) for r in leaf.returns],
            panicked=leaf.panicked,
            panic_message=leaf.panic_message,
            deadlocked=leaf.deadlocked,
            budget_exceeded=leaf.budget_exceeded,
            instructions=leaf.instructions,
            switches=leaf.switches,
            races=list(leaf.races),
            switch_points=list(leaf.switch_points),
        )

    def _branch(self, scheduler, detector, node, k, top, offset, drawn):
        """Run a trial that left the trie at ``node.steps[k]`` live from
        its first-switch fork, and graft the schedule it ran."""
        steps: List = []
        if top is None:  # a new first switch: the fork does not exist yet
            fork = self._build_fork_state(k, self._rec)
            result = self._resume(fork, scheduler, detector, steps)
            node.branches[k] = _Node(steps, result, fork)
            return result, Served.LIVE
        result = self._resume(top.fork, _Replay(drawn, scheduler), detector, steps)
        node.branches[k] = _Node(steps[offset + k + 1 :], result)
        return result, Served.FORK

    def _resume(self, state: _ForkState, scheduler, detector, steps) -> ExecutionResult:
        """Run the trial on from right after ``state``'s first switch."""
        detector.load_state(state.detector)
        rec = self._rec
        m = state.event
        ev = rec.events[m]
        kernel = self.executor.kernel
        ctx = kernel.make_context(thread=0, proc_index=0)
        gen = run_program(
            kernel,
            ctx,
            self.writer,
            start_call=ev.call_index,
            results=list(ev.results[: ev.call_index]),
        )
        # Fast-forward the coroutine to the switch op: sends replay the
        # recorded op results without touching memory (all machine
        # effects happen at yield sites; between yields only the stack
        # pointer moves, deterministically).
        gen.send(None)
        events = rec.events
        for i in range(rec.call_starts[ev.call_index], m):
            gen.send(events[i].pending)
        resume = ResumeState(
            snapshot=state.snapshot,
            console_start=len(self.executor.snapshot.console),
            gen=gen,
            ctx=ctx,
            pending=ev.pending,
            rcu_depth=ev.rcu_after,
            liveness=state.liveness.clone(),
            stuck0=ev.stuck,
            seq=ev.seq_after,
            ninstr=ev.ninstr,
            trace=rec.result.accesses,
            trace_rows=ev.rows_after,
            steps=steps,
        )
        return self.executor.run_concurrent(
            [self.writer, self.reader],
            scheduler=scheduler,
            race_detector=detector,
            resume_from=resume,
        )

    def _no_switch_result(self, rec: PrefixRecording) -> ExecutionResult:
        """The root's leaf: the recording run, races replayed."""
        detector = RaceDetector()
        self._replay_detector(detector, rec.events, len(rec.events))
        rec.result.races = detector.reports()
        return rec.result

    def _build_fork_state(self, m: int, rec: PrefixRecording) -> _ForkState:
        """Capture the machine/bookkeeping state right after event ``m``."""
        executor = self.executor
        machine = executor.kernel.machine
        memory = machine.memory
        base = executor.snapshot
        base.restore(machine)
        events = rec.events
        for ev in events[: m + 1]:
            if ev.printk is not None:
                machine.printk(ev.printk)
                continue
            for access in ev.accesses:
                if access.is_write:
                    memory.write_int(access.addr, access.size, access.value)
        snapshot = ForkSnapshot.capture(
            machine, base, label=f"fork@{events[m].ninstr}"
        )
        liveness = LivenessMonitor(2)
        for ev in events[: m + 1]:
            if ev.accesses:
                first = ev.accesses[0]
                liveness.note_access(0, first.ins, first.addr)
            elif ev.pause:
                liveness.note_pause(0)
        detector = RaceDetector()
        self._replay_detector(detector, events, m + 1)
        return _ForkState(
            event=m, snapshot=snapshot, liveness=liveness, detector=detector
        )

    @staticmethod
    def _replay_detector(
        detector: RaceDetector, events: List[_Event], upto: int
    ) -> None:
        on_access = detector.on_access
        on_sync = detector.on_sync
        for ev in events[:upto]:
            if ev.sync is not None:
                on_sync(ev.thread, ev.sync)
                continue
            atomic = ev.atomic
            for access in ev.accesses:
                if not access.is_stack:
                    on_access(access, atomic=atomic)

    # -- the root ------------------------------------------------------------

    def _ensure_recorded(self) -> PrefixRecording:
        if self._rec is None:
            self._rec = rec = PrefixRecording(self.executor, self.writer, self.reader)
            # The trie's root: one step per recorded event, so a branch
            # key is the event a trial first switches after.  Only the
            # writer's solo events can switch; the reader's come after
            # it finished.
            steps = []
            for i, ev in enumerate(rec.events):
                if i >= rec.t0_events:
                    decision = None
                elif ev.pause or ev.stuck:
                    decision = _FORCED
                else:
                    decision = False if ev.accesses else None
                steps.append((ev.accesses, decision))
                if decision is _FORCED:
                    break  # every trial has switched by here
            self._root = _Node(steps)
        return self._rec

    # -- commuting-schedule analysis ----------------------------------------

    def _commuting_classes(self, rec: PrefixRecording) -> int:
        """Number of commuting classes among candidate switch positions.

        Candidates are the writer-solo positions where a trial's first
        switch can land: accesses matching the PMC's write/read
        signatures, their immediate predecessors (learned-flag
        positions), and forced switches (pauses, liveness stuck marks).
        Two consecutive candidates commute when no writer access between
        them conflicts with the reader's shared footprint — the reader
        observes the same memory either way, so one representative
        suffices.
        """
        events = rec.events
        n0 = rec.t0_events
        sigs = set(pmc_sigs(self.pmc))
        candidates: List[int] = []
        prev_access_event: Optional[int] = None
        for i in range(n0):
            ev = events[i]
            if ev.pause or ev.stuck:
                candidates.append(i)
            hit = any(access_sig(a) in sigs for a in ev.accesses)
            if hit:
                if prev_access_event is not None:
                    candidates.append(prev_access_event)
                candidates.append(i)
            if ev.accesses:
                prev_access_event = i
        if not candidates:
            return 0
        candidates = sorted(set(candidates))
        reads, writes = self._reader_footprint(rec)
        classes = 1
        for p, q in zip(candidates, candidates[1:]):
            if self._window_conflicts(events, p + 1, q + 1, reads, writes):
                classes += 1
        return classes

    def _reader_footprint(self, rec: PrefixRecording):
        """(all shared intervals, written shared intervals) of the reader."""
        reads: List[Tuple[int, int]] = []
        writes: List[Tuple[int, int]] = []
        for ev in rec.events[rec.t0_events :]:
            for access in ev.accesses:
                if access.is_stack:
                    continue
                interval = (access.addr, access.end)
                reads.append(interval)
                if access.is_write:
                    writes.append(interval)
        return _merge_intervals(reads), _merge_intervals(writes)

    @staticmethod
    def _window_conflicts(events, start, stop, reader_all, reader_writes):
        for ev in events[start:stop]:
            for access in ev.accesses:
                if access.is_stack:
                    continue
                ranges = reader_all if access.is_write else reader_writes
                if _overlaps_any(access.addr, access.end, ranges):
                    return True
        return False


def _merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            if hi > last_hi:
                merged[-1] = (last_lo, hi)
        else:
            merged.append((lo, hi))
    return merged


def _overlaps_any(lo: int, hi: int, merged: List[Tuple[int, int]]) -> bool:
    """Binary search ``[lo, hi)`` against merged, sorted intervals."""
    i = bisect.bisect_right(merged, (lo, hi))
    if i < len(merged) and merged[i][0] < hi:
        return True
    return i > 0 and merged[i - 1][1] > lo
