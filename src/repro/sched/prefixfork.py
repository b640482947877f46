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

Bit-identity with the from-boot path is the contract; the recorder
below replicates the executor's per-op semantics exactly, including the
page-fault sequence-number quirks and the liveness stuck checks that
force switches independently of the scheduler.

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
from repro.fuzz.prog import Program, resolve_arg
from repro.kernel.ops import CasOp, MemOp, PanicOp, PauseOp, PrintkOp, SyncOp
from repro.machine.accesses import AccessTrace, AccessType, MemoryAccess
from repro.machine.memory import PageFault
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
    """One recorded solo-execution op, mirroring the executor loop."""

    __slots__ = (
        "ninstr",
        "thread",
        "accesses",
        "atomic",
        "pending",
        "sync",
        "printk",
        "pause",
        "stuck",
        "terminal",
        "call_index",
        "seq_after",
        "rows_after",
        "rcu_after",
    )

    def __init__(
        self,
        ninstr: int,
        thread: int,
        accesses: Tuple[MemoryAccess, ...],
        atomic: bool,
        pending,
        sync,
        printk: Optional[str],
        pause: bool,
        stuck: bool,
        terminal: bool,
        call_index: Optional[int],
        seq_after: int,
        rows_after: int,
        rcu_after: int,
    ):
        self.ninstr = ninstr
        self.thread = thread
        self.accesses = accesses
        self.atomic = atomic
        self.pending = pending
        self.sync = sync
        self.printk = printk
        self.pause = pause
        self.stuck = stuck
        self.terminal = terminal
        self.call_index = call_index
        self.seq_after = seq_after
        self.rows_after = rows_after
        self.rcu_after = rcu_after


class PrefixRecording:
    """The writer's (and, when it completes, the reader's) solo run."""

    def __init__(self) -> None:
        self.events: List[_Event] = []
        # Number of events belonging to the writer's solo portion.
        self.t0_events = 0
        # True when the writer ran to completion (so the reader portion
        # was recorded and the no-switch result is fully known).
        self.t0_completed = False
        # Per writer call: (event index at call start, results before).
        self.call_starts: List[Tuple[int, Tuple]] = []
        self.trace = AccessTrace()
        self.console_lines: List[str] = []
        self.returns: List[List[int]] = [[], []]
        self.panicked = False
        self.panic_message = ""
        self.budget_exceeded = False
        self.total_ninstr = 0


@dataclass
class _ForkState:
    """Cached state right after a first switch, shared by every trial
    that first switches there."""

    event: int
    snapshot: ForkSnapshot
    liveness: LivenessMonitor
    detector: RaceDetector
    call_index: int
    call_event: int
    call_results: Tuple


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
            start_call=state.call_index,
            results=list(state.call_results),
        )
        # Fast-forward the coroutine to the switch op: sends replay the
        # recorded op results without touching memory (all machine
        # effects happen at yield sites; between yields only the stack
        # pointer moves, deterministically).
        gen.send(None)
        events = rec.events
        for i in range(state.call_event, m):
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
            trace=rec.trace,
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
        """The root's leaf: the solo runs back to back, races replayed."""
        detector = RaceDetector()
        self._replay_detector(detector, rec.events, len(rec.events))
        result = ExecutionResult()
        result.accesses = rec.trace
        result.console = rec.console_lines
        result.returns = rec.returns
        result.panicked = rec.panicked
        result.panic_message = rec.panic_message
        result.budget_exceeded = rec.budget_exceeded
        result.instructions = rec.total_ninstr
        result.races = detector.reports()
        return result

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
        call_index = events[m].call_index
        call_event, call_results = rec.call_starts[call_index]
        return _ForkState(
            event=m,
            snapshot=snapshot,
            liveness=liveness,
            detector=detector,
            call_index=call_index,
            call_event=call_event,
            call_results=call_results,
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

    # -- the prefix recorder ------------------------------------------------

    def _ensure_recorded(self) -> PrefixRecording:
        if self._rec is None:
            self._rec = rec = self._record()
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

    def _record(self) -> PrefixRecording:
        """Run the writer (then the reader) solo, recording every op.

        The loop replicates the executor's per-op semantics exactly —
        same instruction/sequence counting, same page-fault messages,
        same liveness pushes — but additionally records, per op, the
        value the executor would send back into the coroutine and the
        post-op stuck flag, which is everything trial simulation and
        coroutine fast-forward need.
        """
        executor = self.executor
        kernel = executor.kernel
        machine = kernel.machine
        memory = machine.memory
        rec = PrefixRecording()
        executor.snapshot.restore(machine)
        liveness = LivenessMonitor(2)
        max_instructions = executor.max_instructions
        events = rec.events
        trace = rec.trace
        console = rec.console_lines
        READ = AccessType.READ
        state = {"ninstr": 0, "seq": 0}

        def terminal_event(tindex, call_index, rcu_depth):
            events.append(
                _Event(
                    ninstr=state["ninstr"],
                    thread=tindex,
                    accesses=(),
                    atomic=False,
                    pending=None,
                    sync=None,
                    printk=None,
                    pause=False,
                    stuck=False,
                    terminal=True,
                    call_index=call_index,
                    seq_after=state["seq"],
                    rows_after=len(trace),
                    rcu_after=rcu_depth,
                )
            )

        def page_fault(fault, ins):
            scratch = ExecutionResult()
            executor._page_fault_panic(fault, ins, scratch)
            rec.panicked = True
            rec.panic_message = scratch.panic_message
            console.append(scratch.panic_message)
            console.append("Kernel panic - not syncing: Fatal exception")

        def run_thread(tindex: int, program: Program, record_calls: bool):
            """Returns the program's results, or None on a terminal stop."""
            ctx = kernel.make_context(thread=tindex, proc_index=tindex)
            results: List[int] = []
            rcu_depth = 0
            for ci, call in enumerate(program.calls):
                if record_calls:
                    rec.call_starts.append((len(events), tuple(results)))
                ctx.reset_stack()
                args = tuple(resolve_arg(arg, results) for arg in call.args)
                gen = kernel.run_syscall(ctx, call.name, args)
                pending = None
                while True:
                    if state["ninstr"] >= max_instructions:
                        rec.budget_exceeded = True
                        return None
                    try:
                        op = gen.send(pending)
                    except StopIteration as stop:
                        results.append(stop.value)
                        break
                    pending = None
                    state["ninstr"] += 1
                    cls = op.__class__
                    accesses: Tuple[MemoryAccess, ...] = ()
                    atomic = False
                    sync = None
                    printk = None
                    pause = False
                    if cls is MemOp:
                        addr = op.addr
                        size = op.size
                        ins = op.ins
                        try:
                            if op.type is READ:
                                value = memory.read_int(addr, size)
                                pending = value
                            else:
                                value = op.value
                                memory.write_int(addr, size, value)
                        except PageFault as fault:
                            page_fault(fault, ins)
                            terminal_event(
                                tindex, ci if record_calls else None, rcu_depth
                            )
                            return None
                        access = MemoryAccess(
                            seq=state["seq"],
                            thread=tindex,
                            type=op.type,
                            addr=addr,
                            size=size,
                            value=value,
                            ins=ins,
                            is_stack=machine.in_stack(tindex, addr, size),
                        )
                        trace.append(access)
                        liveness.note_access(tindex, ins, addr)
                        accesses = (access,)
                        atomic = op.atomic
                        state["seq"] += 1
                    elif cls is CasOp:
                        try:
                            old = memory.read_int(op.addr, op.size)
                            swapped = old == op.expected
                            if swapped:
                                memory.write_int(op.addr, op.size, op.new)
                        except PageFault as fault:
                            # The executor bumps seq by 2 even on a
                            # faulting CAS (before noticing the panic).
                            state["seq"] += 2
                            page_fault(fault, op.ins)
                            terminal_event(
                                tindex, ci if record_calls else None, rcu_depth
                            )
                            return None
                        pending = old
                        is_stack = machine.in_stack(tindex, op.addr, op.size)
                        read = MemoryAccess(
                            seq=state["seq"],
                            thread=tindex,
                            type=AccessType.READ,
                            addr=op.addr,
                            size=op.size,
                            value=old,
                            ins=op.ins,
                            is_stack=is_stack,
                        )
                        trace.append(read)
                        if swapped:
                            write = MemoryAccess(
                                seq=state["seq"] + 1,
                                thread=tindex,
                                type=AccessType.WRITE,
                                addr=op.addr,
                                size=op.size,
                                value=op.new,
                                ins=op.ins,
                                is_stack=is_stack,
                            )
                            trace.append(write)
                            accesses = (read, write)
                        else:
                            accesses = (read,)
                        liveness.note_access(tindex, op.ins, op.addr)
                        atomic = True
                        state["seq"] += 2
                    elif cls is SyncOp:
                        if op.kind == "rcu_read_lock":
                            rcu_depth += 1
                        elif op.kind == "rcu_read_unlock":
                            rcu_depth = max(0, rcu_depth - 1)
                        elif op.kind == "rcu_synchronize":
                            # Solo runs: the other thread is either not
                            # started (rcu depth 0) or already done.
                            pending = True
                        sync = op
                    elif cls is PrintkOp:
                        machine.printk(op.message)
                        console.append(op.message)
                        printk = op.message
                    elif cls is PanicOp:
                        scratch = ExecutionResult()
                        executor._panic(op.message, scratch)
                        rec.panicked = True
                        rec.panic_message = scratch.panic_message
                        console.append(scratch.panic_message)
                        console.append(
                            "Kernel panic - not syncing: Fatal exception"
                        )
                        terminal_event(
                            tindex, ci if record_calls else None, rcu_depth
                        )
                        return None
                    elif cls is PauseOp:
                        liveness.note_pause(tindex)
                        pause = True
                    else:  # pragma: no cover - defensive
                        raise TypeError(f"unknown kernel op {op!r}")
                    events.append(
                        _Event(
                            ninstr=state["ninstr"],
                            thread=tindex,
                            accesses=accesses,
                            atomic=atomic,
                            pending=pending,
                            sync=sync,
                            printk=printk,
                            pause=pause,
                            stuck=liveness.is_stuck(tindex),
                            terminal=False,
                            call_index=ci if record_calls else None,
                            seq_after=state["seq"],
                            rows_after=len(trace),
                            rcu_after=rcu_depth,
                        )
                    )
            liveness.note_progress(tindex)
            return results

        t0_results = run_thread(0, self.writer, record_calls=True)
        rec.t0_events = len(events)
        rec.t0_completed = t0_results is not None
        if t0_results is not None:
            rec.returns[0] = t0_results
            t1_results = run_thread(1, self.reader, record_calls=False)
            if t1_results is not None:
                rec.returns[1] = t1_results
        rec.total_ninstr = state["ninstr"]
        return rec

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
