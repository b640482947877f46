"""The serialised two-vCPU executor.

This is the reproduction's hypervisor: it restores the fixed VM snapshot,
runs one or two test programs as kernel threads, performs every yielded
kernel op against the machine, traces all memory accesses, feeds
synchronisation events to the race detector, consults the scheduler
after every instruction, and applies the liveness heuristics.  Only one
vCPU executes at any time, exactly like SKI's controlled schedule
enforcement (section 4.4.1 of the paper).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Generator, List, Optional, Sequence

from repro.fuzz.prog import Program, resolve_arg
from repro.kernel.context import KernelContext
from repro.kernel.kernel import Kernel
from repro.kernel.ops import CasOp, MemOp, PanicOp, PauseOp, PrintkOp, SyncOp
from repro.machine.accesses import AccessTrace, AccessType, MemoryAccess
from repro.machine.memory import PageFault
from repro.machine.snapshot import Snapshot
from repro.obs import NULL_OBSERVER
from repro.sched.liveness import LivenessMonitor

DEFAULT_MAX_INSTRUCTIONS = 200_000


@dataclass
class ExecutionResult:
    """Everything observed during one execution (trial).

    ``accesses`` is a columnar :class:`AccessTrace`; iterating it (or
    calling :meth:`shared_accesses`) materialises :class:`MemoryAccess`
    views on demand.
    """

    accesses: AccessTrace = dc_field(default_factory=AccessTrace)
    console: List[str] = dc_field(default_factory=list)
    returns: List[List[int]] = dc_field(default_factory=list)
    panicked: bool = False
    panic_message: str = ""
    deadlocked: bool = False
    budget_exceeded: bool = False
    instructions: int = 0
    switches: int = 0
    # Per-trial reset cost: pages copied back by the snapshot restore that
    # preceded this execution, and the wall time it took.  With dirty-page
    # tracking the page count is O(pages dirtied by the previous run).
    pages_restored: int = 0
    restore_seconds: float = 0.0
    races: List = dc_field(default_factory=list)
    # Instruction indexes at which a vCPU switch occurred (scheduler- or
    # liveness-driven).  Feeding these back via ``replay_switch_points``
    # reproduces the execution bit for bit — the deterministic bug
    # reproduction capability of section 6.
    switch_points: List[int] = dc_field(default_factory=list)

    @property
    def completed(self) -> bool:
        """True when the trial ran to the end without a fatal event."""
        return not (self.panicked or self.deadlocked or self.budget_exceeded)

    def shared_accesses(self, thread: Optional[int] = None) -> List[MemoryAccess]:
        """Non-stack accesses (optionally restricted to one thread)."""
        return [
            a
            for a in self.accesses
            if not a.is_stack and (thread is None or a.thread == thread)
        ]


def run_program(
    kernel: Kernel,
    ctx: KernelContext,
    program: Program,
    start_call: int = 0,
    results: Optional[List[int]] = None,
) -> Generator:
    """Kernel-thread coroutine: run all calls of one test program.

    ``start_call``/``results`` let a memoized prefix rebuild the coroutine
    mid-program: execution resumes at call index ``start_call`` with the
    return values of the completed calls pre-seeded (``Res`` argument
    references resolve against them exactly as in a from-scratch run).
    The list is also ``ctx.results``: while a call runs, its length is
    that call's index and its items the returns of the calls before it.
    """
    if results is None:
        results = []
    ctx.results = results
    for call in program.calls[start_call:]:
        ctx.reset_stack()
        args = tuple(resolve_arg(arg, results) for arg in call.args)
        ret = yield from kernel.run_syscall(ctx, call.name, args)
        results.append(ret)
    return results


@dataclass
class ResumeState:
    """Mid-trial thread-0 state for a prefix-forked concurrent run.

    Built by :mod:`repro.sched.prefixfork` from a recorded sequential
    prefix: a delta snapshot of machine memory at the first switch point,
    the re-positioned thread-0 coroutine, and the bookkeeping the
    interpreter loop would have accumulated had it executed the prefix
    itself.  ``trace`` holds the prefix's access rows, of which the first
    ``trace_rows`` are copied into the resumed result.

    ``steps`` receives the resumed run's schedule, one
    ``(accesses, decision)`` pair per instruction that consulted the
    scheduler: the accesses it was shown, then whether it switched, or
    ``None`` where its answer could not take effect (the other thread
    done, or a liveness mark forcing the switch anyway).
    """

    snapshot: object  # Snapshot/ForkSnapshot: anything with .restore(machine)
    console_start: int
    gen: Generator
    ctx: KernelContext
    pending: object
    rcu_depth: int
    liveness: LivenessMonitor
    stuck0: bool
    seq: int
    ninstr: int
    trace: AccessTrace
    trace_rows: int
    steps: list


class _Thread:
    """Executor-internal per-vCPU state."""

    __slots__ = ("index", "gen", "ctx", "pending", "done", "returns", "rcu_depth")

    def __init__(self, index: int, gen: Generator, ctx: KernelContext):
        self.index = index
        self.gen = gen
        self.ctx = ctx
        self.pending = None  # value to send into the generator next
        self.done = False
        self.returns: List[int] = []
        self.rcu_depth = 0


class Executor:
    """Runs sequential or concurrent tests from a fixed snapshot."""

    def __init__(
        self,
        kernel: Kernel,
        snapshot: Snapshot,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ):
        self.kernel = kernel
        self.snapshot = snapshot
        self.max_instructions = max_instructions
        # Force a full-copy snapshot restore before every run instead of
        # the dirty-page incremental path (the pre-optimisation behaviour;
        # kept as a knob for the restore-cost benchmarks).
        self.full_restore = False
        # Observability hooks; the shared no-op unless the owning pipeline
        # (or a Stage-4 worker, per task) installs a live observer.
        self.obs = NULL_OBSERVER

    # -- public entry points ---------------------------------------------------

    def run_sequential(self, program: Program, proc: int = 0) -> ExecutionResult:
        """Run one program alone from the snapshot (profiling mode)."""
        return self._run([program], scheduler=None, procs=[proc])

    def run_concurrent(
        self,
        programs: Sequence[Program],
        scheduler=None,
        race_detector=None,
        replay_switch_points: Optional[Sequence[int]] = None,
        resume_from: Optional[ResumeState] = None,
        replay_log: Optional[list] = None,
    ) -> ExecutionResult:
        """Run two (or more) programs as concurrent kernel threads.

        With ``replay_switch_points`` (the ``switch_points`` of a prior
        result) the schedule is replayed exactly: the scheduler and the
        liveness heuristics are bypassed and switches happen at precisely
        the recorded instruction indexes, reproducing the execution.
        ``replay_log`` then receives one tuple per op the run completed,
        taken right after it: ``(thread index, op, value sent back into
        the coroutine, post-op liveness stuck flag, RCU read depth, the
        thread's ``ctx.results``, its length, seq, trace rows,
        instruction count)``.  An op that faults or panics ends the run
        unlogged.  With no switch points this is the schedule trie's
        root (:mod:`repro.sched.prefixfork`): each thread runs alone to
        its end, as nothing can force a switch in replay mode.

        With ``resume_from`` the run starts at a memoized first switch
        point instead of the boot snapshot: thread 0's coroutine, the
        liveness window, the access trace and the instruction/sequence
        counters are restored from the recorded prefix, and execution
        proceeds on thread 1 exactly as if the prefix had just run; the
        run's schedule is recorded into ``resume_from.steps``.
        """
        max_procs = len(self.kernel.procs)
        if not 2 <= len(programs) <= max_procs:
            raise ValueError(
                f"concurrent execution takes 2..{max_procs} programs"
            )
        return self._run(
            list(programs),
            scheduler=scheduler,
            procs=list(range(len(programs))),
            race_detector=race_detector,
            replay_switch_points=replay_switch_points,
            resume=resume_from,
            replay_log=replay_log,
        )

    # -- the interpreter loop ----------------------------------------------------

    def _run(
        self,
        programs: List[Program],
        scheduler,
        procs: List[int],
        race_detector=None,
        replay_switch_points: Optional[Sequence[int]] = None,
        resume: Optional[ResumeState] = None,
        replay_log: Optional[list] = None,
    ) -> ExecutionResult:
        replay = set(replay_switch_points) if replay_switch_points is not None else None
        result = ExecutionResult()
        machine = self.kernel.machine
        if resume is None:
            if self.full_restore:
                machine.invalidate_restore_tracking()
            restore_start = time.perf_counter()
            result.pages_restored = self.snapshot.restore(machine)
            result.restore_seconds = time.perf_counter() - restore_start
            obs = self.obs
            if obs.enabled:
                # Reuses the restore timer above: tracing adds no clock
                # reads to the run path, and none of this executes when
                # disabled.
                obs.record_span(
                    "snapshot.restore",
                    result.restore_seconds,
                    pages=result.pages_restored,
                )
            console_start = len(machine.console)
        else:
            restore_start = time.perf_counter()
            result.pages_restored = resume.snapshot.restore(machine)
            result.restore_seconds = time.perf_counter() - restore_start
            obs = self.obs
            if obs.enabled:
                obs.record_span(
                    "snapshot.fork",
                    result.restore_seconds,
                    pages=result.pages_restored,
                )
            # Prefix printks belong to this trial's console slice: start
            # where the *boot* console ended, not where the fork console
            # ends.
            console_start = resume.console_start

        threads: List[_Thread] = []
        for i, program in enumerate(programs):
            if resume is not None and i == 0:
                thread = _Thread(0, resume.gen, resume.ctx)
                thread.pending = resume.pending
                thread.rcu_depth = resume.rcu_depth
                threads.append(thread)
                continue
            ctx = self.kernel.make_context(thread=i, proc_index=procs[i])
            gen = run_program(self.kernel, ctx, program)
            threads.append(_Thread(i, gen, ctx))

        nthreads = len(threads)
        if resume is None:
            liveness = LivenessMonitor(nthreads)
            # Sticky low-liveness marks: set while a thread looks stuck,
            # cleared as soon as its recent behaviour diversifies again.
            # When every runnable thread is sticky-stuck at once, nothing
            # can make progress: dead-/livelock.
            sticky_stuck = [False] * nthreads
            current = 0
            seq = 0
            steps = None
        else:
            liveness = resume.liveness
            sticky_stuck = [resume.stuck0] + [False] * (nthreads - 1)
            current = 1
            seq = resume.seq
            steps = resume.steps
            result.switches = 1
            result.switch_points.append(resume.ninstr)
            result.accesses.extend_prefix(resume.trace, resume.trace_rows)

        # The interpreter inner loop below runs once per instruction over
        # millions of trials, so everything it touches is pre-resolved:
        # bound methods instead of attribute chains, a runnable counter
        # instead of a per-instruction list comprehension, one class
        # dispatch instead of an isinstance chain, and a local instruction
        # counter written back to ``result`` only on exit.  Sequential
        # profiling (no scheduler, no race detector) records accesses
        # straight into the columnar trace — zero per-access objects —
        # while concurrent trials build the MemoryAccess records the
        # scheduler and detector require.
        memory = machine.memory
        read_int = memory.read_int
        write_int = memory.write_int
        in_stack = machine.in_stack
        trace = result.accesses
        append_fields = trace.append_fields
        append_access = trace.append
        note_access = liveness.note_access
        is_stuck = liveness.is_stuck
        switch_points = result.switch_points
        sched_on_access = scheduler.on_access if scheduler is not None else None
        detect_on_access = race_detector.on_access if race_detector is not None else None
        sequential = sched_on_access is None and detect_on_access is None
        max_instructions = self.max_instructions
        READ = AccessType.READ
        runnable = nthreads
        ninstr = 0 if resume is None else resume.ninstr
        shown = None  # accesses this instruction showed the scheduler

        while runnable:
            if ninstr >= max_instructions:
                result.budget_exceeded = True
                break

            thread = threads[current]
            if thread.done:
                current = self._other(current, threads)
                continue

            # Advance the coroutine by one instruction.  A fresh generator
            # accepts send(None), so no special start-up case is needed.
            try:
                op = thread.gen.send(thread.pending)
            except StopIteration as stop:
                thread.done = True
                runnable -= 1
                thread.returns = stop.value or []
                liveness.note_progress(thread.index)
                current = self._other(current, threads)
                continue

            thread.pending = None
            ninstr += 1
            switch = False
            cls = op.__class__

            if cls is MemOp:
                addr = op.addr
                size = op.size
                ins = op.ins
                try:
                    if op.type is READ:
                        value = read_int(addr, size)
                        thread.pending = value
                    else:
                        value = op.value
                        write_int(addr, size, value)
                except PageFault as fault:
                    self._page_fault_panic(fault, ins, result)
                    break
                tindex = thread.index
                is_stack = in_stack(tindex, addr, size)
                if sequential:
                    append_fields(seq, tindex, op.type, addr, size, value, ins, is_stack)
                    note_access(tindex, ins, addr)
                else:
                    access = MemoryAccess(
                        seq=seq,
                        thread=tindex,
                        type=op.type,
                        addr=addr,
                        size=size,
                        value=value,
                        ins=ins,
                        is_stack=is_stack,
                    )
                    append_access(access)
                    note_access(tindex, ins, addr)
                    if detect_on_access is not None and not is_stack:
                        detect_on_access(access, atomic=op.atomic)
                    if sched_on_access is not None:
                        switch = sched_on_access(access)
                        if steps is not None:
                            shown = (access,)
                seq += 1
            elif cls is CasOp:
                traced = self._do_cas(thread, op, seq, result, liveness, sequential)
                seq += 2
                if result.panicked:
                    break
                for access in traced:
                    if detect_on_access is not None and not access.is_stack:
                        detect_on_access(access, atomic=True)
                    if sched_on_access is not None and sched_on_access(access):
                        switch = True
                if steps is not None and sched_on_access is not None:
                    shown = traced
            elif cls is SyncOp:
                self._do_sync(thread, threads, op, race_detector)
            elif cls is PrintkOp:
                machine.printk(op.message)
            elif cls is PanicOp:
                self._panic(op.message, result)
                break
            elif cls is PauseOp:
                liveness.note_pause(thread.index)
                switch = True
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown kernel op {op!r}")

            if shown is not None:
                # The scheduler's answer matters only where a switch can
                # take effect: the other thread runs, and liveness is not
                # about to force the switch anyway.
                forced = runnable == 1 or is_stuck(thread.index)
                steps.append((shown, None if forced else bool(switch)))
                shown = None

            if replay is not None:
                # Replay mode: the recorded switch points fully determine
                # the schedule; scheduler and liveness are bypassed.
                switch = ninstr in replay
                if replay_log is not None:
                    results = thread.ctx.results
                    replay_log.append((
                        thread.index, op, thread.pending, is_stuck(thread.index),
                        thread.rcu_depth, results, len(results), seq, len(trace),
                        ninstr,
                    ))
            elif is_stuck(thread.index):
                # Liveness: force a switch away from a stuck thread; when
                # every runnable thread is sticky-stuck, the system is
                # dead(/live)locked.  The mark stays set while the thread
                # keeps spinning (windows are not reset, so evidence
                # accumulates).
                sticky_stuck[thread.index] = True
                others = [t for t in threads if not t.done and t.index != current]
                if others and all(sticky_stuck[t.index] for t in others):
                    result.deadlocked = True
                    break
                switch = True
            else:
                sticky_stuck[thread.index] = False

            if switch and nthreads > 1:
                new = self._other(current, threads)
                if new != current:
                    result.switches += 1
                    switch_points.append(ninstr)
                    current = new

        result.instructions = ninstr
        result.console = machine.console[console_start:]
        result.returns = [t.returns for t in threads]
        if race_detector is not None:
            result.races = race_detector.reports()
        return result

    # -- op handlers -----------------------------------------------------------

    def _do_cas(
        self, thread, op: CasOp, seq, result, liveness, sequential
    ) -> tuple:
        """Perform a compare-and-swap; the access records it traced.

        Sequential profiling appends raw columns and returns ``()``, as
        does a faulting CAS (``result`` then carries the panic).
        """
        machine = self.kernel.machine
        memory = machine.memory
        try:
            old = memory.read_int(op.addr, op.size)
            swapped = old == op.expected
            if swapped:
                memory.write_int(op.addr, op.size, op.new)
        except PageFault as fault:
            self._page_fault_panic(fault, op.ins, result)
            return ()
        thread.pending = old
        is_stack = machine.in_stack(thread.index, op.addr, op.size)
        trace = result.accesses
        if sequential:
            # Sequential profiling: columnar append, no record objects.
            trace.append_fields(
                seq, thread.index, AccessType.READ, op.addr, op.size, old, op.ins, is_stack
            )
            if swapped:
                trace.append_fields(
                    seq + 1,
                    thread.index,
                    AccessType.WRITE,
                    op.addr,
                    op.size,
                    op.new,
                    op.ins,
                    is_stack,
                )
            liveness.note_access(thread.index, op.ins, op.addr)
            return ()
        read = MemoryAccess(
            seq=seq,
            thread=thread.index,
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
                seq=seq + 1,
                thread=thread.index,
                type=AccessType.WRITE,
                addr=op.addr,
                size=op.size,
                value=op.new,
                ins=op.ins,
                is_stack=is_stack,
            )
            trace.append(write)
            traced = (read, write)
        else:
            traced = (read,)
        liveness.note_access(thread.index, op.ins, op.addr)
        return traced

    def _do_sync(self, thread, threads, op: SyncOp, race_detector) -> None:
        if op.kind == "rcu_read_lock":
            thread.rcu_depth += 1
        elif op.kind == "rcu_read_unlock":
            thread.rcu_depth = max(0, thread.rcu_depth - 1)
        elif op.kind == "rcu_synchronize":
            others = [t for t in threads if t.index != thread.index and not t.done]
            thread.pending = all(t.rcu_depth == 0 for t in others)
        if race_detector is not None:
            race_detector.on_sync(thread.index, op)

    # -- failure paths -------------------------------------------------------------

    def _page_fault_panic(self, fault: PageFault, ins: str, result: ExecutionResult) -> None:
        if fault.addr < 4096:
            message = (
                f"BUG: kernel NULL pointer dereference, address: "
                f"{fault.addr:#018x} RIP: {ins}"
            )
        else:
            message = (
                f"BUG: unable to handle page fault for address: "
                f"{fault.addr:#018x} RIP: {ins}"
            )
        self._panic(message, result)

    def _panic(self, message: str, result: ExecutionResult) -> None:
        self.kernel.machine.printk(message)
        self.kernel.machine.printk("Kernel panic - not syncing: Fatal exception")
        result.panicked = True
        result.panic_message = message

    @staticmethod
    def _other(current: int, threads: List[_Thread]) -> int:
        """Index of the next runnable thread after ``current``."""
        n = len(threads)
        for step in range(1, n + 1):
            candidate = (current + step) % n
            if not threads[candidate].done:
                return candidate
        return current
