"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``campaign``  — run one strategy campaign and print the results.
* ``table3``    — run every generation method with an equal budget.
* ``case``      — reproduce one of the paper's case-study figures.
* ``stats``     — aggregate a ``--trace-out`` JSONL trace into tables.
* ``strategies``— list the Table 1 clustering strategies.
* ``bugs``      — list the Table 2 bug catalog.
* ``serve`` / ``submit`` / ``jobs`` / ``job`` / ``watch`` — the
  multi-tenant campaign service (see :mod:`repro.service.cli`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.detect.catalog import BUG_CATALOG, spec_by_id
from repro.orchestrate.pipeline import (
    ALL_METHODS,
    DUPLICATE_PAIRING,
    FLEET_KINDS,
    RANDOM_PAIRING,
    RANDOM_S_INS_PAIR,
    Snowboard,
    SnowboardConfig,
)
from repro.orchestrate.results import TABLE3_HEADER
from repro.pmc.clustering import ALL_STRATEGIES

CASES = ("l2tp", "mac", "rhashtable")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snowboard (SOSP 2021) reproduction over a simulated mini-kernel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run one strategy campaign")
    campaign.add_argument("--strategy", default="S-INS-PAIR", choices=ALL_METHODS)
    campaign.add_argument("--budget", type=int, default=50, help="concurrent tests")
    campaign.add_argument("--trials", type=int, default=16, help="trials per PMC")
    campaign.add_argument("--seed", type=int, default=7)
    campaign.add_argument("--corpus", type=int, default=260, help="fuzzer budget")
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="Stage-4 worker count (>1 runs a worker fleet; "
        "same bug set as serial for the same seed)",
    )
    campaign.add_argument(
        "--fleet",
        choices=FLEET_KINDS,
        default=None,
        help="fleet for --workers > 1: spawned worker processes behind "
        "the picklable wire format (the default), or socket workers "
        "speaking the same envelopes as length-prefixed JSON frames over "
        "TCP (bit-identical results in every case)",
    )
    campaign.add_argument(
        "--fleet-listen",
        metavar="HOST:PORT",
        default=None,
        help="socket-fleet listen endpoint (default 127.0.0.1:0 = "
        "ephemeral port; requires --fleet sockets)",
    )
    campaign.add_argument(
        "--fleet-token",
        metavar="TOKEN",
        default=None,
        help="shared handshake token for socket workers (default: a "
        "fresh random token per round; requires --fleet sockets)",
    )
    campaign.add_argument(
        "--fleet-external",
        action="store_true",
        help="do not auto-spawn local socket workers; wait for external "
        "'repro fleet-worker --connect' workers instead (requires "
        "--fleet sockets, --fleet-listen and --fleet-token)",
    )
    campaign.add_argument(
        "--fixed",
        action="store_true",
        help="run against the patched kernel (expects zero findings)",
    )
    campaign.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="journal every merged Stage-4 task to this JSONL file "
        "(crash-safe: a killed campaign can be resumed bit-identically)",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing --checkpoint journal and execute only "
        "the missing tasks (requires --checkpoint)",
    )
    campaign.add_argument(
        "--checkpoint-fsync",
        action="store_true",
        help="fsync the checkpoint journal after every record: survives "
        "machine crashes, not just process kills (requires --checkpoint)",
    )
    campaign.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a JSONL observability trace (spans, funnel counters, "
        "events) to FILE; render it later with 'repro stats FILE'",
    )
    campaign.add_argument(
        "--rounds",
        type=int,
        default=None,
        metavar="N",
        help="run a round-based incremental campaign: N rounds of corpus "
        "growth, delta PMC identification and selection from clusters "
        "not tested in earlier rounds (1 round == the batch campaign)",
    )
    campaign.add_argument(
        "--round-budget",
        type=int,
        default=None,
        metavar="M",
        help="concurrent tests per round (rounds mode; defaults to --budget)",
    )
    campaign.add_argument(
        "--corpus-growth",
        type=int,
        default=None,
        metavar="K",
        help="fuzzer executions added per round after the first "
        "(rounds mode; defaults to half of --corpus)",
    )
    campaign.add_argument(
        "--pmc-spill-dir",
        metavar="DIR",
        default=None,
        help="spill the PMC access index to append-only segment files in "
        "DIR (created if missing); results stay bit-identical to the "
        "in-memory index, and a killed campaign resumes from the store "
        "manifest",
    )
    campaign.add_argument(
        "--pmc-hot-mb",
        type=float,
        default=None,
        metavar="MB",
        help="bound the in-memory hot tier of the spilled access index "
        "to roughly MB megabytes of records; least-recently-touched "
        "buckets evict to disk (requires --pmc-spill-dir)",
    )
    campaign.add_argument(
        "--no-prefix-fork",
        action="store_true",
        help="disable sequential-prefix fork memoization and restore "
        "every trial from the boot snapshot (results are bit-identical "
        "either way; this only trades away the speedup)",
    )
    campaign.add_argument(
        "--prune-commuting",
        action="store_true",
        help="prune trials whose first-switch candidates commute "
        "(partial-order reduction over the recorded prefix); runs fewer "
        "trials per test, crediting skips to stage4.trials_pruned",
    )

    stats = sub.add_parser("stats", help="summarise a --trace-out trace file")
    stats.add_argument("trace", help="path to a JSONL trace written by --trace-out")
    stats.add_argument(
        "--markdown", action="store_true", help="render GitHub-flavoured tables"
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="emit the report as machine-readable JSON instead of tables",
    )

    table3 = sub.add_parser("table3", help="compare all generation methods")
    table3.add_argument("--budget", type=int, default=40)
    table3.add_argument("--seed", type=int, default=7)
    table3.add_argument("--corpus", type=int, default=260)

    case = sub.add_parser("case", help="reproduce a case-study figure")
    case.add_argument("name", choices=CASES)

    run = sub.add_parser("run", help="run textual program(s) on the kernel")
    run.add_argument("programs", nargs="+", help="1 (sequential) or 2 (concurrent) program files")
    run.add_argument("--seed", type=int, default=0, help="schedule seed (concurrent)")
    run.add_argument("--trials", type=int, default=16, help="interleavings (concurrent)")
    run.add_argument("--fixed", action="store_true", help="use the patched kernel")

    replay = sub.add_parser("replay", help="replay a reproduction package")
    replay.add_argument("package", help="path to a ReproPackage JSON file")
    replay.add_argument(
        "--minimize", action="store_true", help="ddmin the schedule first"
    )

    worker = sub.add_parser(
        "fleet-worker",
        help="join a socket-fleet coordinator as a Stage-4 worker",
    )
    worker.add_argument(
        "--connect",
        metavar="HOST:PORT",
        required=True,
        help="coordinator endpoint (the campaign's --fleet-listen)",
    )
    worker.add_argument(
        "--token",
        metavar="TOKEN",
        required=True,
        help="shared handshake token (the campaign's --fleet-token)",
    )
    worker.add_argument(
        "--once",
        action="store_true",
        help="serve a single connection and exit instead of reconnecting "
        "as a fresh worker after a lost link",
    )
    worker.add_argument(
        "--connect-timeout",
        type=float,
        default=20.0,
        metavar="SECONDS",
        help="how long to keep redialing a refused/unreachable endpoint "
        "before giving up (default 20)",
    )

    sub.add_parser("strategies", help="list the clustering strategies")
    sub.add_parser("bugs", help="list the Table 2 bug catalog")

    from repro.service import cli as service_cli

    service_cli.register(sub)
    return parser


def _make_observer(args):
    """Build the campaign Observer for ``--trace-out`` (None when off)."""
    if not getattr(args, "trace_out", None):
        return None
    from repro.obs import JsonlSink, Observer

    header = {
        "strategy": args.strategy,
        "seed": args.seed,
        "budget": args.budget,
        "trials": args.trials,
        "workers": args.workers,
        "fleet": args.fleet,
        "fixed": args.fixed,
    }
    if getattr(args, "rounds", None):
        header["rounds"] = args.rounds
        header["round_budget"] = args.round_budget or args.budget
    return Observer(JsonlSink(args.trace_out, header=header))


def _cmd_campaign(args) -> int:
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.checkpoint_fsync and not args.checkpoint:
        print("error: --checkpoint-fsync requires --checkpoint", file=sys.stderr)
        return 2
    if args.fleet is not None and args.workers <= 1:
        print(
            f"error: --fleet {args.fleet} requires --workers > 1 "
            "(one worker runs the serial path)",
            file=sys.stderr,
        )
        return 2
    if args.fleet != "sockets" and (
        args.fleet_listen is not None
        or args.fleet_token is not None
        or args.fleet_external
    ):
        print(
            "error: --fleet-listen/--fleet-token/--fleet-external require "
            "--fleet sockets",
            file=sys.stderr,
        )
        return 2
    if args.fleet_external and (args.fleet_listen is None or args.fleet_token is None):
        print(
            "error: --fleet-external requires --fleet-listen and "
            "--fleet-token (external workers must know where to dial and "
            "what to present)",
            file=sys.stderr,
        )
        return 2
    if args.rounds is not None and args.rounds < 1:
        print("error: --rounds must be at least 1", file=sys.stderr)
        return 2
    if args.rounds is None and (
        args.round_budget is not None or args.corpus_growth is not None
    ):
        print(
            "error: --round-budget/--corpus-growth require --rounds",
            file=sys.stderr,
        )
        return 2
    if args.pmc_hot_mb is not None and not args.pmc_spill_dir:
        print("error: --pmc-hot-mb requires --pmc-spill-dir", file=sys.stderr)
        return 2
    pmc_hot_records = None
    if args.pmc_hot_mb is not None:
        from repro.pmc.store import RECORD_SIZE

        # The hot tier holds parsed tuples, not packed records; the
        # fixed record width is still the natural sizing unit.
        pmc_hot_records = max(1, int(args.pmc_hot_mb * 1024 * 1024) // RECORD_SIZE)
    fleet_knobs = {}
    if args.fleet_listen is not None:
        fleet_knobs["fleet_listen"] = args.fleet_listen
    if args.fleet_token is not None:
        fleet_knobs["fleet_token"] = args.fleet_token
    if args.fleet_external:
        fleet_knobs["fleet_spawn_workers"] = False
    config = SnowboardConfig(
        seed=args.seed,
        corpus_budget=args.corpus,
        trials_per_pmc=args.trials,
        fixed_kernel=args.fixed,
        pmc_spill_dir=args.pmc_spill_dir,
        pmc_hot_records=pmc_hot_records,
        prefix_fork=not args.no_prefix_fork,
        prune_commuting=args.prune_commuting,
        **fleet_knobs,
    )
    observer = _make_observer(args)
    snowboard = Snowboard(config, observer=observer).prepare()
    if args.rounds is not None:
        budget_text = (
            f"rounds={args.rounds}, "
            f"round_budget={args.round_budget or args.budget}"
        )
    else:
        budget_text = f"budget={args.budget}"
    print(
        f"corpus={len(snowboard.corpus)} tests, pmcs={len(snowboard.pmcset)}, "
        f"strategy={args.strategy}, {budget_text}"
    )
    try:
        if args.rounds is not None:
            campaign = snowboard.run_rounds(
                args.rounds,
                round_budget=args.round_budget or args.budget,
                strategy=args.strategy,
                workers=args.workers,
                corpus_growth=args.corpus_growth,
                checkpoint_path=args.checkpoint,
                resume=args.resume,
                fleet=args.fleet,
                checkpoint_fsync=args.checkpoint_fsync,
            )
        else:
            campaign = snowboard.run_campaign(
                args.strategy,
                test_budget=args.budget,
                workers=args.workers,
                checkpoint_path=args.checkpoint,
                resume=args.resume,
                fleet=args.fleet,
                checkpoint_fsync=args.checkpoint_fsync,
            )
    finally:
        if observer is not None:
            observer.close()
    if args.rounds is not None:
        for info in snowboard.state.rounds_log:
            print(
                f"round {info.round}: tests={info.ntests} "
                f"corpus={info.corpus_size} (+{info.new_corpus_tests}) "
                f"pmcs={info.pmcs_total} (+{info.new_pmcs})"
            )
    print(TABLE3_HEADER)
    print(campaign.table_row())
    print(
        f"executed: tests={campaign.tested_pmcs} trials={campaign.trials} "
        f"observations={len(campaign.records)} bugs={campaign.distinct_bugs}"
    )
    print(f"accuracy: {campaign.accuracy:.1%} of tested PMCs exercised")
    print(
        f"throughput: {campaign.executions_per_minute:.0f} executions/min "
        f"({campaign.workers} worker(s), {campaign.pages_per_trial:.1f} pages "
        f"restored/trial, {campaign.restore_fraction:.1%} of time in restore"
        + (f", {campaign.task_failures} task failures" if campaign.task_failures else "")
        + (f", {campaign.task_retries} task retries" if campaign.task_retries else "")
        + (
            f", {campaign.worker_respawns} worker respawns"
            if campaign.worker_respawns
            else ""
        )
        + ")"
    )
    for bug_id, at in sorted(campaign.bugs_found().items()):
        spec = spec_by_id(bug_id)
        print(f"  {bug_id} [{spec.bug_type}/{spec.triage.value}] @{at}: {spec.summary}")
    if args.trace_out:
        print(f"trace written to {args.trace_out} (render: repro stats {args.trace_out})")
    return 0


def _cmd_stats(args) -> int:
    from repro.obs.stats import load_stats, render_stats, stats_to_obj

    try:
        stats = load_stats(args.trace)
    except FileNotFoundError:
        print(f"error: no such trace file: {args.trace}", file=sys.stderr)
        return 2
    except ValueError as error:  # no header, unknown schema, damaged line
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(stats_to_obj(stats), indent=2, sort_keys=False))
        return 0
    print(render_stats(stats, markdown=args.markdown))
    return 0


def _cmd_table3(args) -> int:
    config = SnowboardConfig(seed=args.seed, corpus_budget=args.corpus)
    snowboard = Snowboard(config).prepare()
    print(TABLE3_HEADER)
    for method in ALL_METHODS:
        campaign = snowboard.run_campaign(method, test_budget=args.budget)
        print(campaign.table_row())
    return 0


def _run_case(name: str) -> int:
    """Inline case-study runner (mirrors the examples/ scripts)."""
    from repro.fuzz.prog import Call, Res, prog
    from repro.kernel.kernel import boot_kernel
    from repro.pmc.identify import identify_pmcs
    from repro.profile.profiler import profile_from_result
    from repro.sched.executor import Executor
    from repro.sched.snowboard import SnowboardScheduler

    setups = {
        "l2tp": (
            prog(Call("socket", (2,)), Call("connect", (Res(0), 1))),
            prog(
                Call("socket", (2,)),
                Call("connect", (Res(0), 1)),
                Call("sendmsg", (Res(0), 5)),
            ),
            lambda p: "l2tp_tunnel_register" in p.write.ins,
            lambda result: result.panicked,
        ),
        "mac": (
            prog(Call("socket", (0,)), Call("ioctl", (Res(0), 4, 0xFFEEDDCCBBAA))),
            prog(Call("socket", (0,)), Call("ioctl", (Res(0), 5, 0))),
            lambda p: "ioctl_set_mac" in p.write.ins and "ioctl_get_mac" in p.read.ins,
            lambda result: len(result.returns[1]) > 1
            and result.returns[1][1] not in (0x0250_5600_0000, 0xFFEE_DDCC_BBAA),
        ),
        "rhashtable": (
            prog(Call("msgget", (2,)), Call("msgctl", (2, 0))),
            prog(Call("msgget", (2,))),
            lambda p: "rht_insert" in p.write.ins and "rht_ptr" in p.read.ins,
            lambda result: result.panicked,
        ),
    }
    writer, reader, predicate, oracle = setups[name]
    kernel, snapshot = boot_kernel()
    executor = Executor(kernel, snapshot)
    pw = profile_from_result(0, writer, executor.run_sequential(writer))
    pr = profile_from_result(1, reader, executor.run_sequential(reader))
    pmcset = identify_pmcs([pw, pr])
    pmc = next(p for p in pmcset if (0, 1) in pmcset.pairs(p) and predicate(p))
    print(f"scheduling hint: {pmc}")
    scheduler = SnowboardScheduler(pmc, seed=5)
    for trial in range(128):
        scheduler.begin_trial(trial)
        result = executor.run_concurrent([writer, reader], scheduler=scheduler)
        if oracle(result):
            print(f"exposed at trial {trial}")
            for line in result.console:
                print(f"  {line}")
            if name == "mac":
                print(f"  torn MAC returned to user space: {result.returns[1][1]:#x}")
            return 0
        scheduler.end_trial(result)
    print("not exposed in 128 trials")
    return 1


def _cmd_run(args) -> int:
    from repro.detect.datarace import RaceDetector
    from repro.detect.report import observe
    from repro.fuzz.text import parse_program
    from repro.kernel.kernel import boot_kernel
    from repro.sched.executor import Executor
    from repro.sched.random_sched import RandomScheduler

    programs = []
    for path in args.programs:
        with open(path) as handle:
            programs.append(parse_program(handle.read()))
    kernel, snapshot = boot_kernel(fixed=args.fixed)
    executor = Executor(kernel, snapshot)

    if len(programs) == 1:
        result = executor.run_sequential(programs[0])
        print(f"returns: {result.returns[0]}")
        for line in result.console:
            print(f"console: {line}")
        return 0 if result.completed else 1

    findings = {}
    for trial in range(args.trials):
        scheduler = RandomScheduler(seed=args.seed + trial, switch_probability=0.35)
        scheduler.begin_trial(0)
        detector = RaceDetector(nthreads=len(programs))
        result = executor.run_concurrent(
            programs, scheduler=scheduler, race_detector=detector
        )
        for obs in observe(result):
            findings.setdefault(obs.key, obs)
        if result.panicked:
            break
    print(f"{args.trials} interleavings explored; {len(findings)} distinct findings")
    for obs in findings.values():
        print(f"  {obs}")
    return 0


def _cmd_replay(args) -> int:
    from repro.kernel.kernel import boot_kernel
    from repro.orchestrate.persistence import ReproPackage, reproduce
    from repro.sched.executor import Executor
    from repro.sched.minimize import minimize_schedule

    package = ReproPackage.load(args.package)
    print(package.render_report())
    kernel, snapshot = boot_kernel()
    executor = Executor(kernel, snapshot)
    if args.minimize:
        minimal = minimize_schedule(
            executor,
            [package.writer, package.reader],
            package.switch_points,
            oracle=lambda r: (
                r.panic_message == package.expected_panic
                if package.expected_panic
                else r.console == package.expected_console
            ),
        )
        print(f"\nminimised schedule: {package.switch_points} -> {minimal}")
        package.switch_points = minimal
        package.expected_console = []  # transcripts differ under the minimal set
    result = reproduce(executor, package)
    print(f"\nreplay: panicked={result.panicked} console={result.console}")
    return 0


def _cmd_strategies(_args) -> int:
    for strategy in ALL_STRATEGIES:
        keys = "two keys (ins_w; ins_r)" if len(strategy.keys) == 2 else "one key"
        print(f"{strategy.name:<16} {keys}")
    print(f"{RANDOM_S_INS_PAIR:<16} S-INS-PAIR clusters, random order")
    print(f"{RANDOM_PAIRING:<16} no analysis: random test pairs")
    print(f"{DUPLICATE_PAIRING:<16} no analysis: identical test pairs")
    return 0


def _cmd_bugs(_args) -> int:
    for spec in BUG_CATALOG:
        print(
            f"{spec.id}  #{spec.paper_id:<3} {spec.bug_type:<3} "
            f"{spec.triage.value:<8} {spec.subsystem:<16} {spec.summary}"
        )
    return 0


def _cmd_fleet_worker(args) -> int:
    from repro.orchestrate.fleet import WireFormatError
    from repro.orchestrate.socketfleet import socket_worker_main

    host, _, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not (0 < port < 65536):
        print(
            f"error: --connect expects HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    try:
        return socket_worker_main(
            host,
            port,
            args.token,
            reconnect=not args.once,
            connect_deadline=args.connect_timeout,
        )
    except WireFormatError as error:
        print(f"error: handshake rejected: {error}", file=sys.stderr)
        return 2
    except PermissionError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except BrokenPipeError:
        # Downstream consumer (e.g. `repro stats ... | head`) closed the
        # pipe early; detach stdout so the interpreter's shutdown flush
        # does not raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "table3":
        return _cmd_table3(args)
    if args.command == "case":
        return _run_case(args.name)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "strategies":
        return _cmd_strategies(args)
    if args.command == "bugs":
        return _cmd_bugs(args)
    if args.command == "fleet-worker":
        return _cmd_fleet_worker(args)
    from repro.service import cli as service_cli

    if service_cli.handles(args.command):
        return service_cli.dispatch(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
