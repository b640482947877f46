"""Service verbs for the ``repro`` CLI: serve, submit, jobs, job, watch.

Registered into the main parser by :func:`register` and dispatched by
:func:`dispatch` — ``repro.cli`` stays the single entry point while the
service wiring lives next to the service code.

Every client-side verb takes ``--service TARGET`` where TARGET is the
daemon's data directory (the endpoint file inside it is resolved
automatically) or an explicit ``host:port``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.service.client import ServiceClient, ServiceClientError

_SPEC_FLAGS = (
    # (flag, JobSpec field, type, help)
    ("--rounds", "rounds", int, "campaign rounds (default 1)"),
    ("--round-budget", "round_budget", int, "concurrent tests per round"),
    ("--seed", "seed", int, "campaign seed"),
    ("--corpus", "corpus_budget", int, "initial fuzzer budget"),
    ("--trials", "trials", int, "trials per PMC"),
    ("--corpus-growth", "corpus_growth", int, "fuzz executions per round"),
    ("--strategy", "strategy", str, "clustering strategy"),
    ("--workers", "workers", int, "Stage-4 worker count"),
    ("--fleet", "fleet", str, "fleet for workers > 1: processes (default) or sockets"),
    ("--lease-timeout", "lease_timeout", float, "fleet task lease in seconds"),
    (
        "--heartbeat-interval",
        "heartbeat_interval",
        float,
        "fleet worker heartbeat period in seconds",
    ),
    (
        "--heartbeat-timeout",
        "heartbeat_timeout",
        float,
        "seconds without a heartbeat before a fleet worker is declared dead",
    ),
)


def register(sub: argparse._SubParsersAction) -> None:
    """Add the service subcommands to the main ``repro`` parser."""
    serve = sub.add_parser(
        "serve", help="run the multi-tenant campaign service daemon"
    )
    serve.add_argument(
        "--data",
        required=True,
        metavar="DIR",
        help="service data directory (registry journal, per-job state; "
        "created if missing — restarting on the same DIR resumes every "
        "job bit-identically)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 picks a free one; the bound address is "
        "written to DIR/endpoint for clients)",
    )

    submit = sub.add_parser("submit", help="submit a campaign job")
    submit.add_argument(
        "--service",
        required=True,
        metavar="TARGET",
        help="daemon data directory or host:port",
    )
    submit.add_argument("--tenant", required=True, help="tenant identifier")
    submit.add_argument(
        "--spec",
        metavar="JSON",
        default=None,
        help="full JobSpec as a JSON object (flags below override it)",
    )
    for flag, _field, kind, help_text in _SPEC_FLAGS:
        submit.add_argument(flag, type=kind, default=None, help=help_text)
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its summary",
    )

    jobs = sub.add_parser("jobs", help="list the service's jobs")
    jobs.add_argument("--service", required=True, metavar="TARGET")
    jobs.add_argument("--tenant", default=None, help="filter by tenant")

    job = sub.add_parser("job", help="inspect or steer one job")
    job.add_argument("--service", required=True, metavar="TARGET")
    job.add_argument("job_id")
    action = job.add_mutually_exclusive_group()
    action.add_argument(
        "--pause", action="store_true", help="pause at the round boundary"
    )
    action.add_argument("--resume", action="store_true")
    action.add_argument("--cancel", action="store_true")
    action.add_argument(
        "--snapshot", action="store_true", help="freeze the campaign journal"
    )
    action.add_argument(
        "--fork",
        metavar="SNAPSHOT",
        default=None,
        help="fork a new job from SNAPSHOT (use with --tenant, --rounds)",
    )
    action.add_argument(
        "--summary", action="store_true", help="print the final summary"
    )
    action.add_argument(
        "--packages", action="store_true", help="print repro packages so far"
    )
    job.add_argument("--tenant", default=None, help="tenant for --fork")
    job.add_argument(
        "--rounds", type=int, default=None, help="extended target for --fork"
    )

    watch = sub.add_parser("watch", help="stream a job's live obs trace")
    watch.add_argument("--service", required=True, metavar="TARGET")
    watch.add_argument("job_id")
    watch.add_argument(
        "--follow",
        action="store_true",
        help="keep streaming until the job is terminal (default prints "
        "what exists and exits)",
    )


def handles(command: str) -> bool:
    return command in ("serve", "submit", "jobs", "job", "watch")


def dispatch(args) -> int:
    try:
        if args.command == "serve":
            return _cmd_serve(args)
        client = ServiceClient.connect(args.service)
        if args.command == "submit":
            return _cmd_submit(client, args)
        if args.command == "jobs":
            return _cmd_jobs(client, args)
        if args.command == "job":
            return _cmd_job(client, args)
        if args.command == "watch":
            return _cmd_watch(client, args)
    except ServiceClientError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # a closed stdout pipe, not a daemon failure: main() handles it
    except ConnectionError as error:
        print(f"error: cannot reach the daemon: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled service command {args.command}")


def _cmd_serve(args) -> int:
    from repro.service.daemon import ServiceDaemon

    daemon = ServiceDaemon(args.data, host=args.host, port=args.port)
    print(f"campaign service on {daemon.endpoint} (data: {args.data})")
    daemon.run()
    return 0


def _cmd_submit(client: ServiceClient, args) -> int:
    if args.spec is not None:
        spec = json.loads(args.spec)
        if not isinstance(spec, dict):
            print("error: --spec must be a JSON object", file=sys.stderr)
            return 2
    else:
        spec = {}
    for flag, field, _kind, _help in _SPEC_FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None:
            spec[field] = value
    job = client.submit(args.tenant, spec)
    print(f"submitted {job['job_id']} (tenant {job['tenant']})")
    if not args.wait:
        return 0
    status = client.wait(job["job_id"])
    if status["state"] != "done":
        print(
            f"{job['job_id']} ended {status['state']}: "
            f"{status.get('error', '')}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(client.summary(job["job_id"]), indent=2, sort_keys=True))
    return 0


def _cmd_jobs(client: ServiceClient, args) -> int:
    jobs = client.jobs(args.tenant)
    print(f"{'JOB':<10} {'TENANT':<12} {'STATE':<10} {'ROUNDS':<12} FORKED-FROM")
    for job in jobs:
        rounds = f"{job['rounds_done']}/{job['spec']['rounds']}"
        print(
            f"{job['job_id']:<10} {job['tenant']:<12} {job['state']:<10} "
            f"{rounds:<12} {job['forked_from'] or '-'}"
        )
    return 0


def _cmd_job(client: ServiceClient, args) -> int:
    job_id = args.job_id
    if args.pause:
        out = client.pause(job_id)
    elif args.resume:
        out = client.resume(job_id)
    elif args.cancel:
        out = client.cancel(job_id)
    elif args.snapshot:
        print(client.snapshot(job_id))
        return 0
    elif args.fork is not None:
        if not args.tenant:
            print("error: --fork requires --tenant", file=sys.stderr)
            return 2
        out = client.fork(job_id, args.fork, args.tenant, rounds=args.rounds)
    elif args.summary:
        out = client.summary(job_id)
    elif args.packages:
        out = client.packages(job_id)
    else:
        out = client.status(job_id)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_watch(client: ServiceClient, args) -> int:
    if args.follow:
        for line in client.watch(args.job_id):
            print(line)
        return 0
    offset, lines = client.trace(args.job_id, 0)
    while lines:
        for line in lines:
            print(line)
        offset, lines = client.trace(args.job_id, offset)
    return 0
