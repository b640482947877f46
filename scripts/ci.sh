#!/usr/bin/env bash
# The full CI pipeline, runnable offline on a bare checkout:
#
#     scripts/ci.sh [LEG]
#
# LEG selects which slice runs (GitHub Actions runs the legs as parallel
# jobs; local runs default to `all`):
#
#   lint    — step 0 only
#   tests   — steps 1-2 (tier-1 + the -O pass)
#   smokes  — steps 3-8 (CLI smoke + every kill-and-resume smoke)
#   paper   — step 9 only (the paper's evaluation benches)
#   perf    — step 10 only (the paired benchmark compare)
#   all     — steps 0-9 (the default)
#
#  0. lint       — ruff over src/tests/benchmarks/scripts.  Missing ruff
#                  is a warn-and-skip locally but a hard failure when
#                  CI=true (a lint job that silently skips linting is
#                  worse than none).
#  1. tier-1     — the normal pytest run (full assertion checking).  When
#                  pytest-cov is available the same run also enforces the
#                  coverage floor (--cov=repro --cov-fail-under=80), so
#                  coverage costs no extra suite pass; without pytest-cov
#                  the run degrades to plain pytest — warn locally,
#                  hard failure when CI=true.
#  2. tier-1 -O  — the same suite under `python -O`, which strips every
#                  `assert` statement from the *source tree*.  Pass 2
#                  exists to catch code that leans on asserts for control
#                  flow or invariant enforcement — e.g. an old
#                  `assert task_id == index` on the Stage-4 dispatch
#                  path, which under -O silently mis-seeded every task
#                  from a pre-seeded queue.  Test-module asserts are also
#                  stripped in pass 2 (pytest warns about this), so it
#                  only detects crashes/exceptions; pass 1 remains the
#                  source of truth for behavioural assertions.
#  3. smoke      — one tiny 2-worker campaign through the installed CLI
#                  (`python -m repro`; --workers 2 without --fleet runs
#                  the process fleet) with --checkpoint and --trace-out,
#                  then `repro stats` over the trace.  Artifacts land in
#                  $ARTIFACTS_DIR (default: artifacts/) for CI upload.
#  4. smoke-inc  — kill-and-resume smoke for the round-based engine
#                  (scripts/smoke_incremental.py): a 2-round checkpointed
#                  campaign is killed after round 1, resumed, and the
#                  resumed summary must be bit-identical to an
#                  uninterrupted run.
#  5. smoke-fleet — the worker fleets under fire
#                  (scripts/smoke_fleet.py): a process worker SIGKILLs
#                  itself mid-task, a socket worker does the same (its
#                  death visible only through the missed-heartbeat
#                  deadline), then a checkpointed process-fleet campaign
#                  is killed and resumed; all must land bit-identical
#                  to serial.  Two CLI campaigns then run
#                  --fleet processes --checkpoint-fsync and
#                  --fleet sockets end to end.
#  6. smoke-store — kill-and-resume for the out-of-core PMC store
#                  (scripts/smoke_store.py): a tiny campaign spilled to
#                  segment files with the hot tier forced to 1/10 of the
#                  access set is killed mid-round, then resumed from the
#                  journal and the store manifest bit-identically.
#  7. smoke-memo — kill-and-resume for the pruned + prefix-memoized
#                  trial path (scripts/smoke_trial_memo.py): a campaign
#                  with --prune-commuting and prefix forking on is
#                  checked for yield preservation against an unoptimised
#                  reference, killed mid-campaign, and resumed to a
#                  bit-identical summary.
#  8. smoke-service — SIGKILL the multi-tenant campaign daemon
#                  (scripts/smoke_service.py): two tenants' jobs are
#                  submitted over the HTTP API, the daemon is SIGKILLed
#                  mid-campaign and restarted on the same data dir, and
#                  both final summaries must be bit-identical to solo
#                  run_rounds campaigns.
#  9. paper      — the paper's evaluation suite (benchmarks/: Table 2/3,
#                  E1-E4, A1/A2, R1-R3), 19 benches and 3 plain tests,
#                  each with its shape asserts.  Timing stays on: the
#                  throughput benches read `benchmark.stats`, which
#                  --benchmark-disable leaves None.
# 10. perf       — leg `perf` only: scripts/perf_compare.py runs every
#                  BENCHMARK.json workload as five alternating pairs of
#                  the commit $PERF_BASE (default HEAD) and the working
#                  tree.  It fails a metric whose head median is worse
#                  than the base median by more than its bound and by
#                  more than the base IQR, and any incorrect run; its
#                  JSON report lands in $ARTIFACTS_DIR/perf_compare.json.
#                  Exit 2 means the benchmark itself changed between the
#                  two trees and nothing was measured.  For fewer pairs
#                  by hand, run scripts/perf_compare.py --pairs K.
set -euo pipefail
cd "$(dirname "$0")/.."

LEG="${1:-all}"
case "$LEG" in
    lint|tests|smokes|paper|perf|all) ;;
    *)
        echo "usage: scripts/ci.sh [lint|tests|smokes|paper|perf|all]" >&2
        exit 2
        ;;
esac

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
ARTIFACTS_DIR="${ARTIFACTS_DIR:-artifacts}"
mkdir -p "$ARTIFACTS_DIR"

# Warn-and-skip is for bare local checkouts only: under CI=true a
# missing dev tool fails the leg instead of silently thinning it.
missing_tool() {
    local tool="$1" hint="$2"
    if [[ "${CI:-false}" == "true" ]]; then
        echo "error: $tool not installed but CI=true ($hint)" >&2
        exit 1
    fi
    echo "warning: $tool not installed, $hint"
}

if [[ "$LEG" == "lint" || "$LEG" == "all" ]]; then
    echo "== lint: ruff check =="
    if command -v ruff >/dev/null 2>&1; then
        ruff check src tests benchmarks scripts examples
    else
        missing_tool ruff "skipping lint (pip install -e '.[dev]')"
    fi
fi

if [[ "$LEG" == "tests" || "$LEG" == "all" ]]; then
    echo "== tier-1: python -m pytest =="
    if python -c "import pytest_cov" >/dev/null 2>&1; then
        python -m pytest -x -q --cov=repro --cov-fail-under=80 --cov-report=term
    else
        missing_tool pytest-cov "running without coverage floor"
        python -m pytest -x -q
    fi

    echo "== tier-1 under -O (assert-stripped invariant check) =="
    python -O -m pytest -x -q
fi

if [[ "$LEG" == "smokes" || "$LEG" == "all" ]]; then
    echo "== smoke: 2-worker process-fleet campaign through the CLI =="
    SMOKE_TRACE="$ARTIFACTS_DIR/smoke_trace.jsonl"
    SMOKE_CHECKPOINT="$ARTIFACTS_DIR/smoke_checkpoint.jsonl"
    rm -f "$SMOKE_TRACE" "$SMOKE_CHECKPOINT"
    python -m repro campaign \
        --strategy S-INS-PAIR --budget 4 --trials 4 --seed 7 --corpus 120 \
        --workers 2 --prune-commuting \
        --checkpoint "$SMOKE_CHECKPOINT" --trace-out "$SMOKE_TRACE"
    python -m repro stats "$SMOKE_TRACE"

    echo "== smoke: round-based kill-and-resume =="
    python scripts/smoke_incremental.py "$ARTIFACTS_DIR/smoke_incremental_checkpoint.jsonl"

    echo "== smoke: worker fleets under fire =="
    python scripts/smoke_fleet.py "$ARTIFACTS_DIR/smoke_fleet_checkpoint.jsonl"
    FLEET_CHECKPOINT="$ARTIFACTS_DIR/smoke_fleet_cli_checkpoint.jsonl"
    rm -f "$FLEET_CHECKPOINT"
    python -m repro campaign \
        --strategy S-INS-PAIR --budget 4 --trials 4 --seed 7 --corpus 120 \
        --workers 2 --fleet processes \
        --checkpoint "$FLEET_CHECKPOINT" --checkpoint-fsync
    SOCKET_CHECKPOINT="$ARTIFACTS_DIR/smoke_socket_cli_checkpoint.jsonl"
    rm -f "$SOCKET_CHECKPOINT"
    python -m repro campaign \
        --strategy S-INS-PAIR --budget 4 --trials 4 --seed 7 --corpus 120 \
        --workers 2 --fleet sockets \
        --checkpoint "$SOCKET_CHECKPOINT"

    echo "== smoke: spilled PMC store kill-and-resume =="
    python scripts/smoke_store.py "$ARTIFACTS_DIR/smoke_store_work"

    echo "== smoke: pruned + memoized trial path kill-and-resume =="
    python scripts/smoke_trial_memo.py "$ARTIFACTS_DIR/smoke_trial_memo_checkpoint.jsonl"

    echo "== smoke: campaign service daemon SIGKILL + restart =="
    python scripts/smoke_service.py "$ARTIFACTS_DIR/smoke_service_data"
fi

if [[ "$LEG" == "paper" || "$LEG" == "all" ]]; then
    echo "== paper: the evaluation benches and their shape asserts =="
    python -m pytest benchmarks -q
fi

if [[ "$LEG" == "perf" ]]; then
    echo "== perf: paired benchmark compare against ${PERF_BASE:-HEAD} =="
    python scripts/perf_compare.py --base "${PERF_BASE:-HEAD}" \
        --out "$ARTIFACTS_DIR/perf_compare.json"
fi

echo "ci: leg '$LEG' green (artifacts in $ARTIFACTS_DIR/)"
