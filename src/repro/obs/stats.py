"""Trace-file aggregation behind ``repro stats``.

Reads a JSONL trace (written via ``--trace-out``), keeps the last
cumulative ``metrics`` snapshot, aggregates spans by name, and shapes
the three views the CLI renders:

* the Stage-1→4 funnel table (the paper's evaluation quantities),
* the per-stage wall-time breakdown (span totals),
* trial-latency percentiles (from ``stage4.trial`` span durations).

Rendering itself lives in :mod:`repro.orchestrate.reporting` next to
the other table renderers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.sink import read_trace

Number = Union[int, float]


@dataclass
class SpanAgg:
    """All closed spans of one name, aggregated."""

    name: str
    count: int = 0
    total: float = 0.0
    max: float = 0.0
    durations: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration > self.max:
            self.max = duration
        self.durations.append(duration)


@dataclass
class TraceStats:
    """Everything ``repro stats`` needs, distilled from one trace file."""

    header: Dict
    counters: Dict[str, Number] = field(default_factory=dict)
    gauges: Dict[str, Number] = field(default_factory=dict)
    histograms: Dict[str, Dict] = field(default_factory=dict)
    spans: Dict[str, SpanAgg] = field(default_factory=dict)
    nevents: int = 0
    wall: float = 0.0  # observed span extent (max t0+dur − min t0)


def aggregate_trace(header: Dict, events: List[Dict]) -> TraceStats:
    """Fold raw trace records into :class:`TraceStats`."""
    stats = TraceStats(header=header)
    t_min: Optional[float] = None
    t_max = 0.0
    for record in events:
        kind = record.get("kind")
        if kind == "span":
            name = record.get("name", "?")
            agg = stats.spans.get(name)
            if agg is None:
                agg = stats.spans[name] = SpanAgg(name)
            dur = float(record.get("dur", 0.0))
            agg.add(dur)
            t0 = float(record.get("t0", 0.0))
            t_min = t0 if t_min is None or t0 < t_min else t_min
            t_max = max(t_max, t0 + dur)
        elif kind == "metrics":
            # Snapshots are cumulative; the last one wins.
            stats.counters = dict(record.get("counters", {}))
            stats.gauges = dict(record.get("gauges", {}))
            stats.histograms = dict(record.get("histograms", {}))
        elif kind == "event":
            stats.nevents += 1
    if t_min is not None:
        stats.wall = max(0.0, t_max - t_min)
    return stats


def load_stats(path: str) -> TraceStats:
    """Read and aggregate one trace file."""
    header, events = read_trace(path)
    return aggregate_trace(header, events)


# -- the funnel table ----------------------------------------------------------

#: (stage label, metric label, counter/gauge name) in funnel order.  A
#: row whose name is missing from the trace renders as "-" — older or
#: partial traces stay readable.
FUNNEL_LAYOUT: Tuple[Tuple[str, str, str], ...] = (
    ("1 profiling", "corpus tests kept", "stage1.corpus_tests"),
    ("1 profiling", "tests profiled", "stage1.profiles"),
    ("1 profiling", "instructions profiled", "stage1.instructions"),
    ("2 PMC identification", "overlaps scanned", "stage2.overlaps"),
    ("2 PMC identification", "PMCs identified", "stage2.pmcs"),
    ("2 PMC identification", "(writer, reader) pairs", "stage2.pairs"),
    ("2 PMC identification", "store hot-tier hits", "store.hot_hits"),
    ("2 PMC identification", "store cold probes", "store.cold_probes"),
    ("2 PMC identification", "store bucket evictions", "store.evictions"),
    ("3 selection", "PMCs filtered out", "stage3.filtered"),
    ("3 selection", "clusters kept", "stage3.clusters"),
    ("3 selection", "duplicate exemplars skipped", "stage3.duplicates"),
    ("3 selection", "clusters tested in earlier rounds", "stage3.tested_before"),
    ("3 selection", "tests generated", "stage3.tests"),
    ("4 execution", "tests executed", "stage4.tests"),
    ("4 execution", "trials executed", "stage4.trials"),
    ("4 execution", "distinct schedules", "stage4.schedules"),
    ("4 execution", "instructions executed", "stage4.instructions"),
    ("4 execution", "PMC channels exercised", "stage4.exercised"),
    ("4 execution", "races flagged", "stage4.races"),
    ("4 execution", "distinct observations", "stage4.observations"),
    ("4 execution", "catalogued bugs", "stage4.bugs"),
    ("4 execution", "snapshot pages restored", "restore.pages"),
    ("4 execution", "recorded schedules served", "stage4.schedule_hits"),
    ("4 execution", "prefix fork hits", "stage4.prefix_fork_hits"),
    ("4 execution", "commuting trials pruned", "stage4.trials_pruned"),
    ("4 execution", "task failures", "fleet.task_failures"),
    ("4 execution", "task retries", "fleet.task_retries"),
    ("4 execution", "worker respawns", "fleet.worker_respawns"),
)


def funnel_rows(stats: TraceStats) -> List[List[str]]:
    """Rows for the Stage-1→4 funnel table."""
    rows: List[List[str]] = []
    for stage, label, name in FUNNEL_LAYOUT:
        value = stats.counters.get(name, stats.gauges.get(name))
        rows.append([stage, label, "-" if value is None else f"{value:,}"])
    return rows


#: Funnel rows that depend on executor history rather than the campaign
#: definition: dirty-page restore counts differ between a serial run
#: (one warm executor) and a fleet (each worker's first restore copies
#: the full snapshot) — the same reason ``restore_seconds`` is kept out
#: of ``CampaignResult.summary()``.  The PMC-store tier counters are the
#: same class of fact: hot hits, cold probes and evictions describe the
#: cache configuration, not the campaign, and a spilled run must compare
#: equal to an in-memory one.  Schedule hits, prefix-fork hits and
#: pruned-trial credits are likewise execution-strategy facts: a memo-off
#: run serves nothing from recordings, and ``--prune-commuting``
#: deliberately runs fewer trials — neither may break funnel
#: equivalence.  Displayed, but not compared.
HISTORY_DEPENDENT = frozenset(
    {
        "restore.pages",
        "store.hot_hits",
        "store.cold_probes",
        "store.evictions",
        "stage4.schedule_hits",
        "stage4.prefix_fork_hits",
        "stage4.trials_pruned",
    }
)


def funnel_totals(stats: TraceStats) -> Dict[str, Number]:
    """The funnel counters/gauges keyed by name (equivalence checks).

    History-dependent quantities (:data:`HISTORY_DEPENDENT`) are left
    out: serial and parallel campaigns of the same seed must agree on
    every returned value."""
    totals: Dict[str, Number] = {}
    for _stage, _label, name in FUNNEL_LAYOUT:
        if name in HISTORY_DEPENDENT:
            continue
        value = stats.counters.get(name, stats.gauges.get(name))
        if value is not None:
            totals[name] = value
    return totals


# -- the PMC-store tier table --------------------------------------------------

def store_tiers(stats: TraceStats) -> Optional[Dict[str, Number]]:
    """Hot/cold tier traffic of the out-of-core PMC store.

    ``None`` for in-memory traces (no ``store.*`` counters); otherwise
    the probe counts, the hot-tier hit rate, and the eviction count.
    """
    hot = stats.counters.get("store.hot_hits")
    cold = stats.counters.get("store.cold_probes")
    evictions = stats.counters.get("store.evictions")
    if hot is None and cold is None and evictions is None:
        return None
    hot = hot or 0
    cold = cold or 0
    probes = hot + cold
    return {
        "hot_hits": hot,
        "cold_probes": cold,
        "probes": probes,
        "hot_rate": (hot / probes) if probes else 0.0,
        "evictions": evictions or 0,
    }


# -- the per-round funnel ------------------------------------------------------

#: ``round.N.<metric>`` counter names emitted by ``run_rounds``.
_ROUND_COUNTER = re.compile(r"^round\.(\d+)\.([a-z_]+)$")

#: Per-round metrics in display order (column label, counter suffix).
ROUND_METRICS: Tuple[Tuple[str, str], ...] = (
    ("tests", "tests"),
    ("trials", "trials"),
    ("new corpus", "corpus_tests"),
    ("new profiles", "profiles"),
    ("new PMCs", "new_pmcs"),
    ("new bugs", "bugs"),
)


def round_counters(stats: TraceStats) -> Dict[int, Dict[str, Number]]:
    """Per-round funnel deltas, keyed by round number.

    Empty for batch traces — the presence of ``round.N.*`` counters is
    what makes a trace round-based."""
    rounds: Dict[int, Dict[str, Number]] = {}
    for name, value in stats.counters.items():
        match = _ROUND_COUNTER.match(name)
        if match is not None:
            rounds.setdefault(int(match.group(1)), {})[match.group(2)] = value
    return rounds


def round_rows(stats: TraceStats) -> List[List[str]]:
    """Rows for the per-round funnel table (empty for batch traces)."""
    rounds = round_counters(stats)
    rows: List[List[str]] = []
    for number in sorted(rounds):
        data = rounds[number]
        row = [str(number)]
        for _label, suffix in ROUND_METRICS:
            value = data.get(suffix)
            row.append("-" if value is None else f"{value:,}")
        rows.append(row)
    return rows


# -- the per-worker fleet table ------------------------------------------------

#: ``fleet.wN.<metric>`` counter names emitted at campaign finish.
_FLEET_WORKER_COUNTER = re.compile(
    r"^fleet\.w(\d+)\.(tasks|retries|respawns|missed_heartbeats)$"
)

#: Per-worker metrics in display order (column label, counter suffix).
FLEET_WORKER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("tasks", "tasks"),
    ("retries", "retries"),
    ("respawns", "respawns"),
    ("missed heartbeats", "missed_heartbeats"),
)


def fleet_worker_counters(stats: TraceStats) -> Dict[int, Dict[str, Number]]:
    """Per-worker fleet health, keyed by worker id.

    Empty for serial traces — only campaigns that ran a worker fleet
    emit ``fleet.wN.*`` counters."""
    workers: Dict[int, Dict[str, Number]] = {}
    for name, value in stats.counters.items():
        match = _FLEET_WORKER_COUNTER.match(name)
        if match is not None:
            workers.setdefault(int(match.group(1)), {})[match.group(2)] = value
    return workers


def fleet_worker_rows(stats: TraceStats) -> List[List[str]]:
    """Rows for the per-worker fleet table (empty for serial traces)."""
    workers = fleet_worker_counters(stats)
    rows: List[List[str]] = []
    for worker_id in sorted(workers):
        data = workers[worker_id]
        row = [f"w{worker_id}"]
        for _label, suffix in FLEET_WORKER_METRICS:
            value = data.get(suffix)
            row.append("-" if value is None else f"{value:,}")
        rows.append(row)
    return rows


# -- the per-stage time breakdown ----------------------------------------------

def stage_time_rows(stats: TraceStats) -> List[List[str]]:
    """Per-span-name wall-time rows, largest total first.

    Share is relative to the observed trace extent; nested spans
    (``stage4.trial`` inside ``stage4.test``, ``snapshot.restore``
    inside both) overlap their parents, so shares do not sum to 100%.
    """
    rows: List[List[str]] = []
    for agg in sorted(stats.spans.values(), key=lambda a: -a.total):
        share = agg.total / stats.wall if stats.wall > 0 else 0.0
        rows.append(
            [
                agg.name,
                str(agg.count),
                f"{agg.total:.3f}",
                f"{agg.mean * 1e3:.2f}",
                f"{agg.max * 1e3:.2f}",
                f"{share:.1%}",
            ]
        )
    return rows


# -- trial latency -------------------------------------------------------------

def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 on empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def trial_latency(stats: TraceStats) -> Dict[str, float]:
    """p50/p95/mean/max trial latency in milliseconds, plus the count."""
    agg = stats.spans.get("stage4.trial")
    durations = agg.durations if agg is not None else []
    return {
        "count": len(durations),
        "p50_ms": percentile(durations, 50) * 1e3,
        "p95_ms": percentile(durations, 95) * 1e3,
        "mean_ms": (sum(durations) / len(durations) * 1e3) if durations else 0.0,
        "max_ms": max(durations) * 1e3 if durations else 0.0,
    }


def stats_to_obj(stats: TraceStats) -> Dict:
    """The machine-readable shape of the report (``repro stats --json``).

    Everything the rendered tables show, as raw numbers: the funnel (by
    counter name), the per-round deltas when the trace is round-based,
    per-span wall times, and the trial-latency percentiles.
    """
    funnel: Dict[str, Number] = {}
    for _stage, _label, name in FUNNEL_LAYOUT:
        value = stats.counters.get(name, stats.gauges.get(name))
        if value is not None:
            funnel[name] = value
    rounds = round_counters(stats)
    workers = fleet_worker_counters(stats)
    return {
        "header": dict(stats.header),
        "funnel": funnel,
        "store_tiers": store_tiers(stats),
        "rounds": [{"round": n, **rounds[n]} for n in sorted(rounds)],
        "fleet_workers": [{"worker": n, **workers[n]} for n in sorted(workers)],
        "stage_times": [
            {
                "name": agg.name,
                "count": agg.count,
                "total_s": agg.total,
                "mean_ms": agg.mean * 1e3,
                "max_ms": agg.max * 1e3,
            }
            for agg in sorted(stats.spans.values(), key=lambda a: -a.total)
        ],
        "trial_latency": trial_latency(stats),
        "counters": dict(stats.counters),
        "gauges": dict(stats.gauges),
        "events": stats.nevents,
        "wall_seconds": stats.wall,
    }


def render_stats(stats: TraceStats, markdown: bool = False) -> str:
    """The full ``repro stats`` report: funnel, stage times, latency —
    plus the per-round funnel when the trace came from ``run_rounds``."""
    from repro.orchestrate.reporting import (
        render_fleet_workers,
        render_funnel,
        render_rounds,
        render_stage_times,
        render_store_tiers,
        render_trial_latency,
    )

    header = stats.header
    described = ", ".join(
        f"{key}={header[key]}"
        for key in ("strategy", "seed", "budget", "trials", "workers", "rounds")
        if key in header
    )
    parts = []
    if described:
        parts.append(f"campaign: {described}")
    parts.append("== Stage 1 -> 4 funnel ==")
    parts.append(render_funnel(funnel_rows(stats), markdown=markdown))
    tiers = store_tiers(stats)
    if tiers is not None:
        parts.append("")
        parts.append("== PMC store tiers ==")
        parts.append(render_store_tiers(tiers, markdown=markdown))
    rounds = round_rows(stats)
    if rounds:
        parts.append("")
        parts.append("== Per-round funnel ==")
        parts.append(render_rounds(rounds, markdown=markdown))
    workers = fleet_worker_rows(stats)
    if workers:
        parts.append("")
        parts.append("== Fleet workers ==")
        parts.append(render_fleet_workers(workers, markdown=markdown))
    parts.append("")
    parts.append("== Per-stage wall time ==")
    parts.append(render_stage_times(stage_time_rows(stats), markdown=markdown))
    parts.append("")
    parts.append("== Trial latency ==")
    parts.append(render_trial_latency(trial_latency(stats), markdown=markdown))
    return "\n".join(parts)
