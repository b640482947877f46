"""Rendered reports: the paper's tables as text/markdown.

Turns campaign results into the shapes a reader of the paper expects —
a Table 2-style bug inventory and a Table 3-style strategy comparison —
in plain text (for terminals and benches) or markdown (for docs).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.detect.catalog import BUG_CATALOG
from repro.orchestrate.results import CampaignResult


def render_table2(
    found: Mapping[str, Tuple[str, int]],
    markdown: bool = False,
) -> str:
    """Render a Table 2-style inventory.

    ``found`` maps bug id -> (method that found it, tests executed when
    first found).  Bugs in the catalog but not in ``found`` are listed as
    missing, mirroring how the paper tracks unconfirmed reports.
    """
    header = ["ID", "Paper#", "Type", "Triage", "Subsystem", "Found by", "@test", "Summary"]
    rows: List[List[str]] = []
    for spec in BUG_CATALOG:
        if spec.id in found:
            method, at = found[spec.id]
            found_by, at_text = method, str(at)
        else:
            found_by, at_text = "-", "-"
        rows.append(
            [
                spec.id,
                f"#{spec.paper_id}",
                spec.bug_type,
                spec.triage.value,
                spec.subsystem,
                found_by,
                at_text,
                spec.summary,
            ]
        )
    return _render(header, rows, markdown)


def render_table3(
    campaigns: Sequence[CampaignResult],
    markdown: bool = False,
) -> str:
    """Render a Table 3-style strategy comparison."""
    header = ["Method", "Exemplar PMCs", "Tested", "Trials", "Accuracy", "Issues found (@tests)"]
    rows = []
    for campaign in campaigns:
        bugs = campaign.bugs_found()
        issues = ", ".join(f"{b} (@{at})" for b, at in sorted(bugs.items())) or "-"
        rows.append(
            [
                campaign.strategy,
                str(campaign.exemplar_pmcs) if campaign.exemplar_pmcs else "NA",
                str(campaign.tested_pmcs),
                str(campaign.trials),
                f"{campaign.accuracy:.0%}" if campaign.tested_pmcs else "-",
                issues,
            ]
        )
    return _render(header, rows, markdown)


def render_throughput(
    campaigns: Sequence[CampaignResult],
    markdown: bool = False,
) -> str:
    """Render a §5.4-style execution-throughput comparison.

    The simulator-relative analogue of the paper's executions/minute
    table (193.8/min for Snowboard): per campaign, wall-clock trial
    throughput, mean snapshot pages copied back per trial (the reset
    cost dirty-page tracking shrinks), the fraction of wall time spent
    restoring, and the fleet health counters (task failures, task
    retries, worker respawns).
    """
    header = [
        "Method", "Workers", "Trials", "Exec/min", "Pages/trial", "Restore",
        "Failures", "Retries", "Respawns",
    ]
    rows = []
    for campaign in campaigns:
        rows.append(
            [
                campaign.strategy,
                str(campaign.workers),
                str(campaign.trials),
                f"{campaign.executions_per_minute:.0f}",
                f"{campaign.pages_per_trial:.1f}",
                f"{campaign.restore_fraction:.1%}",
                str(campaign.task_failures),
                str(campaign.task_retries),
                str(campaign.worker_respawns),
            ]
        )
    return _render(header, rows, markdown)


def render_funnel(rows: Sequence[List[str]], markdown: bool = False) -> str:
    """Render the Stage-1→4 funnel table of ``repro stats``.

    ``rows`` come from :func:`repro.obs.stats.funnel_rows`: (stage,
    metric, value) triples in funnel order.
    """
    return _render(["Stage", "Metric", "Value"], list(rows), markdown)


def render_rounds(rows: Sequence[List[str]], markdown: bool = False) -> str:
    """Render the per-round funnel of a round-based campaign trace.

    ``rows`` come from :func:`repro.obs.stats.round_rows`: one row per
    round with that round's deltas (tests, trials, corpus growth, new
    profiles, new PMCs, new bugs).
    """
    header = [
        "Round", "Tests", "Trials", "New corpus", "New profiles",
        "New PMCs", "New bugs",
    ]
    return _render(header, list(rows), markdown)


def render_fleet_workers(
    rows: Sequence[List[str]], markdown: bool = False
) -> str:
    """Render the per-worker fleet health table of a parallel campaign.

    ``rows`` come from :func:`repro.obs.stats.fleet_worker_rows`: one
    row per worker id with tasks completed, retries charged, respawns,
    and heartbeat deadlines missed (summed across rounds when the trace
    is round-based).
    """
    header = ["Worker", "Tasks", "Retries", "Respawns", "Missed heartbeats"]
    return _render(header, list(rows), markdown)


def render_store_tiers(
    tiers: Mapping[str, float], markdown: bool = False
) -> str:
    """Render the hot/cold tier traffic of the out-of-core PMC store.

    ``tiers`` comes from :func:`repro.obs.stats.store_tiers`: bucket
    probes served from the in-memory hot tier vs reconstructed from
    segment files, the resulting hot-tier hit rate, how many buckets
    were evicted to disk, and how many cold buckets were rebuilt from
    their segments (the tier's real cost).
    """
    header = ["Hot hits", "Cold probes", "Hot rate", "Evictions", "Rebuilds"]
    rows = [
        [
            f"{int(tiers.get('hot_hits', 0)):,}",
            f"{int(tiers.get('cold_probes', 0)):,}",
            f"{tiers.get('hot_rate', 0.0):.1%}",
            f"{int(tiers.get('evictions', 0)):,}",
            f"{int(tiers.get('rebuilds', 0)):,}",
        ]
    ]
    return _render(header, rows, markdown)


def render_stage_times(rows: Sequence[List[str]], markdown: bool = False) -> str:
    """Render the per-span wall-time breakdown of ``repro stats``."""
    header = ["Span", "Count", "Total s", "Mean ms", "Max ms", "Share"]
    return _render(header, list(rows), markdown)


def render_trial_latency(
    latency: Mapping[str, float], markdown: bool = False
) -> str:
    """Render the trial-latency percentile row of ``repro stats``."""
    header = ["Trials", "p50 ms", "p95 ms", "Mean ms", "Max ms"]
    rows = [
        [
            str(int(latency.get("count", 0))),
            f"{latency.get('p50_ms', 0.0):.2f}",
            f"{latency.get('p95_ms', 0.0):.2f}",
            f"{latency.get('mean_ms', 0.0):.2f}",
            f"{latency.get('max_ms', 0.0):.2f}",
        ]
    ]
    return _render(header, rows, markdown)


def merge_found(
    campaigns: Iterable[CampaignResult],
) -> Dict[str, Tuple[str, int]]:
    """Merge campaigns into the first-finder map render_table2 expects."""
    found: Dict[str, Tuple[str, int]] = {}
    for campaign in campaigns:
        for bug_id, at in campaign.bugs_found().items():
            if bug_id not in found or at < found[bug_id][1]:
                found[bug_id] = (campaign.strategy, at)
    return found


def _render(header: List[str], rows: List[List[str]], markdown: bool) -> str:
    if markdown:
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines)

    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header)]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt.format(*row))
    return "\n".join(lines)
