"""Table and figure formatting for the reproduction reports."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.eval.campaign import CampaignResult, FEATURE_PRIORITY
from repro.uarch.bugs import bug_by_id
from repro.uarch.versions import ALL_VERSIONS


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render dict rows as a fixed-width text table."""
    header = list(columns)
    rendered = [header] + [
        [str(row.get(column, "")) for column in columns] for row in rows
    ]
    widths = [
        max(len(line[index]) for line in rendered) for index in range(len(header))
    ]
    lines = []
    for line_index, line in enumerate(rendered):
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths))
        )
        if line_index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def design_inventory() -> List[Dict[str, object]]:
    """Fig. 1: the design families and versions analysed in the study."""
    rows: List[Dict[str, object]] = []
    for version in ALL_VERSIONS:
        rows.append(
            {
                "version": version.name,
                "rom_interface": version.rom_interface,
                "extension": "SATADD" if version.with_extension else "-",
                "bugs_present": ", ".join(sorted(version.bugs)) or "-",
                "change": version.change_note,
            }
        )
    return rows


def detection_breakdown(campaign: CampaignResult) -> Dict[str, object]:
    """Figs. 8, 9 and 10 computed from a campaign run."""
    records = campaign.records
    total = len(records)
    qed_detected = [r for r in records if r.detected_by_symbolic_qed]
    industrial_detected = [r for r in records if r.detected_by_industrial_flow]
    crs_detected = [r for r in records if r.crs_detected]
    ocsfv_detected = [r for r in records if r.ocsfv_detected]
    dst_detected = [r for r in records if r.dst_detected]

    feature_counts: Dict[str, int] = {feature: 0 for feature in FEATURE_PRIORITY}
    for record in qed_detected:
        feature = record.attributed_feature
        if feature is not None:
            feature_counts[feature] += 1

    qed_only = [
        r.bug_id for r in records
        if r.detected_by_symbolic_qed and not r.detected_by_industrial_flow
    ]
    industrial_total = len(industrial_detected)
    return {
        "total_bugs": total,
        "symbolic_qed_detected": len(qed_detected),
        "industrial_flow_detected": industrial_total,
        "crs_detected": len(crs_detected),
        "ocsfv_detected": len(ocsfv_detected),
        "dst_detected": len(dst_detected),
        "qed_vs_industrial_percent": (
            100.0 * len(qed_detected) / industrial_total if industrial_total else 0.0
        ),
        "qed_unique_bugs": qed_only,
        "qed_unique_percent": (
            100.0 * len(qed_only) / industrial_total if industrial_total else 0.0
        ),
        "feature_breakdown_counts": feature_counts,
        "feature_breakdown_percent": {
            feature: (100.0 * count / total if total else 0.0)
            for feature, count in feature_counts.items()
        },
        "spec_bugs": [
            r.bug_id for r in records if bug_by_id(r.bug_id).kind == "spec"
        ],
    }


def runtime_statistics(values: Iterable[float]) -> Optional[Dict[str, float]]:
    """[min, avg, max] statistics in the format of Tables 2 and 3."""
    data = [v for v in values]
    if not data:
        return None
    return {
        "min": min(data),
        "avg": sum(data) / len(data),
        "max": max(data),
    }


def solver_reuse_statistics(campaign: CampaignResult) -> Dict[str, object]:
    """Aggregate SAT-solver work of the campaign's Symbolic QED runs.

    Complements the Table 2 runtimes with the incremental-engine counters:
    total conflicts, clauses learned, and how many learned clauses later
    bounds inherited from earlier ones (non-zero only when the incremental
    reuse actually kicks in, i.e. for multi-bound schedules).

    The ``throughput`` section reports the flat-arena propagation core's
    speed: total unit propagations, the wall-clock spent *inside* the
    solver (excluding encoding and preprocessing), and their ratio --
    the same propagations-per-second number ``scripts/bench_bmc.py``
    records and CI gates against a regression floor.
    """
    propagations = sum(r.qed_solver_propagations for r in campaign.records)
    solve_seconds = sum(r.qed_solve_seconds for r in campaign.records)
    return {
        "conflicts": sum(r.qed_solver_conflicts for r in campaign.records),
        "learned_clauses": sum(r.qed_learned_clauses for r in campaign.records),
        "learned_clauses_reused": sum(
            r.qed_learned_clauses_reused for r in campaign.records
        ),
        "throughput": {
            "propagations": propagations,
            "solve_seconds": solve_seconds,
            "propagations_per_second": (
                propagations / solve_seconds if solve_seconds > 0 else 0.0
            ),
        },
    }


def formula_reduction_statistics(campaign: CampaignResult) -> Dict[str, float]:
    """Aggregate formula-reduction work of the campaign's Symbolic QED runs.

    Complements :func:`solver_reuse_statistics` with the preprocessing
    pipeline's counters: how many CNF variables bounded variable elimination
    removed, how many clauses subsumption dropped, and the wall-clock spent
    inside preprocessing.  All three are zero when the campaign ran with
    preprocessing disabled.
    """
    return {
        "variables_eliminated": sum(
            r.qed_variables_eliminated for r in campaign.records
        ),
        "clauses_subsumed": sum(
            r.qed_clauses_subsumed for r in campaign.records
        ),
        "preprocess_seconds": sum(
            r.qed_preprocess_seconds for r in campaign.records
        ),
    }


def serving_statistics(stats: Dict[str, object]) -> Dict[str, object]:
    """Summarise a serving-layer ``GET /stats`` payload.

    Complements :func:`distributed_proof_statistics` with the
    verification-as-a-service counters (see :mod:`repro.serve`): how many
    jobs the service answered, what fraction came straight from the
    content-addressed result cache, how many concurrent identical
    submissions were coalesced into one solve, and the mean time a job
    waited in the queue before a worker picked it up.

    Accepts either the full ``/stats`` payload (``{"queue": ..., "cache":
    ...}``) or a bare :meth:`repro.serve.queue.JobQueue.stats_dict`; it is
    a pure dict transform so report generation never imports (or requires)
    the serving stack.
    """
    queue = stats.get("queue", stats)
    cache = stats.get("cache") or {}
    submitted = int(queue.get("jobs_submitted", 0))
    cache_hits = int(queue.get("cache_hits", 0))
    latency_jobs = int(queue.get("queue_latency_jobs", 0))
    return {
        "jobs_submitted": submitted,
        "jobs_executed": int(queue.get("executed", 0)),
        "jobs_failed": int(queue.get("failed", 0)),
        "jobs_cancelled": int(queue.get("cancelled", 0)),
        "cache_hits": cache_hits,
        "cache_hit_rate": (cache_hits / submitted) if submitted else 0.0,
        "dedup_coalesced": int(queue.get("coalesced", 0)),
        "cache_entries": int(cache.get("entries", 0)),
        "cache_upgrades": int(cache.get("upgrades", 0)),
        "mean_queue_latency_seconds": (
            float(queue.get("queue_latency_seconds_total", 0.0)) / latency_jobs
            if latency_jobs
            else 0.0
        ),
    }


def distributed_proof_statistics(campaign: CampaignResult) -> Dict[str, int]:
    """Aggregate cube-and-conquer work of the campaign's Symbolic QED runs.

    Complements :func:`formula_reduction_statistics` with the distributed
    proof engine's counters (see :mod:`repro.dist`): how many cubes the
    schedulers answered and how many dynamic re-splits the per-cube conflict
    budgets triggered.  Both are zero when the campaign ran with sequential
    queries (``CampaignConfig.split is None``).
    """
    return {
        "cubes_solved": sum(r.qed_cubes_solved for r in campaign.records),
        "cubes_resplit": sum(r.qed_cubes_resplit for r in campaign.records),
    }
