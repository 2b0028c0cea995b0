"""Live terminal dashboard for the QED verification service.

Stdlib-only: polls a running ``scripts/serve_qed.py serve`` instance over
plain HTTP -- ``GET /stats`` for queue counters, ``GET /metrics`` (parsed
with :func:`repro.obs.parse_prometheus`) for cache hit/miss, ``GET /jobs``
to discover work, and ``GET /jobs/<id>/telemetry`` for each job's solver
heartbeats -- then renders one frame per ``--interval``: queue depth,
cache hit rate, per-job search progress (current bound, conflicts,
propagations/s) with a per-bound ETA extrapolated from the bound-cost
growth curve, and the ``BENCH_history.jsonl`` pps trajectory as a
sparkline so a perf trend is visible next to the live numbers.

Usage::

    PYTHONPATH=src python scripts/serve_qed.py serve --port 8123 &
    PYTHONPATH=src python scripts/dashboard_qed.py --server 127.0.0.1:8123
    PYTHONPATH=src python scripts/dashboard_qed.py --server 127.0.0.1:8123 \\
        --once                          # one frame, exit 0 (the CI smoke)
    PYTHONPATH=src python scripts/dashboard_qed.py --job <id> --interval 1

``--once`` renders a single frame and exits 0 (1 when the server is
unreachable), which is how CI smoke-tests the dashboard against the
serve-smoke server.  Without ``--job`` the dashboard follows every job
the server reports via ``GET /jobs``; ``--history ''`` disables the
bench-trajectory panel.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from repro.obs import parse_prometheus

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_HISTORY = os.path.join(REPO_ROOT, "BENCH_history.jsonl")

#: Unicode sparkline ramp (history trajectory panel).
_SPARK = "▁▂▃▄▅▆▇█"
#: History entries rendered in the trajectory panel.
HISTORY_POINTS = 16
#: Job rows rendered per frame (newest first beyond this are dropped).
MAX_JOB_ROWS = 8
#: Per-bound growth ratio clamp for the ETA extrapolation: BMC bound
#: costs grow, but a single noisy ratio must not explode the estimate.
ETA_RATIO_MIN = 1.0
ETA_RATIO_MAX = 6.0


# ----------------------------------------------------------------------
def _get(base: str, path: str, timeout: float) -> Optional[object]:
    """GET ``http://<base><path>`` as parsed JSON (text for /metrics).

    Returns ``None`` on any transport or HTTP error -- a panel that
    cannot be fetched renders as unavailable instead of killing the
    dashboard loop.
    """
    url = f"http://{base}{path}"
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError, ValueError):
        return None
    if path == "/metrics":
        return body
    try:
        return json.loads(body)
    except ValueError:
        return None


def _spark(values: List[float]) -> str:
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[3] * len(values)
    span = hi - lo
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * len(_SPARK)))]
        for v in values
    )


def _fmt_count(value: float) -> str:
    """1234567 -> ``1.23M`` (terminal columns are precious)."""
    for divisor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= divisor:
            return f"{value / divisor:.2f}{suffix}"
    return f"{value:.0f}"


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


# ----------------------------------------------------------------------
def eta_from_bound_curve(
    bound_costs: List[Tuple[int, float]], max_bound: int
) -> Optional[float]:
    """Extrapolate remaining solve time from completed per-bound costs.

    BMC bound costs grow roughly geometrically (each unrolled frame deepens
    every query), so the curve is fit as ``cost[k+1] = r * cost[k]`` with
    ``r`` the geometric mean of the observed consecutive ratios (clamped to
    ``[ETA_RATIO_MIN, ETA_RATIO_MAX]``), and the remaining bounds summed
    under that ratio.  Needs at least two completed bounds with positive
    cost; returns ``None`` otherwise (or when already at ``max_bound``).
    """
    costs = [(bound, cost) for bound, cost in bound_costs if cost > 0.0]
    if len(costs) < 2:
        return None
    last_bound, last_cost = costs[-1]
    remaining = max_bound - last_bound
    if remaining <= 0:
        return None
    log_ratios = []
    for (_, prev), (_, cur) in zip(costs, costs[1:]):
        log_ratios.append(math.log(cur / prev))
    ratio = math.exp(sum(log_ratios) / len(log_ratios))
    ratio = min(ETA_RATIO_MAX, max(ETA_RATIO_MIN, ratio))
    return sum(last_cost * ratio ** step for step in range(1, remaining + 1))


def _job_row(base: str, summary: Dict[str, object], timeout: float) -> str:
    job_id = str(summary.get("job_id"))
    state = str(summary.get("state"))
    label = (
        f"{summary.get('version')}/{summary.get('bug_id')}"
        f" b{summary.get('bound')}"
    )
    row = f"  {job_id:<12} {state:<9} {label:<32}"
    if summary.get("cache_hit"):
        return row + " cache hit"
    telemetry = _get(base, f"/jobs/{job_id}/telemetry", timeout)
    heartbeats: List[Dict[str, object]] = []
    if isinstance(telemetry, dict):
        payload = telemetry.get("telemetry")
        if isinstance(payload, dict):
            heartbeats = [
                hb for hb in payload.get("heartbeats", [])
                if isinstance(hb, dict)
            ]
    if not heartbeats:
        return row + " (no heartbeats yet)"
    latest = heartbeats[-1]
    bounds = [
        (int(hb.get("bound", 0)), float(hb.get("bound_seconds", 0.0)))
        for hb in heartbeats
        if hb.get("site") == "bound"
    ]
    parts = []
    if bounds:
        parts.append(f"bound {bounds[-1][0]}/{summary.get('bound')}")
    elif "bound" in latest:
        parts.append(f"bound {latest['bound']}/{summary.get('bound')}")
    # Heartbeats may interleave several solver processes / queries; the
    # max conflict count is the deepest search any of them reported.
    conflicts = max(float(hb.get("conflicts", 0) or 0) for hb in heartbeats)
    parts.append(f"conf {_fmt_count(conflicts)}")
    pps = 0.0
    for hb in reversed(heartbeats):
        pps = float(hb.get("pps", 0.0) or 0.0)
        if pps > 0.0:
            break
    if pps > 0.0:
        parts.append(f"pps {_fmt_count(pps)}")
    if state == "running":
        eta = eta_from_bound_curve(bounds, int(summary.get("bound", 0)))
        if eta is not None:
            parts.append(f"eta ~{_fmt_seconds(eta)}")
    return row + " " + "  ".join(parts)


# ----------------------------------------------------------------------
def _history_panel(path: str) -> List[str]:
    """Render the ``BENCH_history.jsonl`` pps trajectory per run name."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            raw_lines = stream.readlines()
    except OSError:
        return []
    entries = []
    for raw in raw_lines:
        raw = raw.strip()
        if not raw:
            continue
        try:
            entry = json.loads(raw)
        except ValueError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    entries = entries[-HISTORY_POINTS:]
    if not entries:
        return []
    series: Dict[str, List[float]] = {}
    for entry in entries:
        runs = entry.get("runs")
        if not isinstance(runs, dict):
            continue
        for name, run in runs.items():
            if not isinstance(run, dict):
                continue
            pps = float(run.get("propagations_per_second", 0.0) or 0.0)
            if pps > 0.0:
                series.setdefault(name, []).append(pps)
    lines = [
        f"bench history ({os.path.basename(path)}, last "
        f"{len(entries)} entries, commit "
        f"{entries[-1].get('commit', 'unknown')}):"
    ]
    for name in sorted(series):
        points = series[name]
        if len(points) < 2:
            continue
        trend = points[-1] / points[0]
        lines.append(
            f"  {name:<40} {_spark(points)}  "
            f"pps {_fmt_count(points[-1])} ({trend:.2f}x of oldest)"
        )
    return lines if len(lines) > 1 else []


# ----------------------------------------------------------------------
def render_frame(
    base: str,
    *,
    job_ids: List[str],
    history_path: str,
    timeout: float,
) -> Tuple[List[str], bool]:
    """One dashboard frame; ``(lines, server_reachable)``."""
    lines = [
        f"QED serve dashboard -- http://{base}    "
        + time.strftime("%Y-%m-%d %H:%M:%S")
    ]
    payload = _get(base, "/stats", timeout)
    if not isinstance(payload, dict):
        lines.append(f"  server http://{base} unreachable")
        return lines, False
    # /stats nests the queue counters under "queue" (plus "cache"/"http").
    stats = payload.get("queue")
    if not isinstance(stats, dict):
        stats = payload
    submitted = int(stats.get("jobs_submitted", 0))
    hits = int(stats.get("cache_hits", 0))
    hit_rate = (100.0 * hits / submitted) if submitted else 0.0
    solver = "solver process" if stats.get("use_processes") else "thread"
    lines.append(
        f"queue     : {stats.get('queued', 0)} queued / "
        f"{stats.get('running', 0)} running / "
        f"{stats.get('jobs_tracked', 0)} tracked   "
        f"{stats.get('workers')} local workers (one {solver} each)"
        + ("   DRAINING" if stats.get("draining") else "")
    )
    lines.append(
        f"jobs      : {submitted} submitted / {hits} cache hits "
        f"({hit_rate:.1f}% hit rate) / {stats.get('coalesced', 0)} "
        f"coalesced / {stats.get('failed', 0)} failed / "
        f"{stats.get('retried', 0)} retried"
    )
    lines.append(
        f"fabric    : {stats.get('executed', 0)} executed / "
        f"{stats.get('deadline_expired', 0)} deadline-expired / "
        f"{stats.get('quarantined', 0)} quarantined / flight "
        f"{stats.get('flight_dumps', 0)} dumps "
        f"{stats.get('flight_evictions', 0)} evicted"
    )
    fleet = stats.get("fleet")
    if isinstance(fleet, dict):
        workers = fleet.get("workers") or {}
        lines.append(
            f"fleet     : {workers.get('live', 0)} live / "
            f"{workers.get('suspect', 0)} suspect / "
            f"{workers.get('dead', 0)} dead   "
            f"leases {fleet.get('leases_outstanding', 0)} out / "
            f"{fleet.get('leases_expired', 0)} expired / "
            f"{fleet.get('lease_reassignments', 0)} reassigned   "
            f"fenced {fleet.get('fenced_commits_rejected', 0)}"
        )
        table = fleet.get("workers_table")
        if isinstance(table, list) and table:
            for row in table[:MAX_JOB_ROWS]:
                if not isinstance(row, dict):
                    continue
                lines.append(
                    f"  {str(row.get('worker_id', '?'))[:24]:<24} "
                    f"{str(row.get('state', '?')):<8} "
                    f"leases {row.get('leases', 0)}  "
                    f"done {row.get('jobs_done', 0)}  "
                    f"beats {row.get('heartbeats', 0)}  "
                    f"seen {float(row.get('last_seen_seconds_ago', 0.0)):.1f}s ago"
                )
            if len(table) > MAX_JOB_ROWS:
                lines.append(f"  ... {len(table) - MAX_JOB_ROWS} more workers")
    metrics_text = _get(base, "/metrics", timeout)
    if isinstance(metrics_text, str):
        try:
            metrics = parse_prometheus(metrics_text)
        except ValueError:
            metrics = {}
        cache_hits = metrics.get("qed_cache_hits", 0.0)
        cache_misses = metrics.get("qed_cache_misses", 0.0)
        lines.append(
            f"metrics   : qed_cache {cache_hits:.0f} hit / "
            f"{cache_misses:.0f} miss, "
            f"qed_queue_depth {metrics.get('qed_queue_depth', 0.0):.0f}, "
            f"{len(metrics)} series exported"
        )
    summaries = []
    if job_ids:
        for job_id in job_ids:
            payload = _get(base, f"/jobs/{job_id}", timeout)
            if isinstance(payload, dict) and isinstance(
                payload.get("job"), dict
            ):
                job = payload["job"]
                spec = job.get("spec") or {}
                summaries.append(
                    {
                        "job_id": job.get("job_id"),
                        "state": job.get("state"),
                        "bug_id": spec.get("bug_id"),
                        "version": spec.get("version"),
                        "bound": spec.get("bound", 0),
                        "cache_hit": job.get("cache_hit", False),
                    }
                )
    else:
        listing = _get(base, "/jobs", timeout)
        if isinstance(listing, dict) and isinstance(
            listing.get("jobs"), list
        ):
            summaries = [
                row for row in listing["jobs"] if isinstance(row, dict)
            ]
    if summaries:
        lines.append(f"jobs ({len(summaries)} tracked):")
        # Live jobs first, then newest terminal ones, bounded per frame.
        running = [s for s in summaries if s.get("state") == "running"]
        rest = [s for s in summaries if s.get("state") != "running"]
        shown = (running + rest[::-1])[:MAX_JOB_ROWS]
        for summary in shown:
            lines.append(_job_row(base, summary, timeout))
        if len(summaries) > len(shown):
            lines.append(f"  ... {len(summaries) - len(shown)} more")
    else:
        lines.append("jobs      : none tracked yet")
    if history_path:
        lines.extend(_history_panel(history_path))
    return lines, True


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--server", default="127.0.0.1:8123",
        help="host:port of the serve_qed.py server (default 127.0.0.1:8123)",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between frames (default 2.0)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (0 = server reachable); the CI "
        "dashboard smoke",
    )
    parser.add_argument(
        "--job", action="append", default=None, metavar="JOB_ID",
        help="follow only this job id (repeatable; default: GET /jobs)",
    )
    parser.add_argument(
        "--history", default=DEFAULT_HISTORY,
        help="BENCH_history.jsonl to render as a trajectory panel "
        "(default: repo root; '' disables)",
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0,
        help="per-request HTTP timeout in seconds (default 5)",
    )
    args = parser.parse_args(argv)

    while True:
        lines, reachable = render_frame(
            args.server,
            job_ids=args.job or [],
            history_path=args.history,
            timeout=args.timeout,
        )
        if args.once:
            print("\n".join(lines))
            return 0 if reachable else 1
        # Clear + home between frames; plain prints keep it pipe-safe.
        sys.stdout.write("\x1b[2J\x1b[H" + "\n".join(lines) + "\n")
        sys.stdout.flush()
        try:
            time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:
            return 0


if __name__ == "__main__":
    sys.exit(main())
