"""Benchmark the BMC formula-reduction pipeline and track the perf trajectory.

Each run records wall-clock, solver work (conflicts, decisions, propagations),
solver-only time (``solve_seconds``, excluding encode/preprocess) and the
derived propagation throughput (``propagations_per_second``), the
learned-clause database carried across bounds, formula sizes, and the
reduction achieved by each pipeline stage (AIG cone of influence, CNF
preprocessing).  The default invocation writes ``BENCH_bmc.json`` at the repo
root so the numbers are tracked across PRs; ``--check`` compares a fresh run
against a committed baseline and fails on a >2x wall-clock regression, a
``frames_proven`` decrease, or a propagation-throughput drop below 0.6x of
the baseline (regression-only: the metric is wall-clock-derived), which is
how CI gates the hot path.  With ``--via-server`` the serving stack is
benchmarked too -- cold/warm campaign passes plus p50/p99 warm-hit latency
-- and those ``serve/*`` runs are gated at a looser 4x (HTTP + process-pool
noise).  ``--profile-out`` additionally dumps cProfile
stats of the dense depth run for profile-guided follow-up work.

Every invocation also appends a one-line summary (commit hash, whether
observability was live, per-run wall-clock/pps/frames) to
``BENCH_history.jsonl`` at the repo root, giving each ``BENCH_bmc.json``
snapshot an attributable trajectory.  ``--check`` reads that history for
*trend detection*: a run whose propagation throughput declined
monotonically across the last ``TREND_WINDOW`` entries fails the gate even
when every individual step clears the 0.6x floor -- slow rot compounds.
``scripts/dashboard_qed.py`` renders the same history as a live
trajectory.  ``--telemetry`` installs a trace collector
(:class:`repro.obs.trace.ObsCollector`) first -- solver heartbeats are
recorded through it, alongside the spans and span events -- so the gated
numbers measure the observability overhead, heartbeat sampling included.

Profiles::

    counter  -- synthetic counter designs only (seconds; no QED harness)
    fast     -- counter + the Table-2 detection run (A.v3 EDDI-V), the
                clean-design soundness proof (B.v6), the conflict-budgeted
                QED-CF depth run (``frames_proven`` is its metric) and a
                2-worker distributed smoke; the CI profile
    full     -- fast + the QED-mem detection run (A.v5, bound 9)

Depth runs are gated on ``frames_proven`` as well as wall-clock: a fresh
run proving *fewer* frames than the baseline under the same conflict budget
fails ``--check`` even when it is fast (depth, not speed, is what the
budget ablations track).  Distributed runs record per-cube statistics
(verdict, conflicts, re-splits) in the JSON report.

Usage::

    PYTHONPATH=src python scripts/bench_bmc.py                   # fast -> BENCH_bmc.json
    PYTHONPATH=src python scripts/bench_bmc.py --profile counter --json-out -
    PYTHONPATH=src python scripts/bench_bmc.py --check BENCH_bmc.json
    PYTHONPATH=src python scripts/bench_bmc.py --qed A.v3 \\
        --mode eddiv --bound 8 --focus LDI MOV INC ADD           # ad-hoc QED run
    PYTHONPATH=src python scripts/bench_bmc.py --qed B.v6 \\
        --mode eddiv_cf --bound 8 --workers 4 --dense            # distributed
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.bmc import BMCProblem, BMCResult, BoundedModelChecker, SafetyProperty
from repro.expr import BVConst, BVVar, mux
from repro.obs import trace as obs_trace
from repro.rtl import Circuit, elaborate

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_JSON_OUT = os.path.join(REPO_ROOT, "BENCH_bmc.json")
DEFAULT_HISTORY_OUT = os.path.join(REPO_ROOT, "BENCH_history.jsonl")

#: A fresh run may be at most this many times slower than the baseline
#: before ``--check`` fails (CI machines are noisy; 2x is the contract).
REGRESSION_FACTOR = 2.0
#: Runs faster than this (seconds) are exempt from the factor check --
#: scheduling jitter dominates at that scale.
REGRESSION_MIN_SECONDS = 0.5
#: Propagation-throughput floor: a fresh run's ``propagations_per_second``
#: must stay above this fraction of the baseline's.  The metric is
#: wall-clock-derived, so the gate only fires on *regressions* (there is no
#: upper gate) and only when the run solved long enough for the ratio to
#: mean anything (see :data:`PPS_MIN_SOLVE_SECONDS`).
PPS_REGRESSION_FLOOR = 0.6
#: Solve time below which the throughput gate is skipped: a query answered
#: in a few hundred milliseconds gives a pps number dominated by noise.
PPS_MIN_SOLVE_SECONDS = 0.5
#: The ``serve/*`` runs go through an HTTP round-trip plus a process pool,
#: both far noisier than the in-process solves, so their wall-clock gate
#: uses this more generous multiplier instead of :data:`REGRESSION_FACTOR`.
#: Regression-only, like every other wall-clock gate here.
SERVE_REGRESSION_FACTOR = 4.0
#: Warm cache hits sampled for the ``serve/warm_hit`` percentile run.
WARM_HIT_SAMPLES = 20
#: Consecutive runs (history entries plus the fresh one) a run's
#: ``propagations_per_second`` must decline across before the trend gate
#: fails.  Catches slow rot: K steps each comfortably above the
#: :data:`PPS_REGRESSION_FLOOR` still compound into a real regression.
TREND_WINDOW = 4
#: A step only counts toward the trend when the fresh pps is below this
#: fraction of the previous one -- strict monotonicity alone would trip on
#: wall-clock noise roughly one CI run in eight.
TREND_STEP_TOLERANCE = 0.95


def _bound_stats_rows(result: BMCResult) -> List[Dict[str, object]]:
    # The canonical serialization lives on BoundStats itself.
    return [stats.to_json_dict() for stats in result.per_bound_stats]


def _summarise(name: str, result: BMCResult) -> Dict[str, object]:
    return {
        "name": name,
        "status": result.status.value,
        "bound_reached": result.bound_reached,
        "runtime_seconds": round(result.runtime_seconds, 6),
        "solve_seconds": round(result.solve_seconds, 6),
        "propagations": result.total_propagations,
        "propagations_per_second": round(result.propagations_per_second, 1),
        "counterexample_cycles": result.counterexample_length,
        "num_sat_variables": result.num_sat_variables,
        "num_sat_clauses": result.num_sat_clauses,
        "total_conflicts": result.total_conflicts,
        "total_learned_clauses": result.total_learned_clauses,
        "learned_clauses_carried": result.learned_clauses_carried,
        "learned_clauses_reused": result.learned_clauses_reused,
        "variables_eliminated": result.variables_eliminated,
        "clauses_subsumed": result.clauses_subsumed,
        "preprocess_seconds": round(result.preprocess_seconds, 6),
        "frames_proven": result.frames_proven,
        "cubes_solved": result.cubes_solved,
        "cubes_resplit": result.cubes_resplit,
        "per_bound": _bound_stats_rows(result),
    }


def _counter_design(width: int = 8):
    circuit = Circuit("bench_counter")
    enable = circuit.input("enable", 1)
    count = circuit.register("count", width, reset=0)
    count.next = mux(enable, count.q + BVConst(width, 1), count.q)
    circuit.output("value", count.q)
    return elaborate(circuit), width


def run_counter_bench(max_bound: int) -> List[Dict[str, object]]:
    """A dense incremental run (violating) and a full UNSAT sweep."""
    design, width = _counter_design()
    target = max_bound - 1
    violated = SafetyProperty(
        f"never{target}", BVVar("count", width).ne(BVConst(width, target))
    )
    unreachable = SafetyProperty(
        "never_back", BVVar("count", width).ne(BVConst(width, (1 << width) - 1))
    )
    runs = []
    for prop in (violated, unreachable):
        problem = BMCProblem(design=design, prop=prop, max_bound=max_bound)
        result = BoundedModelChecker(problem).run()
        runs.append(_summarise(f"counter/{prop.name}", result))
    return runs


def _qed_run(
    name: str,
    version: str,
    mode_name: str,
    bound: int,
    focus: Optional[List[str]],
    *,
    dense: bool = False,
    expect_violation: Optional[bool] = None,
    max_conflicts_per_query: Optional[int] = None,
    workers: int = 0,
    cube_conflict_budget: Optional[int] = 4000,
) -> Dict[str, object]:
    from repro.dist import SplitConfig
    from repro.isa.arch import TINY_PROFILE
    from repro.qed import QEDMode, SymbolicQED

    mode = {m.value: m for m in QEDMode}[mode_name]
    harness = SymbolicQED(
        version,
        mode=mode,
        arch=TINY_PROFILE,
        focus_opcodes=focus if mode is not QEDMode.EDDIV_MEM else None,
        tracked_registers=(0,),
    )
    split = (
        SplitConfig(workers=workers, cube_conflict_budget=cube_conflict_budget)
        if workers >= 1
        else None
    )
    check = harness.check(
        max_bound=bound,
        single_query=not dense,
        max_conflicts_per_query=max_conflicts_per_query,
        split=split,
    )
    if (
        expect_violation is not None
        and check.found_violation != expect_violation
    ):
        raise SystemExit(
            f"bench run {name!r} produced the wrong verdict: "
            f"found_violation={check.found_violation}, "
            f"expected {expect_violation}"
        )
    return _summarise(name, check.bmc_result)


def run_profile(
    profile: str, max_bound: int, profiler=None
) -> List[Dict[str, object]]:
    """The named bench profile as a list of run summaries.

    When *profiler* (a ``cProfile.Profile``) is given, the dense QED-CF
    budgeted-depth run -- the workload whose hot-path distribution drives
    the solver's profile-guided work -- is executed a *second* time under
    the profiler after the recorded (clean) execution.  Profiling roughly
    doubles the run's wall-clock and halves its propagation throughput, so
    the profiled pass must never be the one whose numbers land in the
    report: it would trip the ``--check`` wall-clock and pps gates.
    """
    runs = run_counter_bench(max_bound)
    if profile == "counter":
        return runs
    # Table-2 detection workload: interaction bug in A.v3 under the
    # campaign's focus set.
    runs.append(
        _qed_run(
            "detection/A.v3/eddiv",
            "A.v3",
            "eddiv",
            8,
            ["LDI", "MOV", "INC", "ADD"],
            expect_violation=True,
        )
    )
    # Clean-design soundness: the UNSAT proof that dominated PR-1 wall-clock.
    runs.append(
        _qed_run(
            "soundness/B.v6/eddiv",
            "B.v6",
            "eddiv",
            6,
            ["LDI", "MOV", "INC", "ADD", "STA", "LDA"],
            expect_violation=False,
        )
    )
    # Conflict-budgeted QED-CF depth run: under a fixed per-bound conflict
    # budget, `frames_proven` measures how deep the engine can retire
    # windows -- the ROADMAP depth metric for the hardest instance family.
    # Runs on the deterministic single-worker distributed engine (cube-and-
    # conquer over window position and opcode bits).
    depth_args = (
        "depth/B.v6/eddiv_cf/budget3000",
        "B.v6",
        "eddiv_cf",
        7,
        ["LDI", "ADD", "CMPI", "BZ"],
    )
    depth_kwargs = dict(
        dense=True,
        expect_violation=False,
        max_conflicts_per_query=3000,
        workers=1,
        cube_conflict_budget=1500,
    )
    runs.append(_qed_run(*depth_args, **depth_kwargs))
    if profiler is not None:
        # Separate profiled pass; its (skewed) numbers are discarded.
        profiler.enable()
        _qed_run(*depth_args, **depth_kwargs)
        profiler.disable()
    # Distributed smoke: a 2-worker cube-and-conquer proof of the clean
    # design, exercising the process pool, work stealing and re-splitting
    # under the CI regression gate.
    runs.append(
        _qed_run(
            "distributed/B.v6/eddiv/w2",
            "B.v6",
            "eddiv",
            5,
            ["LDI", "MOV", "INC", "ADD", "STA", "LDA"],
            expect_violation=False,
            workers=2,
        )
    )
    if profile == "full":
        runs.append(
            _qed_run(
                "detection/A.v5/eddiv_mem",
                "A.v5",
                "eddiv_mem",
                9,
                None,
                expect_violation=True,
            )
        )
    return runs


#: Campaign subset of the --via-server bench: one real EDDI-V solve plus
#: two sub-second Single-I jobs, so the cold pass measures genuine solver
#: work and the warm pass isolates the cache path.
VIA_SERVER_BUGS = ["wrport_collision", "sra_zero_fill", "cmpi_carry_spec"]


def _percentile(sorted_values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    rank = math.ceil(fraction * len(sorted_values))
    return sorted_values[min(max(rank - 1, 0), len(sorted_values) - 1)]


def run_via_server_bench(workers: int = 1) -> List[Dict[str, object]]:
    """Cold + warm campaign passes through an in-process server.

    Records wall-clock and cache hit/miss counts per pass (the warm pass
    must be all hits), then samples :data:`WARM_HIT_SAMPLES` individual
    warm-hit submissions for a ``serve/warm_hit`` run whose
    ``runtime_seconds`` is the p99 round-trip latency (p50 recorded
    alongside).  All ``serve/*`` entries are gated by ``--check`` against
    the committed baseline with :data:`SERVE_REGRESSION_FACTOR` -- a
    percentile over many hits, not a single sample, so the gate is about
    the cache path staying O(read), not scheduler jitter.
    """
    import tempfile

    from repro.eval.campaign import CampaignConfig
    from repro.serve import LocalServer, ServeClient, run_campaign_via_server
    from repro.serve.keys import JobSpec

    config = CampaignConfig(
        bug_ids=VIA_SERVER_BUGS,
        run_industrial_flow=False,
        run_directed_tests=False,
    )
    runs: List[Dict[str, object]] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as cache_dir:
        with LocalServer(cache_dir=cache_dir, workers=workers) as url:
            client = ServeClient(url)
            for label in ("cold", "warm"):
                campaign = run_campaign_via_server(client, config)
                hits = sum(
                    1 for r in campaign.records if r.served_from_cache
                )
                verdicts = {
                    r.bug_id: r.detected_by_symbolic_qed
                    for r in campaign.records
                }
                if not all(verdicts.values()):
                    raise SystemExit(
                        f"via-server bench ({label}): missed detections "
                        f"{verdicts}"
                    )
                runs.append(
                    {
                        "name": f"serve/campaign{len(VIA_SERVER_BUGS)}/{label}",
                        "status": "ok",
                        "runtime_seconds": round(
                            campaign.wall_clock_seconds, 6
                        ),
                        "jobs": len(campaign.records),
                        "cache_hits": hits,
                        "cache_misses": len(campaign.records) - hits,
                        "workers": workers,
                    }
                )
            if runs[-1]["cache_misses"] != 0:
                raise SystemExit(
                    "via-server bench: warm pass was not fully cached "
                    f"({runs[-1]})"
                )
            # Percentiles over many individual warm hits: a single sample
            # is all scheduler jitter, but p50/p99 over N round-trips pin
            # down the submit -> lint -> cache-read -> respond path.
            warm_spec = JobSpec.from_campaign(
                VIA_SERVER_BUGS[-1], config, resolve_fingerprint=False
            )
            latencies: List[float] = []
            for _ in range(WARM_HIT_SAMPLES):
                start = time.perf_counter()
                view = client.submit(spec=warm_spec)
                latencies.append(time.perf_counter() - start)
                if not view.cache_hit:
                    raise SystemExit(
                        "via-server bench: warm-hit sample missed the cache"
                    )
            latencies.sort()
            runs.append(
                {
                    "name": "serve/warm_hit",
                    "status": "ok",
                    # p99 is the gated number -- the tail is where a cache
                    # path accidentally doing real work shows up first.
                    "runtime_seconds": round(
                        _percentile(latencies, 0.99), 6
                    ),
                    "p50_seconds": round(_percentile(latencies, 0.50), 6),
                    "p99_seconds": round(_percentile(latencies, 0.99), 6),
                    "samples": len(latencies),
                    "workers": workers,
                }
            )
    return runs


def _git_commit() -> str:
    """The repo HEAD (short hash) for report attribution, or ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


def history_entry(report: Dict[str, object]) -> Dict[str, object]:
    """Compact one-line JSONL entry summarising *report* for the history."""
    runs: Dict[str, object] = {}
    for run in report["runs"]:  # type: ignore[union-attr]
        runs[str(run["name"])] = {
            "status": run.get("status"),
            "runtime_seconds": run.get("runtime_seconds", 0.0),
            "solve_seconds": run.get("solve_seconds", 0.0),
            "propagations_per_second": run.get(
                "propagations_per_second", 0.0
            ),
            "frames_proven": run.get("frames_proven", 0),
        }
    return {
        "t": round(time.time(), 3),
        "commit": report.get("commit", "unknown"),
        "profile": report.get("profile"),
        "obs_enabled": report.get("obs_enabled", False),
        "runs": runs,
    }


def load_history(path: str) -> List[Dict[str, object]]:
    """Parse ``BENCH_history.jsonl``, skipping blank/corrupt lines."""
    entries: List[Dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict):
                    entries.append(entry)
    except OSError:
        return []
    return entries


def append_history(path: str, entry: Dict[str, object]) -> None:
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(json.dumps(entry, sort_keys=True) + "\n")


def check_trend(
    report: Dict[str, object],
    history: List[Dict[str, object]],
    window: int = TREND_WINDOW,
) -> List[str]:
    """Fail on a *window*-run monotonic pps decline ending at *report*.

    The single-baseline floor in :func:`check_regression` only sees one
    step back; a run losing a steady few percent per PR sails under it
    forever.  This gate walks the history (*history* holds the entries
    written **before** this run) and fails when the last *window* pps
    points -- history tail plus the fresh run -- each dropped below
    :data:`TREND_STEP_TOLERANCE` of the previous one.  Only runs that
    solved for at least :data:`PPS_MIN_SOLVE_SECONDS` in every considered
    entry participate (same eligibility as the floor gate); a gap or an
    ineligible entry breaks the streak.
    """
    failures: List[str] = []
    for run in report["runs"]:  # type: ignore[union-attr]
        name = str(run["name"])
        pps = float(run.get("propagations_per_second", 0.0) or 0.0)
        solve = float(run.get("solve_seconds", 0.0) or 0.0)
        if pps <= 0.0 or solve < PPS_MIN_SOLVE_SECONDS:
            continue
        series: List[float] = []
        for entry in reversed(history):
            runs = entry.get("runs")
            past = runs.get(name) if isinstance(runs, dict) else None
            if not isinstance(past, dict):
                break
            past_pps = float(past.get("propagations_per_second", 0.0) or 0.0)
            past_solve = float(past.get("solve_seconds", 0.0) or 0.0)
            if past_pps <= 0.0 or past_solve < PPS_MIN_SOLVE_SECONDS:
                break
            series.append(past_pps)
            if len(series) == window - 1:
                break
        if len(series) < window - 1:
            continue
        series.reverse()
        series.append(pps)
        declining = all(
            series[i + 1] < TREND_STEP_TOLERANCE * series[i]
            for i in range(len(series) - 1)
        )
        if declining:
            trajectory = " -> ".join(f"{point:.0f}" for point in series)
            failures.append(
                f"{name}: propagations_per_second declined {window} runs "
                f"in a row ({trajectory}); each step clears the "
                f"{PPS_REGRESSION_FLOOR:g}x floor but the trend compounds "
                f"to {series[-1] / series[0]:.2f}x of {window} runs ago"
            )
    return failures


def check_regression(
    report: Dict[str, object],
    baseline: Dict[str, object],
    baseline_name: str = "baseline",
) -> "tuple[List[str], int]":
    """Compare *report* against the already-loaded *baseline* report.

    The caller loads the baseline BEFORE writing the fresh report so that
    ``--check`` pointed at the default output path compares against the
    committed numbers, not the file just written.  Returns ``(failures,
    compared)``: the failure messages and how many runs had a baseline
    entry to compare against.
    """
    baseline_runs = {run["name"]: run for run in baseline.get("runs", [])}
    failures: List[str] = []
    compared = 0
    for run in report["runs"]:
        name = run["name"]
        old = baseline_runs.get(name)
        if old is None:
            continue  # new benchmark, nothing to compare against
        compared += 1
        if run["status"] != old["status"]:
            failures.append(
                f"{name}: verdict changed {old['status']} -> {run['status']}"
            )
            continue
        old_frames = int(old.get("frames_proven", 0))
        new_frames = int(run.get("frames_proven", 0))
        if new_frames < old_frames:
            # Depth regression: under the same conflict budget the engine
            # must keep proving at least as many frames (conflict budgets
            # are deterministic, so this is not a flaky wall-clock gate).
            failures.append(
                f"{name}: frames_proven regressed "
                f"{old_frames} -> {new_frames}"
            )
            continue
        old_seconds = float(old["runtime_seconds"])
        new_seconds = float(run["runtime_seconds"])
        # serve/* runs cross an HTTP + process-pool boundary; their gate
        # trades tightness for stability (regression-only, like the rest).
        factor = (
            SERVE_REGRESSION_FACTOR
            if str(name).startswith("serve/")
            else REGRESSION_FACTOR
        )
        limit = max(factor * old_seconds, REGRESSION_MIN_SECONDS)
        if new_seconds > limit:
            failures.append(
                f"{name}: {new_seconds:.3f}s vs baseline "
                f"{old_seconds:.3f}s (limit {limit:.3f}s)"
            )
            continue
        # Propagation-throughput floor: gate only on regression (the
        # metric is wall-clock-derived) and only when both runs solved
        # long enough for the ratio to be meaningful.
        old_pps = float(old.get("propagations_per_second", 0.0))
        new_pps = float(run.get("propagations_per_second", 0.0))
        old_solve = float(old.get("solve_seconds", 0.0))
        new_solve = float(run.get("solve_seconds", 0.0))
        if (
            old_pps > 0.0
            and new_pps > 0.0
            and old_solve >= PPS_MIN_SOLVE_SECONDS
            and new_solve >= PPS_MIN_SOLVE_SECONDS
            and new_pps < PPS_REGRESSION_FLOOR * old_pps
        ):
            failures.append(
                f"{name}: propagations_per_second regressed to "
                f"{new_pps:.0f} vs baseline {old_pps:.0f} "
                f"(floor {PPS_REGRESSION_FLOOR:g}x = "
                f"{PPS_REGRESSION_FLOOR * old_pps:.0f})"
            )
    if compared == 0:
        # A gate that compared nothing must not pass: run renames or a
        # corrupted baseline would otherwise silently disable the check.
        failures.append(
            f"no run in this report matches any baseline entry of "
            f"{baseline_name} -- the regression gate compared nothing"
        )
    return failures, compared


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", default="fast", choices=["counter", "fast", "full"],
        help="benchmark profile (default fast; CI runs fast)",
    )
    parser.add_argument(
        "--max-bound", type=int, default=16,
        help="bound for the counter demo runs (default 16)",
    )
    parser.add_argument(
        "--qed", metavar="VERSION", default=None,
        help="also run Symbolic QED on a design version (e.g. A.v3); slow",
    )
    parser.add_argument(
        "--mode", default="eddiv", choices=["eddiv", "eddiv_cf", "eddiv_mem"],
        help="QED mode for --qed (default eddiv)",
    )
    parser.add_argument(
        "--bound", type=int, default=8, help="QED max bound (default 8)"
    )
    parser.add_argument(
        "--focus", nargs="*", default=["LDI", "MOV", "INC", "ADD"],
        help="focus opcodes for --qed",
    )
    parser.add_argument(
        "--dense", action="store_true",
        help="use the dense per-bound schedule for --qed instead of one query",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="route --qed through the distributed proof engine with this "
        "many workers (0 = sequential; 1 = inline cube-and-conquer)",
    )
    parser.add_argument(
        "--max-conflicts", type=int, default=None,
        help="per-bound conflict budget for --qed (frames_proven becomes "
        "the metric of interest)",
    )
    parser.add_argument(
        "--via-server", action="store_true",
        help="also run a small campaign cold+warm through the in-process "
        "verification service, record cache hit/miss counts, and sample "
        f"warm-hit latency percentiles over {WARM_HIT_SAMPLES} round-trips "
        f"(gated by --check at {SERVE_REGRESSION_FACTOR:g}x)",
    )
    parser.add_argument(
        "--json-out", default=DEFAULT_JSON_OUT,
        help="write the JSON report here ('-' for stdout; "
        "default: BENCH_bmc.json at the repo root)",
    )
    parser.add_argument(
        "--history-out", metavar="PATH", default=DEFAULT_HISTORY_OUT,
        help="append a one-line summary of this run to this JSONL history "
        "(default: BENCH_history.jsonl at the repo root); --check reads "
        "the prior entries for trend detection and the dashboard renders "
        "the trajectory",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="do not append this run to the history file (trend detection "
        "still runs against the existing entries when --check is given)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="run with a trace collector installed (heartbeats ride on "
        "it) so the report (and the pps gates) measure the observability "
        "overhead, heartbeat sampling included",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare against a baseline BENCH_bmc.json and exit non-zero "
        f"on a >{REGRESSION_FACTOR:g}x wall-clock regression "
        f"({SERVE_REGRESSION_FACTOR:g}x for serve/* runs), a "
        "frames_proven decrease, a propagations_per_second drop below "
        f"{PPS_REGRESSION_FLOOR:g}x of the baseline, or a "
        f"{TREND_WINDOW}-run monotonic pps decline in the history",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="dump cProfile stats of the dense QED-CF depth run to PATH "
        "(pstats format; CI uploads it as an artifact for profile-guided "
        "work)",
    )
    args = parser.parse_args(argv)

    # Load the baseline up front: --check may point at the same path the
    # fresh report is about to overwrite (the default json-out).
    baseline = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as stream:
            baseline = json.load(stream)

    if args.telemetry:
        obs_trace.install(obs_trace.ObsCollector())

    profiler = None
    if args.profile_out:
        if args.profile == "counter":
            raise SystemExit(
                "--profile-out needs the dense depth run; use the fast or "
                "full profile"
            )
        import cProfile

        profiler = cProfile.Profile()
    runs = run_profile(args.profile, args.max_bound, profiler=profiler)
    if profiler is not None:
        profiler.dump_stats(args.profile_out)
        print(f"wrote {args.profile_out} (cProfile of the dense depth run)")
    if args.via_server:
        runs.extend(run_via_server_bench(workers=max(1, args.workers)))
    if args.qed:
        suffix = ("/dense" if args.dense else "") + (
            f"/w{args.workers}" if args.workers else ""
        )
        runs.append(
            _qed_run(
                f"qed/{args.qed}/{args.mode}" + suffix,
                args.qed,
                args.mode,
                args.bound,
                args.focus,
                dense=args.dense,
                workers=args.workers,
                max_conflicts_per_query=args.max_conflicts,
            )
        )

    report = {
        "profile": args.profile,
        "commit": _git_commit(),
        "obs_enabled": obs_trace.active() is not None,
        "runs": runs,
    }
    text = json.dumps(report, indent=2)
    if args.json_out == "-":
        print(text)
    else:
        with open(args.json_out, "w", encoding="utf-8") as stream:
            stream.write(text + "\n")
        print(f"wrote {args.json_out} ({len(runs)} runs)")

    # The history is read BEFORE this run is appended so the trend gate
    # compares the fresh numbers against strictly prior entries.
    history = load_history(args.history_out)
    if not args.no_history:
        try:
            append_history(args.history_out, history_entry(report))
            print(
                f"appended {args.history_out} "
                f"(entry {len(history) + 1}, commit {report['commit']})"
            )
        except OSError as exc:
            print(f"history append failed: {exc}", file=sys.stderr)

    if baseline is not None:
        failures, compared = check_regression(report, baseline, args.check)
        failures.extend(check_trend(report, history))
        if failures:
            print("PERFORMANCE REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"regression check OK ({compared} runs within budget)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
