"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload detect --seed 1 --seconds 10 --trace 0

The workloads are ``detect``, ``prove``, ``cubes`` and ``serve``;
``perfbench/METRICS.md`` says why each exists and what it should move.
``--trace 0`` runs whole passes over the seeded inputs until ``--seconds``
have elapsed (and at least the passes the workload's percentiles need),
times the workload's set-up in fresh processes, and reports the gated
end-to-end metrics.  ``--trace 1`` runs one plain pass and one pass with
the layer wrappers of ``perfbench/tracer.py`` installed, and reports the
traced pass's per-layer metrics.  Every answer is checked.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` shrinks the inputs for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Parent of each run's scratch directory (cache log, server files).
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("detect", "prove", "cubes", "serve")
#: Fresh-process set-ups timed per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Gated end-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
#: Per-layer metrics (``--trace 1``): name -> unit.  A layer that does not
#: run on a workload reads 0 there.
PER_LAYER: Dict[str, str] = {
    "qed.build_s": "s",
    "qed.builds": "count",
    "analysis.lint_s": "s",
    "analysis.lint_calls": "count",
    "bmc.engine_s": "s",
    "bmc.unroll_s": "s",
    "bmc.replay_s": "s",
    "expr.coi_s": "s",
    "expr.cone_nodes": "count",
    "sat.load_s": "s",
    "sat.clauses_loaded": "count",
    "sat.preprocess_s": "s",
    "sat.preprocess_calls": "count",
    "sat.vars_eliminated": "count",
    "sat.slab_kept_ratio": "ratio",
    "sat.solve_s": "s",
    "sat.solve_calls": "count",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.props_per_s": "1/s",
    "dist.wall_s": "s",
    "dist.busy_s": "s",
    "dist.idle_s": "s",
    "dist.utilization": "ratio",
    "dist.split_s": "s",
    "dist.cubes": "count",
    "dist.resplits": "count",
    "dist.clauses_shared": "count",
    "serve.submit_ms": "ms",
    "serve.http_ms": "ms",
    "serve.queue_submit_ms": "ms",
    "serve.cache_get_ms": "ms",
    "serve.cache_gets": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.run_ms": "ms",
    "serve.dispatch_ms": "ms",
    "serve.polls_per_miss": "count",
    "serve.cache_put_ms": "ms",
    "serve.retries": "count",
    "serve.failed": "count",
    "eval.detect_s": "s",
    "other_s": "s",
    "trace_overhead_ratio": "ratio",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one workload of the benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced inputs, for the benchmark's own tests"
    )
    # Set the workload up, print "ready" and stop: how set-up is timed.
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def host_context(args: argparse.Namespace) -> Dict[str, object]:
    """Where, on what and how a report was measured."""
    from repro.obs import trace as obs_trace

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "seed": args.seed,
        "obs_tracing": obs_trace.enabled(),
        "layer_wrappers": bool(args.trace),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """The checkout's git commit; "unknown" unless it is a work tree of its own."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = result.stdout.split()
    if result.returncode or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def _source_digest() -> str:
    """Digest of the program's sources: names the code measured even
    where there is no commit."""
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()[:16]


def time_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh process until the workload is set up."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--probe",
    ]
    if args.smoke:
        command.append("--smoke")
    start = time.perf_counter()
    with subprocess.Popen(
        command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
    ) as probe:
        ready = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
    if ready.strip() != "ready" or probe.returncode:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return elapsed


def print_header(args: argparse.Namespace) -> None:
    smoke = " --smoke" if args.smoke else ""
    print(
        f"perfbench --workload {args.workload} --seed {args.seed} "
        f"--trace {args.trace}{smoke}"
    )
    host = host_context(args)
    print("host " + " ".join(f"{key}={json.dumps(value)}" for key, value in host.items()))


def print_rows(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        shown = "refused" if value is None else f"{value:.6g}"
        print(f"  {name:<24}{shown:>14} {unit:<7}{note}")


def fail_row(jobs):
    failed = sum(1 for job in jobs if job.problems)
    note = f"{failed} of {len(jobs)} jobs failed, refused or wrong"
    return "fail_ratio", failed / len(jobs), "ratio", note


def emit(jobs, values: Dict[str, float], units: Dict[str, str]) -> int:
    """Print the failed jobs and the result line."""
    failed = [job for job in jobs if job.problems]
    for job in failed[:20]:
        print(f"FAILED {job.name}: {'; '.join(job.problems)}")
    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def untraced_run(args: argparse.Namespace, workload) -> int:
    workload.setup()
    jobs = []
    walls: List[float] = []
    start = time.perf_counter()
    while len(walls) < workload.min_passes or time.perf_counter() - start < args.seconds:
        pass_start = time.perf_counter()
        jobs.extend(workload.run_pass(len(walls)))
        walls.append(time.perf_counter() - pass_start)
    workload.close()
    # Read before the set-up probes (and git) add children of their own.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += sum(workload.worker_rss_kb())
    setups = [time_setup(args) for _ in range(1 if args.smoke else SETUP_SAMPLES)]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "jobs_per_s": len(jobs) / sum(walls),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "wall_s": f"median of {len(walls)} passes",
        "jobs_per_s": f"{len(jobs)} jobs",
        "peak_rss_mb": "benchmark process plus workers",
    }
    print_header(args)
    print_rows(
        "end-to-end (gated)",
        [(name, values[name], unit, notes[name]) for name, unit in END_TO_END.items()],
    )
    print_rows(
        "workload figures (reported, not gated)",
        workload.report(jobs) + [fail_row(jobs)],
    )
    return emit(jobs, values, END_TO_END)


def traced_run(args: argparse.Namespace, workload) -> int:
    from perfbench.tracer import Tracer

    workload.setup()
    start = time.perf_counter()
    plain = workload.run_pass(0)
    plain_wall = time.perf_counter() - start
    tracer = Tracer()
    workload.begin_trace(tracer)
    try:
        start = time.perf_counter()
        traced = workload.run_pass(1)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    layers = workload.end_trace(tracer, traced, traced_wall)
    layers["trace_overhead_ratio"] = traced_wall / plain_wall
    values = {name: layers.get(name, 0.0) for name in PER_LAYER}
    print_header(args)
    print(f"untraced pass: {plain_wall:.3f} s for {len(plain)} jobs")
    print_rows(
        "workload figures of the untraced pass (not gated)",
        workload.report(plain) + [fail_row(plain)],
    )
    print(f"traced pass: {traced_wall:.3f} s for {len(traced)} jobs")
    rows = []
    for name, unit in PER_LAYER.items():
        share = f"{100.0 * values[name] / traced_wall:.1f}% of the pass" if unit == "s" else ""
        rows.append((name, values[name], unit, share))
    print_rows("per-layer (traced pass)", rows)
    return emit(plain + traced, values, PER_LAYER)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: the program's sources are missing ({SRC}/repro); "
            "run it from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [ROOT, SRC]
    from perfbench import workloads

    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    workload = workloads.BY_NAME[args.workload](args.seed, scratch, args.smoke)
    try:
        if args.probe:
            workload.setup()
            print("ready", flush=True)
            return 0
        if args.trace:
            return traced_run(args, workload)
        return untraced_run(args, workload)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run's scratch directory is still there


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
