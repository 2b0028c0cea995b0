"""Load generator for the serving stack: latency, saturation, fairness.

Drives a QED server with a mix of *polite* clients (paced submissions,
distinct ``X-Client-Id``s) and one *greedy* client (unpaced burst), then
reports per-class p50/p99 end-to-end latency, saturation throughput and
429 counts.  The interesting number is the **fairness ratio**: the polite
clients' contended p99 over their uncontended p99 -- admission control
(per-client token buckets + bounded queue depth, both answering 429 +
Retry-After) is what keeps that ratio small while the greedy client eats
the rejections.

CI runs the self-contained mode and uploads the report::

    PYTHONPATH=src python scripts/loadgen_qed.py --selftest \\
        --json-out loadgen_report.json --check-fairness 4.0

Against a real deployment, point it at the server (solves are the
deterministic selftest sleeps only in ``--selftest`` mode; otherwise you
submit real bug ids)::

    ... loadgen_qed.py --server 127.0.0.1:8123 --bugs wrport_collision
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro.serve.client import ServeClient, ServeError
from repro.serve.keys import JobSpec


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _selftest_spec(solve_seconds: float, tag: str) -> JobSpec:
    """A unique, fully resolved spec for the selftest entry (no caching
    or coalescing across requests -- every submission is a real solve)."""
    return JobSpec(
        bug_id=f"__sleep:{solve_seconds}__",
        version="T.v1",
        fingerprint="f" * 64,
        mode="eddiv",
        focus_opcodes=("LDI",),
        bound=4,
        config={"loadgen_tag": tag},
    )


class ClientRun:
    """One client's request loop: submit -> wait -> record latency."""

    def __init__(
        self,
        url: str,
        client_id: str,
        *,
        requests: int,
        pace_seconds: float,
        solve_seconds: float,
        bug_id: Optional[str],
        timeout: float,
    ) -> None:
        self.client = ServeClient(url, client_id=client_id, retry_backoff=0.05)
        self.client_id = client_id
        self.requests = requests
        self.pace_seconds = pace_seconds
        self.solve_seconds = solve_seconds
        self.bug_id = bug_id
        self.timeout = timeout
        self.latencies: List[float] = []
        self.rejections_429 = 0
        self.retry_after_seen = 0.0
        self.failures = 0

    def run(self, phase: str) -> None:
        for index in range(self.requests):
            start = time.perf_counter()
            view = None
            while True:
                try:
                    if self.bug_id is not None:
                        view = self.client.submit(bug_id=self.bug_id)
                    else:
                        view = self.client.submit(
                            spec=_selftest_spec(
                                self.solve_seconds,
                                f"{phase}-{self.client_id}-{index}",
                            )
                        )
                    break
                except ServeError as exc:
                    if exc.status == 429:
                        # Honor Retry-After: back off exactly as told.
                        self.rejections_429 += 1
                        delay = exc.retry_after or 0.1
                        self.retry_after_seen = max(
                            self.retry_after_seen, delay
                        )
                        time.sleep(delay)
                        continue
                    self.failures += 1
                    return
            try:
                final = (
                    view
                    if view.done
                    else self.client.wait_done(
                        view.job_id, timeout=self.timeout, poll=5.0
                    )
                )
            except ServeError:
                self.failures += 1
                continue
            if final.state != "done":
                self.failures += 1
                continue
            self.latencies.append(time.perf_counter() - start)
            if self.pace_seconds:
                time.sleep(self.pace_seconds)

    def summary(self) -> Dict[str, object]:
        return {
            "client_id": self.client_id,
            "completed": len(self.latencies),
            "p50_ms": round(1e3 * _percentile(self.latencies, 0.50), 3),
            "p99_ms": round(1e3 * _percentile(self.latencies, 0.99), 3),
            "rejections_429": self.rejections_429,
            "max_retry_after_seconds": round(self.retry_after_seen, 3),
            "failures": self.failures,
        }


def _class_summary(runs: List[ClientRun]) -> Dict[str, object]:
    latencies = [l for run in runs for l in run.latencies]
    return {
        "clients": len(runs),
        "completed": len(latencies),
        "p50_ms": round(1e3 * _percentile(latencies, 0.50), 3),
        "p99_ms": round(1e3 * _percentile(latencies, 0.99), 3),
        "rejections_429": sum(run.rejections_429 for run in runs),
        "failures": sum(run.failures for run in runs),
    }


def run_load(url: str, args) -> Dict[str, object]:
    bug_id = args.bugs[0] if args.bugs else None
    common = dict(
        solve_seconds=args.solve_seconds,
        bug_id=bug_id,
        timeout=args.timeout,
    )
    # Phase 1 -- uncontended baseline: one polite client, alone.
    baseline = ClientRun(
        url,
        "polite-baseline",
        requests=args.requests,
        pace_seconds=args.pace_seconds,
        **common,
    )
    baseline.run("base")
    # Phase 2 -- contention: N polite clients plus one greedy burst.
    polite = [
        ClientRun(
            url,
            f"polite-{index}",
            requests=args.requests,
            pace_seconds=args.pace_seconds,
            **common,
        )
        for index in range(args.clients)
    ]
    greedy = ClientRun(
        url,
        "greedy",
        requests=args.greedy_requests,
        pace_seconds=0.0,
        **common,
    )
    threads = [
        threading.Thread(target=run.run, args=("load",), daemon=True)
        for run in polite + [greedy]
    ]
    contended_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    contended_elapsed = time.perf_counter() - contended_start
    completed = sum(len(run.latencies) for run in polite + [greedy])

    polite_summary = _class_summary(polite)
    baseline_summary = baseline.summary()
    fairness = None
    if baseline_summary["p99_ms"] and polite_summary["p99_ms"]:
        fairness = round(
            polite_summary["p99_ms"] / baseline_summary["p99_ms"], 3
        )
    return {
        "mode": "selftest" if bug_id is None else f"bug:{bug_id}",
        "solve_seconds": args.solve_seconds,
        "uncontended_polite": baseline_summary,
        "contended_polite": polite_summary,
        "greedy": greedy.summary(),
        "saturation_throughput_jobs_per_second": round(
            completed / contended_elapsed, 3
        )
        if contended_elapsed
        else None,
        "contended_wall_seconds": round(contended_elapsed, 3),
        "fairness_p99_ratio": fairness,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--server", default=None,
        help="target server URL; omit with --selftest to spawn one",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="spawn an in-process server with the deterministic selftest "
        "entry (CI mode)",
    )
    parser.add_argument(
        "--bugs", nargs="*", default=None,
        help="submit this real bug id instead of selftest sleeps",
    )
    parser.add_argument("--clients", type=int, default=3,
                        help="polite clients in the contention phase")
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per polite client (and baseline)")
    parser.add_argument("--greedy-requests", type=int, default=40,
                        help="unpaced requests from the greedy client")
    parser.add_argument("--pace-seconds", type=float, default=0.15,
                        help="polite inter-request pacing")
    parser.add_argument("--solve-seconds", type=float, default=0.02,
                        help="selftest solve duration per job")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes for a spawned server")
    parser.add_argument("--client-rate", type=float, default=10.0,
                        help="admission tokens/second per client for a "
                        "spawned server")
    parser.add_argument("--client-burst", type=float, default=5.0)
    parser.add_argument("--max-queue-depth", type=int, default=32,
                        help="backlog bound for a spawned server")
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--json-out", default=None,
                        help="write the report as JSON to this path")
    parser.add_argument(
        "--check-fairness", type=float, default=None, metavar="RATIO",
        help="exit 1 if contended polite p99 exceeds RATIO x the "
        "uncontended p99",
    )
    args = parser.parse_args(argv)
    if args.server is None and not args.selftest:
        parser.error("pass --server URL or --selftest")

    with contextlib.ExitStack() as stack:
        if args.server is not None:
            url = args.server
        else:
            from repro.serve.queue import _selftest_entry
            from repro.serve.server import LocalServer

            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-loadgen-")
            )
            url = stack.enter_context(
                LocalServer(
                    cache_dir=cache_dir,
                    workers=args.workers,
                    entry=_selftest_entry,
                    max_queue_depth=args.max_queue_depth,
                    admission=dict(
                        rate=args.client_rate, burst=args.client_burst
                    ),
                )
            )
        report = run_load(url, args)

    print(json.dumps(report, indent=2))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as stream:
            json.dump(report, stream, indent=2, sort_keys=True)
        print(f"wrote {args.json_out}")

    failures: List[str] = []
    if report["contended_polite"]["failures"] or report["greedy"]["failures"]:
        failures.append("some requests failed outright (not 429s)")
    if args.selftest and not report["greedy"]["rejections_429"]:
        failures.append(
            "greedy client was never throttled -- admission control is "
            "not engaging"
        )
    if args.check_fairness is not None:
        ratio = report["fairness_p99_ratio"]
        if ratio is None:
            failures.append("no fairness ratio (a phase completed nothing)")
        elif ratio > args.check_fairness:
            failures.append(
                f"fairness ratio {ratio} exceeds bound {args.check_fairness}"
            )
    for failure in failures:
        print(f"LOADGEN FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
