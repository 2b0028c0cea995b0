"""Quickstart: the verification service -- submit, solve once, serve twice.

Starts the whole serving stack (HTTP server, job queue, content-addressed
result cache) in-process, submits the same bug-detection job twice, and
shows the second answer coming straight from the cache: one solve, two
results.  This is the regime the paper's industrial flow lives in --
engineers re-running per-block Symbolic QED queries against unchanged
design versions all day.

Run with::

    python examples/serve_quickstart.py
"""

import tempfile

from repro.eval.campaign import CampaignConfig
from repro.serve import LocalServer, ServeClient


def main() -> None:
    # Skip the simulation baselines so the demo answers in about a second;
    # the served record is still byte-identical to a direct detect_bug().
    config = CampaignConfig(
        run_industrial_flow=False, run_directed_tests=False
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as cache_dir:
        # use_processes=False runs the solve on a worker thread -- handy for
        # a demo; a real deployment keeps each worker's solver process.
        with LocalServer(cache_dir=cache_dir, use_processes=False) as url:
            client = ServeClient(url)
            print(f"verification service up on {url}")

            first = client.submit(bug_id="sra_zero_fill", config=config)
            print(f"job {first.job_id} submitted (state: {first.state})")
            done = (
                first if first.done else client.wait_done(first.job_id, timeout=120)
            )
            assert done.record is not None
            print(
                "verdict : bug detected by "
                f"{[k for k, v in done.record['detected_by'].items() if v]}"
            )
            print(f"cache key: {done.cache_key[:16]}..")

            second = client.submit(bug_id="sra_zero_fill", config=config)
            assert second.cache_hit and second.record is not None
            print(
                f"second submission: cache hit "
                f"(served_from_cache={second.record['served_from_cache']}) -- "
                "no solver ran"
            )

            stats = client.stats()["queue"]
            print(
                f"service stats: {stats['jobs_submitted']} submitted, "
                f"{stats['executed']} executed, {stats['cache_hits']} cache hits"
            )

            # Every job carries a span trace end to end -- queue wait, lint,
            # per-bound encode/solve -- browsable while the server is up
            # (scripts/trace_qed.py renders the same JSON as a tree).
            trace = client.trace(first.job_id)
            print(f"trace    : {url}/jobs/{first.job_id}/trace")
            print(
                f"           {len(trace['spans'])} spans recorded "
                f"(trace id {trace['trace_id']})"
            )

            # Solver heartbeats (conflicts, propagations/s, trail depth,
            # restart cadence) stream up from the search's cold branches
            # while a job runs; scripts/dashboard_qed.py renders them live.
            telemetry = client.telemetry(first.job_id)
            print(f"telemetry: {url}/jobs/{first.job_id}/telemetry")
            print(
                f"           {telemetry['total']} heartbeats recorded"
            )


if __name__ == "__main__":
    main()
