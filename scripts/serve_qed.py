"""Command-line front end of the verification service (:mod:`repro.serve`).

Subcommands::

    serve     -- run a standalone server:
                 PYTHONPATH=src python scripts/serve_qed.py serve --port 8123
    submit    -- submit one bug-detection job (optionally wait for it):
                 ... serve_qed.py submit --server 127.0.0.1:8123 \\
                     --bug wrport_collision --wait
    campaign  -- run the full 16-version campaign through a server; with no
                 --server an in-process server is spawned for the run:
                 ... serve_qed.py campaign --workers 2
                 Run it twice with the same --cache-dir to see the second
                 pass answered entirely from the result cache.
    smoke     -- the CI gate: boot an in-process server, run one EDDI-V
                 job, check the verdict against a direct detect_bug() call,
                 check that an identical resubmission is a cache hit, and
                 check all three observability channels of the solved job
                 (its trace, its heartbeats, the /metrics it fed), check
                 that each bmc.bound span lasted the bound_seconds its
                 per-bound heartbeat reports (one clock across the fork),
                 and that /stats and /metrics count the same submissions
                 and cache hits (one counter store).
    worker    -- join a server's fleet from this host: pull jobs under
                 leases, heartbeat, commit with the fence token:
                 ... serve_qed.py worker --server 127.0.0.1:8123
    fleet-smoke -- the CI fleet gate: boot a fleet-only server (workers=0),
                 attach a remote worker, SIGKILL it mid-solve, attach a
                 second worker, and assert the recovered verdicts are
                 byte-identical to direct detect_bug() calls with exactly
                 one lease reassignment on /metrics.

Everything is stdlib-only; the server spawned here is the same stack the
tests exercise (:class:`repro.serve.LocalServer`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import tempfile
import threading
import time
from typing import List, Optional

from repro.eval.campaign import (
    CampaignConfig,
    detect_bug,
    record_comparable_dict,
)
from repro.eval.report import detection_breakdown, serving_statistics
from repro.serve import LocalServer, ServeClient, run_campaign_via_server

SMOKE_BUG = "wrport_collision"  # EDDI-V interaction bug, ~2 s solve


def _campaign_config(args) -> CampaignConfig:
    return CampaignConfig(
        bug_ids=args.bugs or None,
        run_industrial_flow=not args.no_industrial,
        run_directed_tests=not args.no_dst,
    )


@contextlib.contextmanager
def _client_for(args, *, workers: int):
    """A client for --server, or for a freshly spawned in-process server."""
    if args.server:
        yield ServeClient(args.server)
        return
    cache_dir = args.cache_dir
    with contextlib.ExitStack() as stack:
        if cache_dir is None:
            cache_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-serve-")
            )
        url = stack.enter_context(LocalServer(cache_dir=cache_dir, workers=workers))
        yield ServeClient(url)


# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    state_path = os.path.join(args.cache_dir, "queue_state.json")
    admission = None
    if args.client_rate is not None:
        admission = dict(
            rate=args.client_rate,
            burst=args.client_burst
            if args.client_burst is not None
            else 2.0 * args.client_rate,
        )
    server = LocalServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        state_path=state_path,
        fleet=args.fleet or args.workers == 0,
        fleet_kwargs=dict(
            lease_seconds=args.lease_seconds,
            heartbeat_seconds=args.heartbeat_seconds,
        ),
        admission=admission,
        max_queue_depth=args.max_queue_depth,
    )
    # SIGTERM (systemd stop, `kill`, container shutdown) drains gracefully:
    # running solves finish and are cached, queued work is persisted to
    # queue_state.json, and the next start of this command resumes it.
    stop_signal = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop_signal.set())
    url = server.start()
    print(f"serving on {url} (cache: {args.cache_dir}, workers: {args.workers})")
    print("POST /jobs | GET /jobs/<id>?wait= | GET /results/<key> | GET /stats")
    if args.fleet or args.workers == 0:
        print(
            f"fleet mode: POST /fleet/* (lease {args.lease_seconds}s, "
            f"heartbeat {args.heartbeat_seconds}s) -- attach workers with "
            f"`serve_qed.py worker --server {url}`"
        )
    try:
        while not stop_signal.wait(timeout=1.0):
            pass
        print("SIGTERM: draining (running solves finish, queue is persisted)")
        state = server.drain()
        print(
            f"drained; {len(state.get('queued') or [])} queued job(s) "
            f"persisted to {state_path}"
        )
    except KeyboardInterrupt:
        print("shutting down")
    server.stop()
    return 0


def cmd_submit(args) -> int:
    client = ServeClient(args.server)
    view = client.submit(
        bug_id=args.bug, config=_campaign_config(args), priority=args.priority
    )
    print(
        f"job {view.job_id}: {view.state}"
        + (" (cache hit)" if view.cache_hit else "")
    )
    if args.wait and not view.done:
        view = client.wait_done(view.job_id, timeout=args.timeout)
        for beat in _bound_heartbeats(client, view.job_id):
            print(f"  bound {beat.get('bound')}: {beat.get('verdict')}")
    print(json.dumps(view.record if view.record else {"state": view.state}, indent=2))
    return 0 if view.state in ("queued", "running", "done") else 1


def cmd_campaign(args) -> int:
    config = _campaign_config(args)
    with _client_for(args, workers=args.workers) as client:
        campaign = run_campaign_via_server(client, config)
        hits = sum(1 for r in campaign.records if r.served_from_cache)
        print(
            f"{len(campaign.records)} bugs in {campaign.wall_clock_seconds:.1f}s "
            f"({hits} served from cache)"
        )
        breakdown = detection_breakdown(campaign)
        print(
            f"Symbolic QED detected {breakdown['symbolic_qed_detected']}"
            f"/{breakdown['total_bugs']} bugs; industrial flow "
            f"{breakdown['industrial_flow_detected']}/{breakdown['total_bugs']}"
        )
        print(json.dumps(serving_statistics(client.stats()), indent=2))
    return 0


def _bound_heartbeats(client, job_id: str) -> List[dict]:
    """The engine's per-bound heartbeats of a job, from ``/telemetry``."""
    heartbeats = client.telemetry(job_id).get("heartbeats") or []
    return [hb for hb in heartbeats if hb.get("site") == "bound"]


def _obs_failures(client, job_id: str, metrics) -> List[str]:
    """Spans, heartbeats and metrics of a solved job all reached the server.

    The worker's ``detect_bug`` span re-rooted under the queue's
    ``queue.attempt`` span, at least one per-bound heartbeat on
    ``/jobs/<id>/telemetry``, and a worker metric delta (bounds searched)
    merged into ``/metrics`` -- one run guarding the one capture protocol
    end to end.  It also guards the one clock across the fork and lease
    boundary: each ``bmc.bound`` span lasted exactly the ``bound_seconds``
    that the same bound's heartbeat reports (both rounded to 1 us).
    """
    failures: List[str] = []
    spans = client.trace(job_id).get("spans") or []
    attempts = {s["span_id"] for s in spans if s.get("name") == "queue.attempt"}
    if not any(
        s.get("name") == "detect_bug" and s.get("parent_id") in attempts
        for s in spans
    ):
        failures.append("trace lacks a detect_bug span under queue.attempt")
    beats = _bound_heartbeats(client, job_id)
    if not beats:
        failures.append("/telemetry lists no per-bound heartbeat")
    bound_spans = sorted(
        (s for s in spans if s.get("name") == "bmc.bound"),
        key=lambda s: s["start"],
    )
    if not bound_spans:
        failures.append("trace lacks a bmc.bound span")
    elif len(bound_spans) != len(beats):
        failures.append(
            f"{len(bound_spans)} bmc.bound spans, {len(beats)} per-bound "
            f"heartbeats"
        )
    # A job may run several BMC searches: pair spans and beats in order.
    for span, beat in zip(bound_spans, beats):
        bound = span["attrs"].get("bound")
        lasted = round(span["end"] - span["start"], 6)
        reported = round(beat.get("bound_seconds", -1.0), 6)
        if (bound, lasted) != (beat.get("bound"), reported):
            failures.append(
                f"bmc.bound span of bound {bound} lasted {lasted} s, its "
                f"heartbeat (bound {beat.get('bound')}) reports {reported} s"
            )
    if not metrics.get("qed_bounds_total"):
        failures.append("/metrics reports zero qed_bounds_total")
    return failures


def cmd_smoke(args) -> int:
    """CI smoke: served verdict == direct verdict, resubmission hits cache,
    and the solved job's spans, heartbeats and metrics all arrived."""
    config = CampaignConfig(
        bug_ids=[SMOKE_BUG], run_industrial_flow=False, run_directed_tests=False
    )
    failures: List[str] = []
    with _client_for(args, workers=args.workers) as client:
        view = client.submit(bug_id=SMOKE_BUG, config=config)
        if view.cache_hit and args.server is None:
            failures.append("cold submission reported a cache hit")
        final = view if view.done else client.wait_done(view.job_id, timeout=args.timeout)
        if final.state != "done" or final.record is None:
            failures.append(f"job ended {final.state}: {final.error}")
        else:
            from repro.eval.campaign import record_from_json_dict

            direct = detect_bug(SMOKE_BUG, config)
            served = record_from_json_dict(final.record)
            if record_comparable_dict(direct) != record_comparable_dict(served):
                failures.append("served record differs from direct detect_bug()")
            if not served.detected_by.get("eddiv"):
                failures.append("EDDI-V did not detect the smoke bug")
        second = client.submit(bug_id=SMOKE_BUG, config=config)
        if not second.cache_hit:
            failures.append("identical resubmission was not a cache hit")
        if second.record is None or not second.record.get("served_from_cache"):
            failures.append("cache-served record lacks provenance")
        # The /metrics scrape must reflect what just happened: at least
        # the warm resubmission as a cache hit, and both submissions on
        # the queue counter.  A zero here means the instrumentation came
        # unwired, even though the jobs themselves succeeded.
        from repro.obs.metrics import parse_prometheus

        metrics = parse_prometheus(client.metrics_text())
        if not metrics.get("qed_cache_hits_total"):
            failures.append("/metrics reports zero qed_cache_hits_total")
        if not metrics.get("qed_jobs_submitted_total"):
            failures.append("/metrics reports zero qed_jobs_submitted_total")
        # /stats reads the registry /metrics renders: the two must agree.
        payload = client.stats()
        for key, series in (
            ("jobs_submitted", "qed_jobs_submitted_total"),
            ("cache_hits", "qed_cache_hits_total"),
        ):
            if payload["queue"].get(key) != metrics.get(series, 0):
                failures.append(
                    f"/stats {key} is {payload['queue'].get(key)}, /metrics "
                    f"{series} is {metrics.get(series, 0)}"
                )
        if not view.cache_hit:
            failures.extend(_obs_failures(client, view.job_id, metrics))
        if args.trace_out:
            trace = client.trace(view.job_id)
            with open(args.trace_out, "w", encoding="utf-8") as stream:
                json.dump(trace, stream, indent=2, sort_keys=True)
            print(f"wrote {args.trace_out} (smoke job trace)")
        print(json.dumps(serving_statistics(payload), indent=2))
    if failures:
        for failure in failures:
            print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(
        "serve smoke OK: served verdict matches direct, resubmission hit "
        "cache, spans/heartbeats/metrics arrived, bound spans match their "
        "heartbeats, /stats agrees with /metrics"
    )
    return 0


def cmd_worker(args) -> int:
    """Join a server's fleet: pull jobs under leases until SIGTERM'd."""
    from repro.serve.fleet import FleetWorker

    stop = threading.Event()
    # SIGTERM exits gracefully: the current lease finishes and commits,
    # then the worker deregisters.  SIGKILL is the chaos path -- the
    # coordinator recovers the job via lease expiry.
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    worker = FleetWorker(
        args.server,
        worker_id=args.id,
        max_jobs=args.max_jobs,
        stop_event=stop,
    )
    print(f"worker {worker.worker_id} pulling from {args.server}", flush=True)
    try:
        stats = worker.run()
    except KeyboardInterrupt:
        worker.stop()
        stats = worker.stats_dict()
    print(json.dumps(stats, indent=2))
    return 0


def _spawn_worker_process(url: str, worker_id: str):
    """Launch `serve_qed.py worker` as a real OS process (SIGKILL-able)."""
    import subprocess

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, __file__, "worker", "--server", url, "--id", worker_id],
        env=env,
    )


def cmd_fleet_smoke(args) -> int:
    """CI fleet gate: kill a remote worker mid-solve, verify full recovery.

    Boots a fleet-only server (no local executors), attaches worker A,
    submits two solves, SIGKILLs A while it holds a lease, attaches
    worker B, and requires: both verdicts byte-identical to direct
    ``detect_bug()`` runs, exactly one lease reassignment on /metrics,
    and zero fence violations slipping through.
    """
    from repro.eval.campaign import record_from_json_dict
    from repro.obs.metrics import parse_prometheus

    bug_ids = args.bugs or [SMOKE_BUG, "alu_after_load"]
    config = CampaignConfig(
        bug_ids=bug_ids, run_industrial_flow=False, run_directed_tests=False
    )
    failures: List[str] = []
    procs = []
    with contextlib.ExitStack() as stack:
        cache_dir = args.cache_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-fleet-")
        )
        url = stack.enter_context(
            LocalServer(
                cache_dir=cache_dir,
                workers=0,  # fleet-only: every solve must go remote
                fleet=True,
                fleet_kwargs=dict(lease_seconds=3.0, heartbeat_seconds=0.5),
            )
        )
        stack.callback(
            lambda: [p.kill() for p in procs if p.poll() is None]
        )
        client = ServeClient(url)
        health = client.healthz()
        if health.get("ok") or not health.get("no_executors"):
            failures.append(
                "fleet-only server claimed readiness with no workers attached"
            )
        views = [
            client.submit(bug_id=bug_id, config=config) for bug_id in bug_ids
        ]
        procs.append(_spawn_worker_process(url, "smoke-a"))
        # Wait for worker A to hold a lease (i.e. be mid-solve), then
        # SIGKILL it -- no deregister, no final heartbeat, just silence.
        deadline = time.monotonic() + args.timeout
        leased = False
        while time.monotonic() < deadline:
            table = client.fleet().get("workers_table", [])
            if any(
                w["worker_id"] == "smoke-a" and w["leases"] > 0 for w in table
            ):
                leased = True
                break
            time.sleep(0.05)
        if not leased:
            failures.append("worker A never acquired a lease")
        else:
            procs[0].kill()
            procs[0].wait()
            procs.append(_spawn_worker_process(url, "smoke-b"))
        records = {}
        for bug_id, view in zip(bug_ids, views):
            try:
                final = client.wait_done(view.job_id, timeout=args.timeout)
            except Exception as exc:
                failures.append(f"{bug_id}: wait failed: {exc}")
                continue
            if final.state != "done" or final.record is None:
                failures.append(f"{bug_id}: job ended {final.state}: {final.error}")
            else:
                records[bug_id] = final.record
        for bug_id, record in records.items():
            direct = detect_bug(bug_id, config)
            served = record_from_json_dict(record)
            if record_comparable_dict(direct) != record_comparable_dict(served):
                failures.append(
                    f"{bug_id}: recovered record differs from direct detect_bug()"
                )
        metrics = parse_prometheus(client.metrics_text())
        reassignments = metrics.get("qed_fleet_lease_reassignments_total", 0)
        if leased and reassignments != 1:
            failures.append(
                f"expected exactly 1 lease reassignment, saw {reassignments}"
            )
        fleet_stats = client.fleet()
        print(
            json.dumps(
                {
                    "bugs": sorted(records),
                    "lease_reassignments": reassignments,
                    "fenced_commits_rejected": fleet_stats.get(
                        "fenced_commits_rejected"
                    ),
                    "workers": fleet_stats.get("workers"),
                },
                indent=2,
            )
        )
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
                proc.wait(timeout=30)
    if failures:
        for failure in failures:
            print(f"FLEET SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(
        "fleet smoke OK: SIGKILLed worker's job reassigned via lease expiry, "
        "verdicts byte-identical to direct runs"
    )
    return 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add_common(sub, *, server_required: bool) -> None:
        sub.add_argument(
            "--server",
            default=None,
            required=server_required,
            help="server URL (host:port); omit to spawn an in-process server",
        )
        sub.add_argument(
            "--workers", type=int, default=1,
            help="local workers for a spawned server (default 1)",
        )
        sub.add_argument(
            "--cache-dir", default=None,
            help="result-cache directory for a spawned server "
            "(default: a temporary directory)",
        )
        sub.add_argument(
            "--timeout", type=float, default=600.0,
            help="per-job wait budget in seconds (default 600)",
        )
        sub.add_argument("--bugs", nargs="*", default=None, help="bug ids to run")
        sub.add_argument(
            "--no-industrial", action="store_true",
            help="skip the CRS/OCS-FV industrial-flow baselines",
        )
        sub.add_argument(
            "--no-dst", action="store_true", help="skip the directed suite"
        )

    serve = commands.add_parser("serve", help="run a standalone server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8123)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="local workers, each with one solver process; 0 = fleet-only "
        "(remote workers do all solving)",
    )
    serve.add_argument("--cache-dir", default=".repro_cache")
    serve.add_argument(
        "--fleet", action="store_true",
        help="accept remote workers via POST /fleet/* (implied by "
        "--workers 0)",
    )
    serve.add_argument(
        "--lease-seconds", type=float, default=15.0,
        help="job lease TTL, local and remote workers alike; heartbeats "
        "renew it (default 15)",
    )
    serve.add_argument(
        "--heartbeat-seconds", type=float, default=2.0,
        help="worker heartbeat interval (also the longest an idle lease "
        "request waits); suspect after 2 missed beats, dead after 4 "
        "(default 2)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=None,
        help="bound the submission backlog; overflow answers 429 + "
        "Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--client-rate", type=float, default=None,
        help="per-client token-bucket refill rate (jobs/second); enables "
        "admission fairness (default: off)",
    )
    serve.add_argument(
        "--client-burst", type=float, default=None,
        help="per-client bucket capacity (default: 2x --client-rate)",
    )
    serve.set_defaults(func=cmd_serve)

    worker = commands.add_parser(
        "worker", help="join a server's fleet as a remote solve worker"
    )
    worker.add_argument(
        "--server", required=True, help="coordinator URL (host:port)"
    )
    worker.add_argument(
        "--id", default=None,
        help="worker id (default: w-<hostname>-<pid>)",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None,
        help="exit after serving this many leases (default: run forever)",
    )
    worker.set_defaults(func=cmd_worker)

    fleet_smoke = commands.add_parser(
        "fleet-smoke", help="CI fleet gate (kill a worker, verify recovery)"
    )
    fleet_smoke.add_argument("--bugs", nargs="*", default=None)
    fleet_smoke.add_argument("--cache-dir", default=None)
    fleet_smoke.add_argument(
        "--timeout", type=float, default=600.0,
        help="overall wait budget per phase in seconds (default 600)",
    )
    fleet_smoke.set_defaults(func=cmd_fleet_smoke)

    submit = commands.add_parser("submit", help="submit one job")
    add_common(submit, server_required=True)
    submit.add_argument("--bug", required=True, help="bug id (see repro.uarch.bugs)")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--wait", action="store_true", help="long-poll until the job finishes"
    )
    submit.set_defaults(func=cmd_submit)

    campaign = commands.add_parser(
        "campaign", help="run the detection campaign through a server"
    )
    add_common(campaign, server_required=False)
    campaign.set_defaults(func=cmd_campaign)

    smoke = commands.add_parser("smoke", help="CI smoke gate")
    add_common(smoke, server_required=False)
    smoke.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the smoke job's span trace as JSON to PATH "
        "(CI uploads it as an artifact)",
    )
    smoke.set_defaults(func=cmd_smoke)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
