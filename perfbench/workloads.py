"""The benchmark's workloads: seeded inputs, timed passes, checked answers.

Each workload drives public entry points of the program -- ``detect_bug``,
``SymbolicQED.check``, ``SplitConfig`` cube-and-conquer, and
``ServeClient`` against a server process -- and checks every answer
against ``oracle.json`` (a served record against a direct ``detect_bug``
run).  ``METRICS.md`` next to this file says why each workload exists and
which metrics it should move.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import netlist_lint
from repro.dist.scheduler import SplitConfig
from repro.eval import campaign
from repro.indverif.crs import CRSConfig
from repro.qed import harness
from repro.qed.eddiv import QEDMode
from repro.serve import ResultCache, ServeClient
from repro.serve.keys import JobSpec

from perfbench.tracer import Target, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "serve_launcher.py")
#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of *values*.

    Raises ``ValueError`` when fewer than :data:`SAMPLES_BEYOND` samples lie
    beyond the rank: a tail of one or two samples is not a percentile.
    """
    ordered = sorted(values)
    # The epsilon keeps float error (0.95 * 200) from bumping the rank.
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    beyond = len(ordered) - rank
    if rank < 1 or beyond < SAMPLES_BEYOND:
        raise ValueError(
            f"p{100 * fraction:g} of {len(ordered)} samples has {beyond} "
            f"beyond it; needs {SAMPLES_BEYOND}"
        )
    return ordered[rank - 1]


def load_oracle() -> Dict[str, Dict[str, dict]]:
    """The expected answers committed with the benchmark."""
    with open(os.path.join(HERE, "oracle.json"), encoding="utf-8") as stream:
        return json.load(stream)


@dataclass
class Job:
    """One timed request and everything wrong with its answer."""

    name: str
    seconds: float = 0.0
    #: ``serve``: "hit" or "miss", as the request plan says.
    kind: str = "job"
    cex_instructions: int = 0
    job_id: str = ""
    problems: List[str] = field(default_factory=list)


#: A printed figure: name, value (``None`` when refused), unit, note.
Row = Tuple[str, Optional[float], str, str]


def percentile_row(
    name: str, unit: str, values: Sequence[float], fraction: float, scale: float = 1.0
) -> Row:
    try:
        value = scale * percentile(values, fraction)
    except ValueError as exc:
        return name, None, unit, str(exc)
    return name, value, unit, f"{len(values)} samples"


def timed_call(name: str, call: Callable[[], object]) -> Tuple[Job, object]:
    """Time *call* to its answer; an exception makes a failed job."""
    start = time.perf_counter()
    try:
        answer = call()
    except Exception as exc:  # a crashed job is a failed job, not a dead run
        job = Job(name, time.perf_counter() - start)
        job.problems.append(f"{type(exc).__name__}: {exc}")
        return job, None
    return Job(name, time.perf_counter() - start), answer


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _shuffled(items: Sequence[str], label: str, seed: int) -> List[str]:
    order = list(items)
    random.Random(f"{label}:{seed}").shuffle(order)
    return order


# ----------------------------------------------------------------------
# In-process layers
def _count_cone(tracer: Tracer, cone) -> None:
    tracer.count("expr.cone_nodes", len(cone))


def _count_preprocess(tracer: Tracer, result) -> None:
    tracer.count("sat.vars_eliminated", result.stats.variables_eliminated)
    tracer.count("sat.slab_in", result.stats.clauses_in)
    tracer.count("sat.slab_out", result.stats.clauses_out)


def _count_solve(tracer: Tracer, result) -> None:
    tracer.count("sat.conflicts", result.stats.conflicts)
    tracer.count("sat.propagations", result.stats.propagations)


def _count_dist(tracer: Tracer, result) -> None:
    stats = result.stats
    tracer.count("dist.wall_s", stats.wall_seconds)
    tracer.count("dist.capacity_s", stats.workers * stats.wall_seconds)
    tracer.count("dist.busy_s", sum(cube.runtime_seconds for cube in stats.cubes))
    tracer.count("dist.cubes", stats.cubes_total)
    tracer.count("dist.resplits", stats.resplits)
    tracer.count("dist.clauses_shared", stats.clauses_shared)


#: Public functions of the in-process layers; the layer is the metric
#: prefix.  ``bmc.engine`` is the engine's own work around its timed
#: children: CNF encoding, cone-of-influence filtering, the bound loop.
CORE_TARGETS: List[Target] = [
    ("repro.eval.campaign", "detect_bug", "eval.detect", None),
    ("repro.qed.harness", "SymbolicQED.__init__", "qed.build", None),
    ("repro.qed.single_i", "SingleIChecker.__init__", "qed.build", None),
    ("repro.analysis.netlist_lint", "check_version_design", "analysis.lint", None),
    ("repro.analysis.netlist_lint", "check_design", "analysis.lint", None),
    ("repro.bmc.engine", "BoundedModelChecker.__init__", "bmc.engine", None),
    ("repro.bmc.engine", "BoundedModelChecker.run", "bmc.engine", None),
    ("repro.bmc.unroller", "Unroller.unroll", "bmc.unroll", None),
    ("repro.bmc.unroller", "Unroller.blast_bit_at_frame", "bmc.unroll", None),
    ("repro.bmc.trace", "replay_inputs", "bmc.replay", None),
    ("repro.bmc.trace", "property_holds_at", "bmc.replay", None),
    ("repro.qed.counterexample", "interpret_counterexample", "bmc.replay", None),
    ("repro.expr.aig", "AIG.cone_of", "expr.coi", _count_cone),
    ("repro.sat.solver", "CDCLSolver.__init__", "sat.load", None),
    ("repro.sat.solver", "CDCLSolver.add_clause", "sat.load", None),
    ("repro.sat.preprocess", "preprocess", "sat.preprocess", _count_preprocess),
    ("repro.sat.solver", "CDCLSolver.solve", "sat.solve", _count_solve),
    ("repro.dist.scheduler", "WorkScheduler.solve", "dist.schedule", _count_dist),
    ("repro.dist.cubes", "select_split_variables", "dist.split", None),
    ("repro.dist.cubes", "ladder_cubes", "dist.split", None),
    ("repro.dist.cubes", "binary_cubes", "dist.split", None),
    ("repro.dist.cubes", "product_cubes", "dist.split", None),
    ("repro.dist.cubes", "split_cube", "dist.split", None),
]


def core_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of the in-process layers, from one traced pass."""
    seconds, calls, count = tracer.layer_seconds, tracer.layer_calls, tracer.counts.get
    solve_s = seconds("sat.solve")
    busy, capacity = count("dist.busy_s", 0.0), count("dist.capacity_s", 0.0)
    return {
        "qed.build_s": seconds("qed.build"),
        "qed.builds": calls("qed.build"),
        "analysis.lint_s": seconds("analysis.lint"),
        "analysis.lint_calls": calls("analysis.lint"),
        "bmc.engine_s": seconds("bmc.engine"),
        "bmc.unroll_s": seconds("bmc.unroll"),
        "bmc.replay_s": seconds("bmc.replay"),
        "expr.coi_s": seconds("expr.coi"),
        "expr.cone_nodes": count("expr.cone_nodes", 0),
        "sat.load_s": seconds("sat.load"),
        "sat.clauses_loaded": tracer.calls.get("CDCLSolver.add_clause", 0),
        "sat.preprocess_s": seconds("sat.preprocess"),
        "sat.preprocess_calls": calls("sat.preprocess"),
        "sat.vars_eliminated": count("sat.vars_eliminated", 0),
        "sat.slab_kept_ratio": _ratio(count("sat.slab_out", 0), count("sat.slab_in", 0)),
        "sat.solve_s": solve_s,
        "sat.solve_calls": calls("sat.solve"),
        "sat.conflicts": count("sat.conflicts", 0),
        "sat.propagations": count("sat.propagations", 0),
        "sat.props_per_s": _ratio(count("sat.propagations", 0), solve_s),
        "dist.wall_s": count("dist.wall_s", 0.0),
        "dist.busy_s": busy,
        "dist.idle_s": max(0.0, capacity - busy),
        "dist.utilization": _ratio(busy, capacity),
        "dist.split_s": seconds("dist.split"),
        "dist.cubes": count("dist.cubes", 0),
        "dist.resplits": count("dist.resplits", 0),
        "dist.clauses_shared": count("dist.clauses_shared", 0),
        "eval.detect_s": seconds("eval.detect"),
    }


class Workload:
    """Seeded inputs, whole timed passes, per-layer metrics when traced."""

    name = ""
    #: Passes an untraced run makes at least (its percentiles need them).
    min_passes = 1
    targets: Sequence[Target] = CORE_TARGETS

    def setup(self) -> None:
        """Everything a user pays before the first job."""

    def run_pass(self, index: int) -> List[Job]:
        raise NotImplementedError

    def report(self, jobs: List[Job]) -> List[Row]:
        """Figures printed beside the gated metrics, but not gated."""
        seconds = [job.seconds for job in jobs]
        return [("job_max_s", max(seconds), "s", f"slowest of {len(seconds)} jobs")]

    def begin_trace(self, tracer: Tracer) -> None:
        tracer.install(self.targets)

    def end_trace(self, tracer: Tracer, jobs: List[Job], wall: float) -> Dict[str, float]:
        tracer.uninstall()
        layers = core_layer_metrics(tracer)
        layers["other_s"] = wall - tracer.total_self_seconds()
        return layers

    def worker_rss_kb(self) -> List[int]:
        """Peak RSS of the worker processes (the largest reaped child)."""
        return [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]

    def close(self) -> None:
        """Stop everything :meth:`setup` started (idempotent)."""


# ----------------------------------------------------------------------
#: The ten bugs Symbolic QED finds in seconds: five EDDI-V, one QED-mem,
#: four Single-I.  The four QED-CF bugs are left out (see METRICS.md).
DETECT_BUGS = (
    "wrport_collision",
    "alu_after_load",
    "consecutive_sub",
    "st_ld_stale",
    "inplace_after_store",
    "ldil_after_load",
    "sra_zero_fill",
    "cmpi_carry_spec",
    "ror_direction",
    "satadd_clamp",
)
SMOKE_DETECT_BUGS = ("consecutive_sub", "sra_zero_fill")
#: Symbolic QED only: the industrial flow is the paper's baseline.
DETECT_CONFIG = campaign.CampaignConfig(
    run_industrial_flow=False, run_directed_tests=False
)


def check_detect(record: campaign.BugDetectionRecord, expected: dict) -> List[str]:
    problems = []
    if record.attributed_feature != expected["feature"]:
        problems.append(
            f"detected by {record.attributed_feature}, expected {expected['feature']}"
        )
    if record.qed_counterexample_instructions != expected["cex_instructions"]:
        problems.append(
            f"counterexample of {record.qed_counterexample_instructions} "
            f"instructions, expected {expected['cex_instructions']}"
        )
    if not record.qed_definitive:
        problems.append("verdict not definitive")
    return problems


class Detect(Workload):
    """``detect_bug`` over :data:`DETECT_BUGS`: one caller, closed loop."""

    name = "detect"

    def __init__(self, seed: int, scratch: str, smoke: bool) -> None:
        self.expected = load_oracle()["detect"]
        self.order = _shuffled(
            SMOKE_DETECT_BUGS if smoke else DETECT_BUGS, self.name, seed
        )
        # Two passes make 20 jobs, so the job median has ten beyond it.
        self.min_passes = 1 if smoke else 2

    def run_pass(self, index: int) -> List[Job]:
        # A fresh process lints each version once; clearing the memo gives
        # every pass that same work.
        netlist_lint.clear_version_lint_memo()
        jobs = []
        for bug in self.order:
            job, record = timed_call(
                bug, lambda: campaign.detect_bug(bug, DETECT_CONFIG)
            )
            if record is not None:
                job.cex_instructions = record.qed_counterexample_instructions
                job.problems = check_detect(record, self.expected[bug])
            jobs.append(job)
        return jobs

    def report(self, jobs: List[Job]) -> List[Row]:
        seconds = [job.seconds for job in jobs]
        return [
            percentile_row("job_p50_s", "s", seconds, 0.5),
            (
                "job_max_s",
                max(seconds),
                "s",
                f"slowest of {len(seconds)} jobs; the paper's bound is 20 s",
            ),
            (
                "cex_instr_max",
                max(job.cex_instructions for job in jobs),
                "instr",
                "longest counterexample; the paper's bound is 10",
            ),
        ]


#: Clean-design proofs: name -> (version, mode, bound, focus opcodes).
PROOFS = {
    "B.v6/eddiv/6": (
        "B.v6", QEDMode.EDDIV, 6, ("LDI", "MOV", "INC", "ADD", "STA", "LDA")
    ),
    "A.v8/eddiv_mem/9": ("A.v8", QEDMode.EDDIV_MEM, 9, None),
    "B.v6/eddiv/3": (
        "B.v6", QEDMode.EDDIV, 3, ("LDI", "MOV", "INC", "ADD", "STA", "LDA")
    ),
}


def check_proof(result: harness.QEDCheckResult, expected: dict) -> List[str]:
    problems = []
    if result.found_violation != expected["violation"]:
        problems.append(
            f"violation {result.found_violation}, expected {expected['violation']}"
        )
    if result.bmc_result.frames_proven != expected["frames_proven"]:
        problems.append(
            f"{result.bmc_result.frames_proven} frames proven, "
            f"expected {expected['frames_proven']}"
        )
    return problems


class Prove(Workload):
    """``SymbolicQED.check`` on the clean-design proofs, one at a time."""

    name = "prove"
    split: Optional[SplitConfig] = None
    proofs = ("B.v6/eddiv/6", "A.v8/eddiv_mem/9")

    def __init__(self, seed: int, scratch: str, smoke: bool) -> None:
        self.expected = load_oracle()["proofs"]
        self.order = _shuffled(
            ("B.v6/eddiv/3",) if smoke else self.proofs, self.name, seed
        )

    def run_pass(self, index: int) -> List[Job]:
        jobs = []
        for name in self.order:
            version, mode, bound, focus = PROOFS[name]

            def prove() -> harness.QEDCheckResult:
                qed = harness.SymbolicQED(
                    version, mode=mode, focus_opcodes=focus, tracked_registers=(0,)
                )
                return qed.check(max_bound=bound, split=self.split)

            job, result = timed_call(name, prove)
            if result is not None:
                job.problems = check_proof(result, self.expected[name])
            jobs.append(job)
        return jobs


class Cubes(Prove):
    """The B.v6 proof of ``prove`` through two-worker cube-and-conquer."""

    name = "cubes"
    split = SplitConfig(workers=2)
    proofs = ("B.v6/eddiv/6",)


# ----------------------------------------------------------------------
#: Single-I bugs: every miss is a real solve of about 0.1 s.
SINGLE_I_BUGS = ("sra_zero_fill", "cmpi_carry_spec", "ror_direction", "satadd_clamp")
#: ``crs_config.seed`` of warm key *i* is ``WARM_SEED + i``; fresh keys
#: count up from ``FRESH_SEED``.  With the industrial flow off the job never
#: runs CRS, so the seed changes the cache key and nothing else.
WARM_SEED = 10_000
FRESH_SEED = 1_000_000
CLIENTS = 2
#: Zipf exponent of warm-key popularity: the hot keys stay in the LRU while
#: the long tail is read back from the log.
POPULARITY = 1.1


def serve_config(crs_seed: int) -> campaign.CampaignConfig:
    return campaign.CampaignConfig(
        run_industrial_flow=False,
        run_directed_tests=False,
        crs_config=CRSConfig(seed=crs_seed),
    )


def warm_request(index: int) -> Tuple[str, int]:
    """Bug and ``crs_config.seed`` of warm key *index*."""
    return SINGLE_I_BUGS[index % len(SINGLE_I_BUGS)], WARM_SEED + index


def serve_plan(
    seed: int, pass_index: int, *, requests: int, warm_keys: int
) -> List[List[Tuple[str, str, int]]]:
    """Per client, the ``(kind, bug, crs seed)`` requests of one pass.

    One request in five is a fresh spec (a miss), spread evenly over the
    Single-I bugs; the rest repeat warm keys drawn with Zipf popularity.
    """
    rng = random.Random(f"serve:{seed}:{pass_index}")
    misses = [
        bug
        for bug in SINGLE_I_BUGS
        for _ in range(requests // 5 // len(SINGLE_I_BUGS))
    ]
    rng.shuffle(misses)
    kinds = ["miss"] * len(misses) + ["hit"] * (requests - len(misses))
    rng.shuffle(kinds)
    popular = list(range(warm_keys))
    rng.shuffle(popular)
    cumulative = list(
        itertools.accumulate(
            1.0 / rank**POPULARITY for rank in range(1, warm_keys + 1)
        )
    )
    fresh = FRESH_SEED + pass_index * requests
    plan: List[List[Tuple[str, str, int]]] = [[] for _ in range(CLIENTS)]
    for position, kind in enumerate(kinds):
        if kind == "miss":
            request = ("miss", misses.pop(), fresh + position)
        else:
            index = rng.choices(popular, cum_weights=cumulative)[0]
            request = ("hit",) + warm_request(index)
        plan[position % CLIENTS].append(request)
    return plan


class Serve(Workload):
    """Two closed-loop clients against a server process (see METRICS.md)."""

    name = "serve"
    targets = [
        ("repro.serve.client", "ServeClient.submit", "serve.submit", None),
        ("repro.serve.client", "ServeClient.job", "serve.poll", None),
    ]

    def __init__(self, seed: int, scratch: str, smoke: bool) -> None:
        self.seed = seed
        self.scratch = scratch
        self.cache_dir = os.path.join(scratch, "cache")
        # 600 requests: 120 misses (p90 has 12 beyond it) and 480 hits (p95
        # has 24); 400 warm keys, more than the server's 256-entry LRU.
        self.requests, self.warm_keys = (20, 8) if smoke else (600, 400)
        self.expected = load_oracle()["detect"]
        self.direct: Dict[str, dict] = {}
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        self.server_report: Dict[str, object] = {}
        self.client_seconds = 0.0
        self._lock = threading.Lock()
        self._starts = 0
        self._report_file = ""

    def setup(self) -> None:
        records = {}
        for bug in SINGLE_I_BUGS:
            record = campaign.detect_bug(bug, serve_config(WARM_SEED))
            problems = check_detect(record, self.expected[bug])
            if problems:
                raise RuntimeError(f"direct detect_bug({bug!r}): {'; '.join(problems)}")
            records[bug] = record
            self.direct[bug] = campaign.record_comparable_dict(record)
        cache = ResultCache(self.cache_dir)
        for index in range(self.warm_keys):
            bug, crs_seed = warm_request(index)
            spec = JobSpec.from_campaign(bug, serve_config(crs_seed))
            record = campaign.record_to_json_dict(records[bug])
            record["cache_key"] = spec.cache_key()
            cache.put(
                record["cache_key"],
                record,
                fingerprint=spec.fingerprint,
                definitive=True,
                spec=spec.canonical_dict(),
            )
        self._start_server(trace=False)

    def _start_server(self, *, trace: bool) -> None:
        self._starts += 1
        url_file = os.path.join(self.scratch, f"server{self._starts}.url")
        self._report_file = os.path.join(self.scratch, f"server{self._starts}.json")
        command = [
            sys.executable,
            LAUNCHER,
            "--cache-dir",
            self.cache_dir,
            "--url-file",
            url_file,
            "--report",
            self._report_file,
        ]
        if trace:
            command.append("--trace")
        self.server = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL
        )
        deadline = time.monotonic() + 60.0
        while not os.path.exists(url_file):
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the server did not start")
            time.sleep(0.01)
        with open(url_file, encoding="utf-8") as stream:
            self.url = stream.read()
        # One hit per bug warms the server's lint and fingerprint memos, as
        # on a server that has been up for a while.
        client = ServeClient(self.url)
        for index in range(len(SINGLE_I_BUGS)):
            bug, crs_seed = warm_request(index)
            if not client.submit(bug_id=bug, config=serve_config(crs_seed)).cache_hit:
                raise RuntimeError(f"the warm key of {bug} missed the cache")

    def _stop_server(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        if os.path.exists(self._report_file):
            with open(self._report_file, encoding="utf-8") as stream:
                self.server_report = json.load(stream)

    def close(self) -> None:
        self._stop_server()

    def worker_rss_kb(self) -> List[int]:
        report = self.server_report
        return [int(report.get("maxrss_kb", 0)), int(report.get("children_maxrss_kb", 0))]

    def run_pass(self, index: int) -> List[Job]:
        plan = serve_plan(
            self.seed, index, requests=self.requests, warm_keys=self.warm_keys
        )
        results: List[List[Job]] = [[] for _ in plan]
        threads = [
            threading.Thread(target=self._client, args=(number, requests, results[number]))
            for number, requests in enumerate(plan)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [job for jobs in results for job in jobs]

    def _client(self, number: int, requests, out: List[Job]) -> None:
        client = ServeClient(self.url, client_id=f"perfbench-{number}", jitter_seed=number)
        begin = time.perf_counter()
        for kind, bug, crs_seed in requests:

            def ask():
                view = client.submit(bug_id=bug, config=serve_config(crs_seed))
                return view if view.done else client.wait_done(view.job_id, timeout=120.0)

            job, view = timed_call(f"{bug}/crs{crs_seed}", ask)
            job.kind = kind
            if view is not None:
                job.job_id = view.job_id
                job.problems = self._check(view, kind, bug)
            out.append(job)
        with self._lock:
            self.client_seconds += time.perf_counter() - begin

    def _check(self, view, kind: str, bug: str) -> List[str]:
        if view.state != "done" or not view.record:
            return [f"job {view.state}: {view.error}"]
        problems = []
        if view.cache_hit != (kind == "hit"):
            problems.append(f"cache_hit={view.cache_hit}, but the plan says {kind}")
        served = campaign.record_comparable_dict(
            campaign.record_from_json_dict(view.record)
        )
        if served != self.direct[bug]:
            problems.append("served record differs from the direct detect_bug record")
        return problems

    def report(self, jobs: List[Job]) -> List[Row]:
        hits = [job.seconds for job in jobs if job.kind == "hit"]
        misses = [job.seconds for job in jobs if job.kind == "miss"]
        return super().report(jobs) + [
            percentile_row("hit_p50_ms", "ms", hits, 0.50, scale=1000.0),
            percentile_row("hit_p95_ms", "ms", hits, 0.95, scale=1000.0),
            percentile_row("miss_p50_s", "s", misses, 0.50),
            percentile_row("miss_p90_s", "s", misses, 0.90),
        ]

    def begin_trace(self, tracer: Tracer) -> None:
        self._stop_server()
        self._start_server(trace=True)
        self.client_seconds = 0.0
        tracer.install(self.targets)

    def end_trace(self, tracer: Tracer, jobs: List[Job], wall: float) -> Dict[str, float]:
        tracer.uninstall()
        client_self = tracer.total_self_seconds()
        queue = ServeClient(self.url).stats()["queue"]
        views = []
        for job in jobs:
            if job.kind == "miss" and job.job_id:
                url = f"{self.url}/jobs/{job.job_id}"
                with urllib.request.urlopen(url, timeout=30) as response:
                    views.append(json.load(response)["job"])
        self._stop_server()
        tracer.absorb(self.server_report["tracer"])

        def per_call_ms(site: str) -> float:
            return 1000.0 * _ratio(
                tracer.self_seconds.get(site, 0.0), tracer.calls.get(site, 0)
            )

        queued = [view["started_at"] - view["submitted_at"] for view in views]
        ran = [view["finished_at"] - view["started_at"] for view in views]
        dispatch = [
            run
            - view["record"]["qed_runtime_seconds"]
            - view["record"]["single_i_runtime_seconds"]
            for run, view in zip(ran, views)
        ]
        queue_side = tracer.self_seconds.get("JobQueue.submit", 0.0) + (
            tracer.self_seconds.get("ResultCache.get", 0.0)
        )
        return {
            "serve.submit_ms": per_call_ms("ServeClient.submit"),
            # What of a submit the queue does not explain: HTTP, JSON, the
            # server's lint and fingerprint steps.
            "serve.http_ms": per_call_ms("ServeClient.submit")
            - 1000.0 * _ratio(queue_side, tracer.calls.get("JobQueue.submit", 0)),
            "serve.queue_submit_ms": per_call_ms("JobQueue.submit"),
            "serve.cache_get_ms": per_call_ms("ResultCache.get"),
            "serve.cache_gets": tracer.calls.get("ResultCache.get", 0),
            "serve.cache_hit_ratio": _ratio(queue["cache_hits"], queue["jobs_submitted"]),
            "serve.queue_wait_ms": 1000.0 * _mean(queued),
            "serve.run_ms": 1000.0 * _mean(ran),
            "serve.dispatch_ms": 1000.0 * _mean(dispatch),
            "serve.polls_per_miss": _ratio(tracer.calls.get("ServeClient.job", 0), len(views)),
            "serve.cache_put_ms": per_call_ms("ResultCache.put"),
            "serve.retries": queue["retried"],
            "serve.failed": queue["failed"],
            "other_s": self.client_seconds - client_self,
        }


BY_NAME = {cls.name: cls for cls in (Detect, Prove, Cubes, Serve)}
