"""The verification campaign over the sixteen design versions.

For every seeded bug the campaign runs the Symbolic QED features (baseline
EDDI-V, the QED-CF enhancement, duplication using memory, Single-I) and the
industrial-flow techniques (DST, OCS-FV, CRS) and records which of them
detect it.  Figs. 8, 9 and 10 and Tables 2 and 3 are computed from these
records.

Because the SAT backend here is pure Python, the default campaign runs each
bug against its buggy version with a bug-specific *focus set* of opcodes (an
environment constraint on the stimulus, see
:func:`repro.qed.qed_module.build_qed_module`) and a bound just large enough
for the counterexample.  ``CampaignConfig(exhaustive=True)`` removes the
focus sets and runs every feature on every version -- the faithful but slow
configuration.

The per-bug jobs are completely independent -- each builds its own design,
QED module and solver -- so :func:`run_campaign` runs them the way the
serving layer runs any job: one :class:`~repro.serve.keys.JobSpec` per bug
on an in-process :class:`~repro.serve.queue.JobQueue` (``workers=N`` local
fleet workers), with its content-addressed result cache as the resume log.
The merge is deterministic: records come back in the order the bugs were
selected regardless of which worker finished first, so a parallel campaign
produces the same records as a serial one (modulo wall-clock and provenance
fields).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.netlist_lint import check_version_design
from repro.deadline import Deadline
from repro.dist.scheduler import SplitConfig
from repro.isa.arch import ArchParams, TINY_PROFILE
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.indverif.crs import CRSConfig, ConstrainedRandomSim
from repro.indverif.dst import default_directed_suite
from repro.indverif.ocsfv import OCSFVChecker
from repro.qed.eddiv import QEDMode
from repro.qed.harness import SymbolicQED
from repro.qed.single_i import SingleIChecker
from repro.uarch.bugs import BUGS, Bug, bug_by_id
from repro.uarch.versions import ALL_VERSIONS, DesignVersion

#: Per-bug focus sets and bounds: the instructions the BMC stimulus is allowed
#: to use when hunting that bug, plus the unrolling depth.  These model the
#: per-block runs a verification engineer would launch; they never weaken the
#: checked property.
FOCUS_SETS: Dict[str, Dict[str, object]] = {
    "wrport_collision": {
        "mode": QEDMode.EDDIV,
        "opcodes": ["LDI", "MOV", "INC", "ADD"],
        "bound": 8,
    },
    "alu_after_load": {
        "mode": QEDMode.EDDIV,
        "opcodes": ["LDI", "ADD", "XOR", "LDA", "STA"],
        "bound": 8,
    },
    "consecutive_sub": {
        "mode": QEDMode.EDDIV,
        "opcodes": ["LDI", "SUB", "INC"],
        "bound": 8,
    },
    "st_ld_stale": {
        "mode": QEDMode.EDDIV,
        "opcodes": ["LDI", "LDA", "STA", "MOV"],
        "bound": 8,
    },
    "inplace_after_store": {
        "mode": QEDMode.EDDIV,
        "opcodes": ["LDI", "INC", "STA", "MOV"],
        "bound": 8,
    },
    "bz_flag_misread": {
        "mode": QEDMode.EDDIV_CF,
        "opcodes": ["LDI", "ADD", "CMPI", "BZ"],
        "bound": 8,
    },
    "bnz_carry_confusion": {
        "mode": QEDMode.EDDIV_CF,
        "opcodes": ["LDI", "ADD", "CMPI", "BNZ"],
        "bound": 8,
    },
    "jr_target_offby1": {
        "mode": QEDMode.EDDIV_CF,
        "opcodes": ["LDI", "INC", "ADD", "CMPI", "JR"],
        "bound": 8,
    },
    "beq_high_inverted": {
        "mode": QEDMode.EDDIV_CF,
        "opcodes": ["LDI", "INC", "ADD", "CMPI", "BEQ"],
        "bound": 8,
    },
    "ldil_after_load": {
        "mode": QEDMode.EDDIV_MEM,
        "opcodes": None,
        "bound": 9,
    },
    "sra_zero_fill": {"mode": "single_i", "opcodes": ["SRA"], "bound": 2},
    "cmpi_carry_spec": {"mode": "single_i", "opcodes": ["CMPI"], "bound": 2},
    "ror_direction": {"mode": "single_i", "opcodes": ["ROR"], "bound": 2},
    "satadd_clamp": {"mode": "single_i", "opcodes": ["SATADD"], "bound": 2},
}

#: Priority order used to attribute a bug to the Symbolic QED feature that
#: detects it (Fig. 10): baseline first, then the enhancements, then Single-I.
FEATURE_PRIORITY: Tuple[str, ...] = ("eddiv", "qed_cf", "qed_mem", "single_i")


@dataclass
class CampaignConfig:
    """Configuration of a campaign run.

    ``split`` routes every QED BMC query through the distributed proof
    engine (cube-and-conquer, see :mod:`repro.dist`); it
    composes with ``run_campaign(workers=N)``: the workers fan out over
    bugs, and each bug's hard query can additionally fan out over cubes
    from its worker's solver child.  With several workers, leave it
    ``None`` unless cores are plentiful.

    ``preprocess`` and ``max_conflicts_per_query`` forward to
    :meth:`repro.qed.harness.SymbolicQED.check` (formula reduction on/off
    and the per-bound solver budget -- an expired budget makes the QED
    verdict *non-definitive*, see :attr:`BugDetectionRecord.qed_definitive`).
    """

    arch: ArchParams = TINY_PROFILE
    bug_ids: Optional[Sequence[str]] = None
    run_industrial_flow: bool = True
    run_directed_tests: bool = True
    crs_config: CRSConfig = field(default_factory=CRSConfig)
    exhaustive: bool = False
    extra_bound: int = 0
    split: Optional[SplitConfig] = None
    preprocess: bool = True
    max_conflicts_per_query: Optional[int] = None

    # -- canonical serialization ---------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """Canonical, versioned JSON form (defaults explicit, tuples as
        lists, nested configs through their own canonical forms).

        ``bug_ids`` keeps its order -- it selects *which* jobs run and in
        what order, it does not change any single job's meaning (per-job
        cache keys are built by :mod:`repro.serve.keys` and never include
        it).
        """
        return {
            "format": 1,
            "arch": self.arch.to_json_dict(),
            "bug_ids": (
                None if self.bug_ids is None else [str(b) for b in self.bug_ids]
            ),
            "run_industrial_flow": self.run_industrial_flow,
            "run_directed_tests": self.run_directed_tests,
            "crs_config": self.crs_config.to_json_dict(),
            "exhaustive": self.exhaustive,
            "extra_bound": self.extra_bound,
            "split": None if self.split is None else self.split.to_json_dict(),
            "preprocess": self.preprocess,
            "max_conflicts_per_query": self.max_conflicts_per_query,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "CampaignConfig":
        """Inverse of :meth:`to_json_dict` (validates the format tag)."""
        if data.get("format", 1) != 1:
            raise ValueError(
                f"unsupported CampaignConfig format {data.get('format')!r}"
            )
        arch = data.get("arch")
        crs = data.get("crs_config")
        split = data.get("split")
        bug_ids = data.get("bug_ids")
        budget = data.get("max_conflicts_per_query")
        return cls(
            arch=TINY_PROFILE if arch is None else ArchParams.from_json_dict(arch),
            bug_ids=None if bug_ids is None else [str(b) for b in bug_ids],
            run_industrial_flow=bool(data.get("run_industrial_flow", True)),
            run_directed_tests=bool(data.get("run_directed_tests", True)),
            crs_config=(
                CRSConfig() if crs is None else CRSConfig.from_json_dict(crs)
            ),
            exhaustive=bool(data.get("exhaustive", False)),
            extra_bound=int(data.get("extra_bound", 0)),
            split=None if split is None else SplitConfig.from_json_dict(split),
            preprocess=bool(data.get("preprocess", True)),
            max_conflicts_per_query=None if budget is None else int(budget),
        )


@dataclass
class BugDetectionRecord:
    """Everything the campaign measured about one bug."""

    bug_id: str
    version_name: str
    detected_by: Dict[str, bool] = field(default_factory=dict)
    qed_runtime_seconds: float = 0.0
    qed_counterexample_cycles: int = 0
    qed_counterexample_instructions: int = 0
    qed_solver_conflicts: int = 0
    qed_solver_propagations: int = 0
    #: Wall-clock inside the SAT solver (excludes encoding/preprocessing);
    #: ``qed_solver_propagations / qed_solve_seconds`` is the run's
    #: propagation throughput.
    qed_solve_seconds: float = 0.0
    qed_learned_clauses: int = 0
    qed_learned_clauses_reused: int = 0
    qed_variables_eliminated: int = 0
    qed_clauses_subsumed: int = 0
    qed_preprocess_seconds: float = 0.0
    #: Distributed proof engine work (zero when the run was sequential).
    qed_cubes_solved: int = 0
    qed_cubes_resplit: int = 0
    single_i_runtime_seconds: float = 0.0
    crs_detected: bool = False
    ocsfv_detected: bool = False
    dst_detected: bool = False
    #: Whether the QED verdict is definitive: a violation was found, or no
    #: bound of the run expired its conflict budget (an UNKNOWN-at-budget
    #: "no violation" may still be upgraded by a bigger run -- the serving
    #: layer's cache exploits exactly that monotonicity).
    qed_definitive: bool = True
    #: ``True`` when the submission's wall-clock deadline expired during
    #: the run: the QED verdict is UNKNOWN-truncated and the industrial/
    #: directed stages were skipped.  Always implies non-definitive.
    deadline_expired: bool = False
    #: Serving-layer provenance: ``True`` when this record was answered
    #: from the content-addressed result cache instead of a fresh solve.
    served_from_cache: bool = False
    #: Cache key of the job that produced this record ("" outside the
    #: serving layer).
    cache_key: str = ""

    @property
    def detected_by_symbolic_qed(self) -> bool:
        """Whether any Symbolic QED feature detected the bug."""
        return any(self.detected_by.get(f, False) for f in FEATURE_PRIORITY)

    @property
    def attributed_feature(self) -> Optional[str]:
        """The Fig. 10 attribution (highest-priority detecting feature)."""
        for feature in FEATURE_PRIORITY:
            if self.detected_by.get(feature, False):
                return feature
        return None

    @property
    def detected_by_industrial_flow(self) -> bool:
        """Whether DST, OCS-FV or CRS detected the bug."""
        return self.dst_detected or self.ocsfv_detected or self.crs_detected


#: Record fields that vary run-to-run (wall clocks) or describe *how* the
#: record was obtained rather than *what* was measured.  Equivalence checks
#: (direct campaign vs. served-with-cache) compare everything else.
RECORD_VOLATILE_FIELDS: Tuple[str, ...] = (
    "qed_runtime_seconds",
    "qed_preprocess_seconds",
    "qed_solve_seconds",
    "single_i_runtime_seconds",
    "served_from_cache",
    "cache_key",
)


def record_to_json_dict(record: BugDetectionRecord) -> Dict[str, object]:
    """Full JSON-serializable form of a detection record (all fields)."""
    return asdict(record)


def record_from_json_dict(data: Dict[str, object]) -> BugDetectionRecord:
    """Rebuild a record from :func:`record_to_json_dict` output.

    Unknown keys are ignored so records persisted by a newer serving-layer
    cache still load (the cache entry format is versioned separately).
    """
    known = {f.name for f in BugDetectionRecord.__dataclass_fields__.values()}
    kwargs = {key: value for key, value in data.items() if key in known}
    kwargs["detected_by"] = dict(kwargs.get("detected_by") or {})
    return BugDetectionRecord(**kwargs)


def record_comparable_dict(record: BugDetectionRecord) -> Dict[str, object]:
    """The deterministic core of a record: everything except wall clocks
    and serving provenance (:data:`RECORD_VOLATILE_FIELDS`).

    Two runs of the same job -- direct, through the server, or served from
    the cache -- must agree on this dict byte-for-byte.
    """
    data = record_to_json_dict(record)
    for field_name in RECORD_VOLATILE_FIELDS:
        data.pop(field_name, None)
    return data


@dataclass
class CampaignResult:
    """All detection records of one campaign run."""

    records: List[BugDetectionRecord] = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    def record_for(self, bug_id: str) -> BugDetectionRecord:
        """Look up the record of one bug."""
        for record in self.records:
            if record.bug_id == bug_id:
                return record
        raise KeyError(f"no record for bug {bug_id!r}")


def _version_with_bug(bug_id: str) -> DesignVersion:
    """The earliest design version that contains *bug_id*."""
    for version in ALL_VERSIONS:
        if bug_id in version.bugs:
            return version
    raise KeyError(f"bug {bug_id!r} is not present in any version")


def _run_qed_feature(
    bug: Bug,
    version: DesignVersion,
    config: CampaignConfig,
    record: BugDetectionRecord,
    deadline: Optional[Deadline] = None,
) -> None:
    plan = FOCUS_SETS[bug.bug_id]
    mode = plan["mode"]
    bound = int(plan["bound"]) + config.extra_bound
    opcodes = None if config.exhaustive else plan["opcodes"]

    if mode == "single_i":
        checker = SingleIChecker(version, arch=config.arch)
        with obs_trace.span("single_i.check_all") as check_span:
            results = checker.check_all(
                instructions=None if config.exhaustive else list(plan["opcodes"])
            )
        record.single_i_runtime_seconds = check_span.seconds
        record.detected_by["single_i"] = any(r.violated for r in results)
        return

    harness = SymbolicQED(
        version,
        mode=mode,
        arch=config.arch,
        focus_opcodes=opcodes if mode is not QEDMode.EDDIV_MEM else None,
        tracked_registers=(0,),
    )
    result = harness.check(
        max_bound=bound,
        preprocess=config.preprocess,
        max_conflicts_per_query=config.max_conflicts_per_query,
        split=config.split,
        deadline=deadline,
    )
    feature = {
        QEDMode.EDDIV: "eddiv",
        QEDMode.EDDIV_CF: "qed_cf",
        QEDMode.EDDIV_MEM: "qed_mem",
    }[mode]
    record.detected_by[feature] = result.found_violation
    record.qed_definitive = result.found_violation or all(
        stats.verdict != "unknown" for stats in result.per_bound_stats
    )
    record.qed_runtime_seconds = result.runtime_seconds
    record.qed_counterexample_cycles = result.counterexample_cycles
    record.qed_counterexample_instructions = result.counterexample_instructions
    record.qed_solver_conflicts = result.solver_conflicts
    record.qed_solver_propagations = result.solver_propagations
    record.qed_solve_seconds = result.solve_seconds
    record.qed_learned_clauses = result.learned_clauses
    record.qed_learned_clauses_reused = result.learned_clauses_reused
    record.qed_variables_eliminated = result.bmc_result.variables_eliminated
    record.qed_clauses_subsumed = result.bmc_result.clauses_subsumed
    record.qed_preprocess_seconds = result.bmc_result.preprocess_seconds
    record.qed_cubes_solved = result.cubes_solved
    record.qed_cubes_resplit = result.cubes_resplit


def detect_bug(
    bug_id: str,
    config: Optional[CampaignConfig] = None,
    *,
    deadline: Optional[Deadline] = None,
) -> BugDetectionRecord:
    """Run every configured technique against one bug (a campaign *job*).

    Each job is self-contained -- it elaborates its own design and solver
    state -- so any worker's solver child can run it: campaigns and served
    jobs alike reach it through :func:`repro.serve.queue.execute_job_spec`,
    whose trace carries the engine's per-bound heartbeats while it runs.

    ``deadline`` is the job's wall-clock budget (the serving layer
    forwards what is left of the submission's ``deadline_seconds``).  It
    threads into the QED BMC run — expiry makes the verdict UNKNOWN and
    the record non-definitive — and skips the industrial-flow and
    directed-test stages when already expired, so the job terminates
    promptly instead of running unbounded.
    """
    config = config or CampaignConfig()
    bug = bug_by_id(bug_id)
    version = _version_with_bug(bug.bug_id)
    # Direct calls get their own trace context here; a queued job (served
    # or part of a campaign) arrives with the collector execute_job_spec
    # installed and must not tear it down.  Tracing never touches the
    # record, so the BugDetectionRecord is byte-identical with
    # observability on or off.
    owned = obs_trace.active() is None
    if owned:
        obs_trace.start_trace()
    job_span = obs_trace.span("detect_bug", bug_id=bug.bug_id)
    try:
        # Structural lint before any harness is built: a malformed version
        # netlist (forged cycle, undriven net) would hang elaboration-side
        # hashing or unrolling.  Memoized per (version, arch), so repeated
        # jobs over the same version pay it once per process.
        with obs_trace.span("detect.lint"):
            check_version_design(version, config.arch)
        record = BugDetectionRecord(
            bug_id=bug.bug_id, version_name=version.name
        )

        with obs_trace.span("detect.qed"):
            _run_qed_feature(bug, version, config, record, deadline)

        expired = deadline is not None and deadline.expired()
        if expired:
            record.deadline_expired = True
            obs_trace.event("deadline.expired", scope="detect_bug")
            obs_metrics.process_metrics().inc(
                "qed_deadline_expiries_total", scope="detect_bug"
            )
            # A record that *skipped requested stages* must never pass for a
            # complete measurement: it is marked non-definitive so the result
            # cache can monotonically upgrade it from a later full run.  When
            # nothing below was requested, the QED engine's own verdict
            # stands -- a violation found before expiry is definitive SAT,
            # and ``_run_qed_feature`` already downgraded any truncated
            # search to non-definitive.
            if config.run_industrial_flow or config.run_directed_tests:
                record.qed_definitive = False
        if config.run_industrial_flow and not expired:
            with obs_trace.span("detect.industrial"):
                crs = ConstrainedRandomSim(
                    version, arch=config.arch, config=config.crs_config
                )
                record.crs_detected = crs.run().detected_bug
                ocsfv = OCSFVChecker(version, arch=config.arch)
                focus = FOCUS_SETS[bug.bug_id]["opcodes"]
                record.ocsfv_detected = ocsfv.check_all(
                    instructions=None
                    if config.exhaustive or focus is None
                    else list(focus)
                ).detected_bug
        if config.run_directed_tests and not expired:
            with obs_trace.span("detect.directed"):
                suite = default_directed_suite(config.arch)
                results = suite.run_all(
                    version, with_extension=version.with_extension
                )
                record.dst_detected = suite.detected_bug(results)

        return record
    finally:
        job_span.close()
        if owned:
            obs_trace.clear()


class CampaignError(RuntimeError):
    """A campaign job ended without a record: its entry raised, or its
    spec was quarantined after repeated solver crashes."""


def selected_bug_ids(config: CampaignConfig) -> List[str]:
    """The bugs a campaign runs, in selection order: ``config.bug_ids``
    (each checked against the bug library), or every bug."""
    if config.bug_ids is None:
        return [bug.bug_id for bug in BUGS]
    return [bug_by_id(str(bug_id)).bug_id for bug_id in config.bug_ids]


def campaign_job_record(
    bug_id: str,
    state: str,
    record: Optional[Dict[str, object]],
    error: Optional[str],
) -> BugDetectionRecord:
    """The record of a terminal campaign job (its *state*, *record* and
    *error* as the queue or the HTTP API reports them); a job that did
    not end ``done`` with a record raises :class:`CampaignError`."""
    if state != "done" or record is None:
        raise CampaignError(
            f"campaign job for bug {bug_id!r} ended {state}: "
            f"{error or 'no record'}"
        )
    return record_from_json_dict(record)


def run_campaign(
    config: Optional[CampaignConfig] = None,
    *,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> CampaignResult:
    """Run the campaign and return the per-bug detection records.

    Each selected bug becomes a :class:`~repro.serve.keys.JobSpec` on an
    in-process :class:`~repro.serve.queue.JobQueue` with ``workers`` local
    fleet workers, so every solve is a fenced lease in a worker's solver
    child: a crashed solver is retried, a spec that keeps crashing is
    quarantined.  Records come back in bug-selection order, identical to
    a serial run apart from the wall-clock fields, and carry their
    provenance: ``cache_key`` and ``served_from_cache``.

    ``cache_dir`` holds the result cache's append-only log (``None``: the
    cache stays in memory).  Re-running with the same directory resumes:
    every job that already finished is a cache hit
    (``served_from_cache=True``) and only the rest are solved.  A changed
    config changes the keys, so no record measured under other knobs is
    ever reused.  A job that ends FAILED raises :class:`CampaignError`.
    """
    # Imported here: repro.serve imports this module when it loads, and
    # only a campaign run needs an event loop.
    import asyncio

    from repro.serve.cache import ResultCache
    from repro.serve.keys import JobSpec
    from repro.serve.queue import JobQueue

    if workers < 1:
        raise ValueError("workers must be at least 1")
    config = config or CampaignConfig()
    bug_ids = selected_bug_ids(config)

    async def run_jobs() -> List[BugDetectionRecord]:
        specs = [JobSpec.from_campaign(bug_id, config) for bug_id in bug_ids]
        queue = JobQueue(cache=ResultCache(cache_dir), workers=workers)
        await queue.start()
        try:
            jobs = [queue.submit(spec) for spec in specs]
            records = []
            for bug_id, job in zip(bug_ids, jobs):
                while not job.state.terminal:
                    await queue.wait(job, since=job.version, timeout=60.0)
                records.append(
                    campaign_job_record(
                        bug_id, job.state.value, job.record, job.error
                    )
                )
            return records
        finally:
            await queue.stop()
            for job_id in queue.traces.job_ids():
                obs_trace.absorb(queue.traces.batch(job_id))
            obs_metrics.process_metrics().merge(queue.metrics.snapshot())

    campaign = CampaignResult()
    # Campaign entry is a trace root for direct runs; each job's queue
    # spans, and the solver child's subtree below them, join it under the
    # campaign span.  The span is the campaign's wall clock.
    owned = obs_trace.active() is None
    if owned:
        obs_trace.start_trace()
    campaign_span = obs_trace.span(
        "run_campaign", workers=workers, jobs=len(bug_ids)
    )
    try:
        campaign.records = asyncio.run(run_jobs())
    finally:
        campaign_span.close()
        if owned:
            obs_trace.clear()
    campaign.wall_clock_seconds = campaign_span.seconds
    return campaign
