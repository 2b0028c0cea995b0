"""The end-to-end Symbolic QED harness.

:class:`SymbolicQED` is the user-facing entry point mirroring how the
verification engineers of the case study ran the technique: pick a design
version, pick a QED configuration (baseline EDDI-V, Enhanced EDDI-V with the
QED-CF module, or Enhanced EDDI-V with duplication using memory), and run the
bounded model checker from the QED-consistent start state.  No design-specific
properties are written at any point -- the QED module and the generic
consistency property are the whole specification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple, Union

from repro.bmc.engine import BMCProblem, BMCResult, BMCStatus, BoundedModelChecker
from repro.bmc.property import SafetyProperty
from repro.deadline import Deadline
from repro.dist.scheduler import SplitConfig
from repro.expr.bitvec import BVVar
from repro.isa.arch import ArchParams, TINY_PROFILE
from repro.obs import trace as obs_trace
from repro.qed.consistency import (
    qed_consistency_property,
    qed_memory_consistency_property,
)
from repro.qed.counterexample import QEDCounterexample, interpret_counterexample
from repro.qed.eddiv import EDDIVMapping, QEDMode
from repro.qed.qed_cf import build_qed_cf_module
from repro.qed.qed_mem import build_qed_mem_module
from repro.qed.qed_module import build_qed_module
from repro.rtl.circuit import Circuit
from repro.rtl.design import Design, elaborate
from repro.uarch.config import CoreConfig
from repro.uarch.core import build_core_circuit
from repro.uarch.designs import config_for_version
from repro.uarch.versions import DesignVersion

#: Default BMC bound, chosen to cover every counterexample in the bug library
#: with a small margin (the paper's counterexamples are at most 11 cycles).
DEFAULT_MAX_BOUND = 12


@dataclass
class QEDCheckResult:
    """Outcome of one Symbolic QED run."""

    design_name: str
    mode: QEDMode
    bmc_result: BMCResult
    counterexample: Optional[QEDCounterexample] = None

    @property
    def found_violation(self) -> bool:
        """Whether a QED failure (i.e. a bug) was found within the bound."""
        return self.bmc_result.status is BMCStatus.VIOLATION

    @property
    def runtime_seconds(self) -> float:
        """BMC runtime of the run."""
        return self.bmc_result.runtime_seconds

    @property
    def per_bound_stats(self):
        """Per-bound solver statistics (see :class:`repro.bmc.engine.BoundStats`)."""
        return self.bmc_result.per_bound_stats

    @property
    def solver_conflicts(self) -> int:
        """Total SAT conflicts across every bound of the run."""
        return self.bmc_result.total_conflicts

    @property
    def solver_propagations(self) -> int:
        """Total unit propagations across every bound of the run."""
        return self.bmc_result.total_propagations

    @property
    def solve_seconds(self) -> float:
        """Wall-clock inside the solver (excludes encode/preprocess)."""
        return self.bmc_result.solve_seconds

    @property
    def learned_clauses(self) -> int:
        """Clauses learned by the shared solver across the whole run."""
        return self.bmc_result.total_learned_clauses

    @property
    def learned_clauses_reused(self) -> int:
        """Learned clauses inherited by later bounds from earlier ones."""
        return self.bmc_result.learned_clauses_reused

    @property
    def cubes_solved(self) -> int:
        """Cubes answered by the distributed proof engine (0 sequential)."""
        return self.bmc_result.cubes_solved

    @property
    def cubes_resplit(self) -> int:
        """Dynamic cube re-splits across the run (0 sequential)."""
        return self.bmc_result.cubes_resplit

    @property
    def counterexample_cycles(self) -> int:
        """Counterexample length in clock cycles (0 if none)."""
        return self.counterexample.length_cycles if self.counterexample else 0

    @property
    def counterexample_instructions(self) -> int:
        """Counterexample length in instructions (0 if none)."""
        return (
            self.counterexample.length_instructions if self.counterexample else 0
        )

    def counterexample_report(self) -> str:
        """Human-readable report (empty string when no violation)."""
        return self.counterexample.report() if self.counterexample else ""


class SymbolicQED:
    """Compose a design with the QED modules and check QED consistency."""

    def __init__(
        self,
        design: Union[CoreConfig, DesignVersion, str],
        *,
        mode: QEDMode = QEDMode.EDDIV,
        arch: ArchParams = TINY_PROFILE,
        queue_depth: int = 2,
        tracked_registers: Sequence[int] = (0,),
        focus_opcodes: Optional[Sequence[str]] = None,
    ) -> None:
        if isinstance(design, CoreConfig):
            self.config = design
        else:
            self.config = config_for_version(design, arch=arch)
        self.mode = mode
        self.queue_depth = queue_depth
        self.tracked_registers = tuple(tracked_registers)
        self.focus_opcodes = focus_opcodes
        self.mapping = EDDIVMapping(self.config.arch)

        with obs_trace.span("qed.build", mode=mode.value):
            self.design, self.prop = self._compose()

    # ------------------------------------------------------------------
    def _compose(self) -> Tuple[Design, SafetyProperty]:
        config = self.config
        arch = config.arch
        circuit = Circuit(f"{config.name}+qed[{self.mode.value}]")
        build_core_circuit(config, circuit)

        instr_in = BVVar("instr_in", arch.instr_width)
        instr_valid = BVVar("instr_valid", 1)

        if self.mode in (QEDMode.EDDIV, QEDMode.EDDIV_CF):
            qed = build_qed_module(
                circuit,
                config,
                mode=self.mode,
                queue_depth=self.queue_depth,
                focus_opcodes=self.focus_opcodes,
            )
            instruction_out = qed.instruction_out
            valid_out = qed.valid_out
            if self.mode is QEDMode.EDDIV_CF:
                cf = build_qed_cf_module(circuit, config, qed)
                instruction_out = cf.instruction_out
                valid_out = cf.valid_out
            prop = qed_consistency_property(arch, qed)
        elif self.mode is QEDMode.EDDIV_MEM:
            mem = build_qed_mem_module(
                circuit, config, tracked_registers=self.tracked_registers
            )
            instruction_out = mem.instruction_out
            valid_out = mem.valid_out
            prop = qed_memory_consistency_property(arch, mem)
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unsupported QED mode {self.mode}")

        # Tie the QED module to the core's fetch interface.  The core's
        # instruction port stays a primary input of the model; the equality
        # constraints below are how the BMC tool "wires" the module in, which
        # keeps the counterexample traces directly replayable.
        circuit.assume("qed_wiring_instruction", instr_in.eq(instruction_out))
        circuit.assume("qed_wiring_valid", instr_valid.eq(valid_out))

        # Expose the injected stream for counterexample interpretation.
        circuit.output("qed_instruction_to_core", instruction_out)
        circuit.output("qed_valid_to_core", valid_out)

        design = elaborate(circuit)
        return design, prop

    # ------------------------------------------------------------------
    def check(
        self,
        *,
        max_bound: int = DEFAULT_MAX_BOUND,
        single_query: bool = True,
        preprocess: bool = True,
        max_conflicts_per_query: Optional[int] = None,
        split: Optional[SplitConfig] = None,
        deadline: Optional[Deadline] = None,
    ) -> QEDCheckResult:
        """Run BMC from the QED-consistent start state up to *max_bound*.

        With ``single_query=True`` (the default) the engine asks one SAT
        question -- "is there a violation at any cycle up to the bound?" --
        which matches how a commercial engine would be invoked and keeps the
        pure-Python backend fast.  ``single_query=False`` reproduces the
        textbook incremental-bound loop.

        ``preprocess`` toggles the CNF formula-reduction pipeline (on by
        default; ablations turn it off), and ``max_conflicts_per_query``
        forwards a per-bound solver budget -- the engine answers UNKNOWN for
        a bound whose budget expires, which conflict-budget depth ablations
        use to compare how deep different pipelines prove.

        ``split`` routes every bound's query through the distributed proof
        engine (:mod:`repro.dist`): cube-and-conquer over the QED property
        window and the instruction-port bits (the focus-set opcode choice),
        fanned over ``split.workers`` processes.  Unless the config already
        names preferred split inputs, the harness points it at the core's
        instruction port so cubes partition by injected opcode.

        ``deadline`` forwards a wall-clock budget to the engine (and from
        there into the solver and cube workers); an expired deadline
        degrades the check to UNKNOWN at the current bound, never to a
        wrong verdict (``bmc_result.deadline_expired`` records it).
        """
        if split is not None and not split.prefer_input_prefixes:
            split = replace(split, prefer_input_prefixes=("instr_in",))
        problem = BMCProblem(
            design=self.design,
            prop=self.prop,
            assumptions=(),
            max_bound=max_bound,
            bound_schedule=[max_bound] if single_query else None,
            preprocess=preprocess,
            max_conflicts_per_query=max_conflicts_per_query,
            split=split,
        )
        result = BoundedModelChecker(problem).run(deadline=deadline)

        counterexample: Optional[QEDCounterexample] = None
        if result.status is BMCStatus.VIOLATION and result.counterexample:
            counterexample = interpret_counterexample(
                self.config.arch,
                result.counterexample,
                mode=self.mode.value,
                register_pairs=self.mapping.register_pairs(),
                memory_pairs=self.mapping.memory_pairs(),
            )
        return QEDCheckResult(
            design_name=self.config.name,
            mode=self.mode,
            bmc_result=result,
            counterexample=counterexample,
        )
