"""Symbolic Quick Error Detection (the paper's contribution).

The package implements the full Symbolic QED stack used in the case study:

* :mod:`repro.qed.eddiv` -- the EDDI-V transformation rules: register and
  memory pairing, the instruction subsets each QED mode may inject, and the
  word-level duplicate-instruction transformation.
* :mod:`repro.qed.qed_module` -- the QED module of [Ganesan 18]: inserted at
  the fetch interface during BMC only, it turns an arbitrary valid
  instruction stream chosen by the BMC tool into an interleaved
  original/duplicate EDDI-V sequence using an internal queue.
* :mod:`repro.qed.qed_cf` -- the Enhanced EDDI-V control-flow extension: the
  QED-CF module of Fig. 5, which records original branch outcomes and, on a
  mismatch with the duplicate outcome, lets the BMC tool inject an arbitrary
  instruction so the error surfaces as an EDDI-V check failure.
* :mod:`repro.qed.qed_mem` -- the Enhanced EDDI-V duplication-using-memory
  extension: original and duplicate results are spilled to disjoint memory
  regions and compared there, allowing instructions with fixed destination
  registers to participate in QED sequences.
* :mod:`repro.qed.consistency` -- the register/memory pair consistency
  property, checked from the (QED-consistent) reset state.
* :mod:`repro.qed.single_i` -- Single-Instruction properties generated from
  the ISA catalogue (the architectural intent), with symbolic operands.
* :mod:`repro.qed.harness` -- the user-facing :class:`SymbolicQED` harness
  that composes a design with the chosen QED modules, runs BMC and
  interprets counterexamples as QED instruction sequences.
"""

from repro.qed.eddiv import EDDIVMapping, QEDMode, allowed_instructions
from repro.qed.consistency import qed_consistency_property
from repro.qed.single_i import SingleIChecker, SingleIResult, single_i_property
from repro.qed.harness import QEDCheckResult, SymbolicQED
from repro.qed.counterexample import QEDCounterexample, interpret_counterexample

__all__ = [
    "EDDIVMapping",
    "QEDMode",
    "allowed_instructions",
    "qed_consistency_property",
    "SingleIChecker",
    "SingleIResult",
    "single_i_property",
    "QEDCheckResult",
    "SymbolicQED",
    "QEDCounterexample",
    "interpret_counterexample",
]
