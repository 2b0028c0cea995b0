"""Static verification toolchain: lint the verifier before it verifies.

This package is the repo's third check layer.  Layer 0 is the Python type
system (the ``sat``/``bmc``/``expr`` core is annotated for strict mypy,
gated in CI); this package adds two more, both purely static -- no
simulation, no solving:

Layer 1 -- netlist lint (:mod:`repro.analysis.netlist_lint`)
    Structural well-formedness of :class:`repro.rtl.design.Design` netlists:
    combinational-cycle detection (iterative grey/black DFS -- a forged
    cycle would *hang* bit-blasting and unrolling, so this must run
    first), undriven/multiply-driven/dangling nets, width and
    reset-range checks, dead-cone warnings, QED-readiness (the ``qed.*``
    module must be state-isolated from the core, and a ``qed.*``
    instruction input must reach the property cone through the
    state/assumption closure), and bug-library sanity (each buggy
    :class:`~repro.uarch.versions.DesignVersion`'s netlist diff against
    its clean base must stay inside the signals its
    :class:`~repro.uarch.bugs.Bug` declares).  The full check catalog is
    the module docstring of :mod:`repro.analysis.netlist_lint`.

    Wired fail-fast into every solve path: the BMC engine, the campaign
    runner, and the serving layer all call
    :func:`~repro.analysis.netlist_lint.check_design` /
    :func:`~repro.analysis.netlist_lint.check_version_design` before
    building an unroller; the server returns the structured report as a
    400 response instead of solving.

Layer 2 -- code lint (:mod:`repro.analysis.code_lint`)
    AST analyzers (stdlib :mod:`ast` only) for the behavioural invariants
    the test suite cannot see locally: determinism (set iteration order
    must not escape into lists, joins, JSON or cache keys -- the repo
    promises byte-identical records across worker counts and hash seeds),
    fork-safety (no lock/asyncio use reachable from a fork-pool worker
    entry point in ``dist``/``serve``), and hot-loop discipline (loops
    marked ``# hot-loop`` in the flat-arena solver stay attribute- and
    allocation-free).  The check catalog is the module docstring of
    :mod:`repro.analysis.code_lint`.

Both layers emit :class:`~repro.analysis.findings.LintReport` (JSON-able,
renderable) and share the :class:`~repro.analysis.findings.DesignLintError`
fail-fast exception.  ``scripts/lint_repro.py`` runs everything -- both
layers plus mypy when available -- and is the CI ``lint`` job's entry
point; it exits non-zero on any error-severity finding.
"""

from repro.analysis.findings import (
    ERROR,
    WARNING,
    DesignLintError,
    LintFinding,
    LintReport,
)
from repro.analysis.netlist_lint import (
    check_design,
    check_version_design,
    lint_bug_library,
    lint_design,
    lint_version_design,
)
from repro.analysis.code_lint import (
    lint_file,
    lint_files,
    lint_fork_safety,
)

__all__ = [
    "ERROR",
    "WARNING",
    "DesignLintError",
    "LintFinding",
    "LintReport",
    "check_design",
    "check_version_design",
    "lint_bug_library",
    "lint_design",
    "lint_version_design",
    "lint_file",
    "lint_files",
    "lint_fork_safety",
]
