"""Finding and report types shared by both analysis layers.

A lint pass produces a :class:`LintReport`: a subject (design name or file
path) plus a flat list of :class:`LintFinding` entries.  Findings carry a
stable check identifier (``netlist.comb-cycle``, ``code.set-order-escape``,
...) so callers can gate on specific checks, a severity (only ``error``
blocks; ``warning`` informs), and a human-readable location/message pair.

Reports serialize to JSON (:meth:`LintReport.to_json_dict`) -- that is the
wire form the serving layer returns when it rejects a job spec instead of
solving it -- and render to text (:meth:`LintReport.render`) for the CLI.

:class:`DesignLintError` is the fail-fast face of the same data: the BMC
engine and the campaign runner raise it (carrying the report) when a design
fails lint with errors, so no solver is ever built over a malformed netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class LintFinding:
    """One check hit at one location."""

    check: str      # stable identifier, e.g. "netlist.comb-cycle"
    severity: str   # ERROR or WARNING
    where: str      # signal name, "file:line", function name, ...
    message: str

    def __post_init__(self) -> None:
        if self.severity not in (ERROR, WARNING):
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_json_dict(self) -> Dict[str, str]:
        return {
            "check": self.check,
            "severity": self.severity,
            "where": self.where,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.severity}: {self.check}: {self.where}: {self.message}"


@dataclass
class LintReport:
    """All findings of one lint pass over one subject."""

    subject: str
    findings: List[LintFinding] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add(
        self, check: str, where: str, message: str, *, severity: str = ERROR
    ) -> None:
        self.findings.append(LintFinding(check, severity, where, message))

    def extend(self, other: "LintReport") -> None:
        """Fold another report's findings into this one."""
        self.findings.extend(other.findings)

    # ------------------------------------------------------------------
    @property
    def errors(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def ok(self) -> bool:
        """True iff the subject is clean enough to proceed (no errors)."""
        return not self.errors

    def by_check(self, check: str) -> List[LintFinding]:
        return [f for f in self.findings if f.check == check]

    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "findings": [f.to_json_dict() for f in self.findings],
        }

    def render(self) -> str:
        lines = [
            f"{self.subject}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        ]
        lines.extend("  " + f.render() for f in self.findings)
        return "\n".join(lines)


class DesignLintError(ValueError):
    """A design failed structural lint; carries the full report.

    Raised by the engine/campaign/serving prechecks *before* any unrolling,
    CNF generation or solving happens -- a malformed netlist (for example a
    forged combinational cycle) would otherwise hang bit-blasting and
    unrolling, which both walk the expression graph expecting a DAG.
    """

    def __init__(self, report: LintReport) -> None:
        self.report = report
        first = report.errors[0] if report.errors else None
        detail = f": {first.render()}" if first is not None else ""
        super().__init__(
            f"design {report.subject!r} failed lint with "
            f"{len(report.errors)} error(s){detail}"
        )


ReportLike = Union[LintReport, Dict[str, object]]
