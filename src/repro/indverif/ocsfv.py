"""OCS-FV: the case study's in-house property-based formal flow.

OCS-FV generates one property per instruction (Fig. 2 of the paper) and
proves it on the pipeline with BMC.  Its weakness -- and the reason every
recorded bug escaped it -- is the manual work needed to avoid false failures:

* interactions with other in-flight instructions are excluded by constraints
  (modelled here by proving each property from the concrete reset state with
  an otherwise empty pipeline, i.e. operand values are *not* symbolic), and
* "human error" details are missing from the hand-maintained properties
  (modelled here by omitting the carry-flag checks).

Structurally the properties are the same shape as the Single-I properties of
:mod:`repro.qed.single_i`; the two flows differ exactly in the settings above,
which is what makes the comparison between them meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.isa.arch import ArchParams, TINY_PROFILE
from repro.qed.single_i import SingleIChecker, SingleIResult
from repro.uarch.config import CoreConfig
from repro.uarch.versions import DesignVersion


@dataclass
class OCSFVResult:
    """Outcome of running the OCS-FV property set on one design version."""

    design_name: str
    results: List[SingleIResult] = field(default_factory=list)

    @property
    def failing_properties(self) -> List[str]:
        """Instructions whose OCS-FV property failed."""
        return [r.instruction for r in self.results if r.violated]

    @property
    def detected_bug(self) -> bool:
        """Whether any property failed (i.e. OCS-FV observed a bug)."""
        return bool(self.failing_properties)


class OCSFVChecker:
    """Run the OCS-FV property set on a design version."""

    def __init__(
        self,
        design: Union[CoreConfig, DesignVersion, str],
        *,
        arch: ArchParams = TINY_PROFILE,
    ) -> None:
        # Concrete (non-symbolic) operands and no carry checks: the two
        # deliberate weaknesses described in the module docstring.
        self._checker = SingleIChecker(
            design,
            arch=arch,
            symbolic_operands=False,
            check_carry=False,
            name_prefix="ocsfv",
        )
        self.design_name = self._checker.config.name

    def check_all(self, *, instructions: Optional[List[str]] = None) -> OCSFVResult:
        """Prove every per-instruction property; collect the failures."""
        results = self._checker.check_all(instructions=instructions)
        return OCSFVResult(design_name=self.design_name, results=results)
