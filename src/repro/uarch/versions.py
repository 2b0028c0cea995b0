"""The sixteen design versions analysed in the case study.

The paper studies three designs derived from a common ancestor: Design A
(six accessible versions, ``A.v3`` ... ``A.v8``), Design B and Design C (five
accessible versions each).  Each version reflects an RTL update that adds a
feature and/or fixes a bug; some bugs were specification bugs and were fixed
in the specification rather than the RTL.

We mirror that structure: every :class:`DesignVersion` lists the bugs still
present in that version, and the final versions are clean except for the
Design-A specification issue (``cmpi_carry_spec``) that the industrial flow
never recorded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING

from repro.uarch.bugs import bug_by_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (designs -> versions)
    from repro.isa.arch import ArchParams


@dataclass(frozen=True)
class DesignVersion:
    """One RTL version of one design family."""

    design: str             # "A", "B" or "C"
    version: int            # version number within the family
    bugs: FrozenSet[str]    # bug ids present in this version
    change_note: str        # what changed relative to the previous version

    @property
    def name(self) -> str:
        """Canonical name, e.g. ``A.v3``."""
        return f"{self.design}.v{self.version}"

    @property
    def with_extension(self) -> bool:
        """Whether this design family implements the SATADD extension."""
        return self.design in ("B", "C")

    @property
    def rom_interface(self) -> str:
        """ROM interface style of the design family."""
        return "dual" if self.design == "A" else "single"

    def fingerprint(self, arch: Optional["ArchParams"] = None) -> str:
        """Content hash of this version's RTL as built for *arch*.

        The version's core is elaborated (bugs injected) and the resulting
        netlist is hashed structurally
        (:meth:`repro.rtl.design.Design.structural_hash`), so the
        fingerprint identifies the design *content*, not the version name:
        two versions whose injected netlists coincide share a fingerprint,
        and any RTL-generator or bug-library change shifts it.  This is the
        invalidation key of the serving layer's result cache -- stale
        cached verdicts become unreachable the moment the content changes.

        The netlist is the process's shared one
        (:func:`repro.uarch.core.build_core`); hashing it takes about 2 ms,
        so fingerprints are memoized per ``(version, arch)``.
        """
        from repro.isa.arch import TINY_PROFILE

        return _fingerprint(self, arch if arch is not None else TINY_PROFILE)


@functools.lru_cache(maxsize=None)
def _fingerprint(version: DesignVersion, arch: "ArchParams") -> str:
    # Imported here: repro.uarch.designs imports this module at load time.
    import hashlib
    import json

    from repro.uarch.designs import build_design

    design = build_design(version, arch=arch)
    payload = json.dumps(
        {
            "format": 1,
            "arch": arch.to_json_dict(),
            "netlist": design.structural_hash(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _v(design: str, version: int, bugs: Tuple[str, ...], note: str) -> DesignVersion:
    for bug_id in bugs:
        bug_by_id(bug_id)  # validate
    return DesignVersion(design, version, frozenset(bugs), note)


#: The sixteen versions of the study.  Design A exposes versions 3..8 (the
#: first two versions were not accessible, matching the paper's "first i
#: versions" caveat), Designs B and C expose versions 2..6.
ALL_VERSIONS: List[DesignVersion] = [
    # ----------------------------------------------------------- Design A
    _v(
        "A", 3,
        ("wrport_collision", "alu_after_load"),
        "first accessible version; write-port and load-use issues present",
    ),
    _v(
        "A", 4,
        ("consecutive_sub", "bz_flag_misread"),
        "fixes write-port and load-use issues; introduces SUB pairing and BZ "
        "flag selection regressions while adding the extended compare unit",
    ),
    _v(
        "A", 5,
        ("consecutive_sub", "ldil_after_load"),
        "fixes the BZ flag selection; LDIL fast path added with a load "
        "interaction regression",
    ),
    _v(
        "A", 6,
        ("sra_zero_fill", "bnz_carry_confusion"),
        "fixes SUB pairing and LDIL; shifter rewritten (SRA regression) and "
        "branch unit retimed (BNZ regression)",
    ),
    _v(
        "A", 7,
        ("cmpi_carry_spec",),
        "fixes SRA and BNZ; CMPI flag behaviour changed and the specification "
        "document amended to match (specification bug)",
    ),
    _v(
        "A", 8,
        ("cmpi_carry_spec",),
        "final version of Design A; no logic bugs, the CMPI specification "
        "deviation remains (never recorded by the industrial flow)",
    ),
    # ----------------------------------------------------------- Design B
    _v(
        "B", 2,
        ("st_ld_stale", "satadd_clamp"),
        "first accessible version; single-ROM interface, SATADD extension "
        "added with a saturation regression, store buffer issue present",
    ),
    _v(
        "B", 3,
        ("jr_target_offby1",),
        "fixes the store buffer and SATADD saturation; jump unit extended "
        "for upper-half registers with an off-by-one regression",
    ),
    _v(
        "B", 4,
        ("ror_direction",),
        "fixes JR; rotate unit shared with the new CRC block (ROR regression)",
    ),
    _v(
        "B", 5,
        ("inplace_after_store",),
        "fixes ROR; write-back arbitration reworked (in-place update "
        "regression)",
    ),
    _v(
        "B", 6,
        (),
        "final version of Design B; no known bugs",
    ),
    # ----------------------------------------------------------- Design C
    _v(
        "C", 2,
        ("beq_high_inverted", "alu_after_load"),
        "first accessible version; comparator bank duplicated for the upper "
        "half (BEQ regression), load-use issue inherited from Design 1",
    ),
    _v(
        "C", 3,
        ("beq_high_inverted",),
        "fixes the load-use issue; BEQ regression still present",
    ),
    _v(
        "C", 4,
        ("wrport_collision",),
        "fixes BEQ; write-port arbitration shared with the new DMA port "
        "(write collision regression reappears)",
    ),
    _v(
        "C", 5,
        (),
        "fixes the write collision; feature-only update",
    ),
    _v(
        "C", 6,
        (),
        "final version of Design C; no known bugs",
    ),
]

_BY_NAME: Dict[str, DesignVersion] = {v.name: v for v in ALL_VERSIONS}


def version_by_name(name: str) -> DesignVersion:
    """Look up a version by canonical name (e.g. ``"A.v5"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown design version {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def versions_of_design(design: str) -> List[DesignVersion]:
    """All accessible versions of one design family, oldest first."""
    selected = [v for v in ALL_VERSIONS if v.design == design]
    if not selected:
        raise KeyError(f"unknown design family {design!r}")
    return sorted(selected, key=lambda v: v.version)


def final_version(design: str) -> DesignVersion:
    """The final (most recent) version of a design family."""
    return versions_of_design(design)[-1]


def buggy_versions() -> List[DesignVersion]:
    """All versions that contain at least one bug."""
    return [v for v in ALL_VERSIONS if v.bugs]


def unique_bugs() -> FrozenSet[str]:
    """The set of distinct bug ids present across all versions."""
    bugs: set = set()
    for version in ALL_VERSIONS:
        bugs |= version.bugs
    return frozenset(bugs)
