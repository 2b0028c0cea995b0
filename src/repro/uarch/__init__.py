"""Microcontroller core designs (the devices under verification).

The package builds a family of 2-stage in-order pipelined microcontroller
cores equivalent (at reduced scale) to the industrial Designs A, B and C of
the paper:

* Design A -- base feature set, dual-ROM instruction interface.
* Design B -- single-ROM interface, one additional instruction (``SATADD``).
* Design C -- single-ROM interface, ``SATADD``, extended monitoring.

Sixteen RTL versions are provided (A.v3-A.v8, B.v2-B.v6, C.v2-C.v6), each
carrying the seeded logic/specification bugs documented in
:mod:`repro.uarch.bugs`.  The final version of each design family is bug-free
except for the Design-A specification issue that the paper reports as the
"+7%" uniquely detected by Symbolic QED.
"""

from repro.uarch.config import CoreConfig
from repro.uarch.core import CORE_OUTPUTS, build_core, build_core_circuit
from repro.uarch.bugs import Bug, BUGS, bug_by_id
from repro.uarch.versions import (
    DesignVersion,
    ALL_VERSIONS,
    final_version,
    version_by_name,
    versions_of_design,
)
from repro.uarch.designs import build_design, build_design_with_rom
from repro.uarch.rom import RomProgram, attach_rom

__all__ = [
    "CoreConfig",
    "CORE_OUTPUTS",
    "build_core",
    "build_core_circuit",
    "Bug",
    "BUGS",
    "bug_by_id",
    "DesignVersion",
    "ALL_VERSIONS",
    "final_version",
    "version_by_name",
    "versions_of_design",
    "build_design",
    "build_design_with_rom",
    "RomProgram",
    "attach_rom",
]
