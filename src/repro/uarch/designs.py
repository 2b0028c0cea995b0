"""Construction of the study's design versions.

``build_design("A", 5)`` returns the elaborated RTL of Design A version 5
with its documented bugs injected; ``build_design_with_rom`` additionally
returns the ROM testbench helper for simulation-based flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.isa.arch import ArchParams, TINY_PROFILE
from repro.isa.golden import GoldenModel
from repro.rtl.design import Design
from repro.uarch.config import CoreConfig
from repro.uarch.core import build_core
from repro.uarch.rom import RomProgram, attach_rom
from repro.uarch.versions import DesignVersion, version_by_name


def _resolve_version(
    design: Union[str, DesignVersion], version: Optional[int]
) -> DesignVersion:
    if isinstance(design, DesignVersion):
        return design
    if version is None:
        if "." in design:
            return version_by_name(design)
        raise ValueError(
            "a version number is required when passing a family name "
            "(or pass a full name such as 'A.v5')"
        )
    return version_by_name(f"{design}.v{version}")


def config_for_version(
    design: Union[str, DesignVersion],
    version: Optional[int] = None,
    *,
    arch: ArchParams = TINY_PROFILE,
) -> CoreConfig:
    """Return the :class:`CoreConfig` of a design version."""
    info = _resolve_version(design, version)
    return CoreConfig(
        name=info.name,
        arch=arch,
        with_extension=info.with_extension,
        rom_interface=info.rom_interface,
        bugs=info.bugs,
    )


def build_design(
    design: Union[str, DesignVersion],
    version: Optional[int] = None,
    *,
    arch: ArchParams = TINY_PROFILE,
) -> Design:
    """Build the elaborated RTL of a design version.

    Parameters
    ----------
    design:
        Design family name (``"A"``, ``"B"``, ``"C"``) or a
        :class:`~repro.uarch.versions.DesignVersion`.
    version:
        Version number within the family (ignored when a
        :class:`DesignVersion` is passed).
    arch:
        Architecture profile to build at (the study's evaluation uses the
        ``tiny`` profile so BMC runs complete in seconds).
    """
    return build_core(config_for_version(design, version, arch=arch))


def golden_model_for_version(
    design: Union[str, DesignVersion],
    version: Optional[int] = None,
    *,
    arch: ArchParams = TINY_PROFILE,
) -> GoldenModel:
    """The specification (golden) model matching a design version.

    The golden model follows the *specification document* of that version:
    for versions carrying the ``cmpi_carry_spec`` specification bug the model
    agrees with the (incorrect) amended specification, which is what blinds
    the simulation-based flows to that bug.
    """
    info = _resolve_version(design, version)
    return GoldenModel(
        arch,
        with_extension=info.with_extension,
        cmpi_carry_broken="cmpi_carry_spec" in info.bugs,
    )


@dataclass
class DesignWithRom:
    """A design plus the ROM-driving testbench helper."""

    design: Design
    rom: RomProgram
    driver: attach_rom
    version: DesignVersion


def build_design_with_rom(
    design: Union[str, DesignVersion],
    rom: RomProgram,
    version: Optional[int] = None,
    *,
    arch: ArchParams = TINY_PROFILE,
) -> DesignWithRom:
    """Build a design version together with a ROM driver for simulation."""
    info = _resolve_version(design, version)
    elaborated = build_design(info, arch=arch)
    driver = attach_rom(rom, interface=info.rom_interface)
    return DesignWithRom(design=elaborated, rom=rom, driver=driver, version=info)
