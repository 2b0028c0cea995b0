"""Core build configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

from repro.isa.arch import ArchParams, TINY_PROFILE


@dataclass(frozen=True)
class CoreConfig:
    """Parameters controlling how a core instance is built.

    Attributes
    ----------
    name:
        Instance name; becomes the elaborated design name.
    arch:
        Architecture profile (data width, register count, memory sizes).
    with_extension:
        Whether the ``SATADD`` extension instruction is implemented
        (Designs B and C implement it, Design A does not).
    rom_interface:
        ``"dual"`` or ``"single"`` -- the instruction-memory interface style.
        Design A uses a dual-ROM interface (even/odd banks); Designs B and C
        use a single ROM.  The interface only matters when a ROM is attached
        for simulation; the bare core exposes a single instruction-injection
        port either way (which is where the QED module hooks in during BMC).
    bugs:
        Identifiers of the seeded bugs to inject (see
        :mod:`repro.uarch.bugs`).
    """

    name: str = "core"
    arch: ArchParams = TINY_PROFILE
    with_extension: bool = False
    rom_interface: str = "dual"
    bugs: FrozenSet[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.rom_interface not in ("dual", "single"):
            raise ValueError("rom_interface must be 'dual' or 'single'")
