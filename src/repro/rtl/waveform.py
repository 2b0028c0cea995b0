"""Waveform capture for debugging simulator runs.

A :class:`Waveform` records per-cycle snapshots of signal values and can
render a compact textual table or export VCD (value change dump) for external
viewers.  This is the "short counterexample, quick debug" half of the paper's
productivity argument: both BMC counterexamples and simulation failures are
rendered through the same tooling.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional


class Waveform:
    """Per-cycle value capture of a named set of signals."""

    def __init__(self, design_name: str) -> None:
        self.design_name = design_name
        self._cycles: List[int] = []
        self._values: List[Dict[str, int]] = []

    def clear(self) -> None:
        """Drop all recorded cycles."""
        self._cycles.clear()
        self._values.clear()

    def record(
        self,
        cycle: int,
        state_and_inputs: Mapping[str, int],
        outputs: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Record one cycle of signal values."""
        merged = dict(state_and_inputs)
        if outputs:
            merged.update({f"out:{name}": value for name, value in outputs.items()})
        self._cycles.append(cycle)
        self._values.append(merged)

    def __len__(self) -> int:
        return len(self._cycles)

    @property
    def signal_names(self) -> List[str]:
        """All signal names seen in any recorded cycle, sorted."""
        names = set()
        for snapshot in self._values:
            names.update(snapshot)
        return sorted(names)

    def as_table(self, signals: Optional[Iterable[str]] = None) -> str:
        """Render selected signals as a fixed-width text table."""
        selected = list(signals) if signals is not None else self.signal_names
        header = ["cycle"] + selected
        rows = [header]
        for cycle, snapshot in zip(self._cycles, self._values):
            rows.append(
                [str(cycle)]
                + [str(snapshot.get(name, "-")) for name in selected]
            )
        widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
        lines = []
        for row in rows:
            lines.append(
                "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)

    def to_vcd(self, signals: Optional[Iterable[str]] = None) -> str:
        """Render selected signals as a minimal VCD document."""
        selected = list(signals) if signals is not None else self.signal_names
        identifiers = {name: chr(33 + index) for index, name in enumerate(selected)}
        lines = [
            "$date reproduction run $end",
            f"$scope module {self.design_name} $end",
        ]
        for name in selected:
            lines.append(f"$var wire 32 {identifiers[name]} {name} $end")
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        previous: Dict[str, Optional[int]] = {name: None for name in selected}
        for cycle, snapshot in zip(self._cycles, self._values):
            lines.append(f"#{cycle}")
            for name in selected:
                value = snapshot.get(name)
                if value is not None and value != previous[name]:
                    lines.append(f"b{value:b} {identifiers[name]}")
                    previous[name] = value
        return "\n".join(lines) + "\n"
