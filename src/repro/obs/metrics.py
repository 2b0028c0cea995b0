"""Process-local metrics: counters, gauges, histograms, Prometheus text.

A :class:`MetricsRegistry` is a plain in-process accumulator -- no locks,
no background threads, no sockets -- which is what makes it safe to
inherit across ``fork()`` and to live inside the fork-safety lint scope.
Cross-process aggregation is *explicit*: a forked worker's
:func:`repro.obs.trace.capture` swaps a fresh process registry in for the
duration of the work, ships its :meth:`~MetricsRegistry.snapshot` as the
delta over the pipe it already reports on, and merges it back into the
registry it swapped out; the parent folds the delta in with
:meth:`~MetricsRegistry.merge`.  Counters and histograms add, gauges take
the most recent value.

Two registries matter in practice:

* the **process registry** (:func:`process_metrics`): bumped by the
  instrumented engine/solver/scheduler wherever they run, and the source
  of worker deltas;
* the serve queue's **own registry**: queue-side counters plus every
  merged worker delta -- what ``GET /metrics`` renders.

Rendering is the Prometheus text exposition format, deterministically
ordered (sorted metric names, sorted label sets) so scrapes diff cleanly;
:func:`parse_prometheus` is the inverse good enough for tests and the CI
smoke assertion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "parse_prometheus",
    "process_metrics",
    "reset_process_metrics",
    "swap_process_metrics",
]

#: Histogram bucket upper bounds in seconds (Prometheus defaults, +inf
#: implicit).  Tuned for queue waits and solve stages: 5ms..60s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: A label set in canonical form: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]
Snapshot = Dict[str, object]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in pairs
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Counters, gauges and histograms for one process (no locks)."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        # name -> labels -> [count, sum, bucket_counts...]; bucket bounds
        # are DEFAULT_BUCKETS for every histogram (uniform keeps merge
        # trivial and the text format honest).
        self._histograms: Dict[str, Dict[LabelKey, List[float]]] = {}

    # -- recording ------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        """Add *value* to a (monotonic) counter."""
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge to its current value (last write wins on merge)."""
        self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record one histogram observation."""
        series = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        cells = series.get(key)
        if cells is None:
            cells = [0.0, 0.0] + [0.0] * len(DEFAULT_BUCKETS)
            series[key] = cells
        cells[0] += 1.0
        cells[1] += value
        for index, bound in enumerate(DEFAULT_BUCKETS):
            if value <= bound:
                cells[2 + index] += 1.0

    def counter_value(self, name: str, **labels: str) -> float:
        """Current value of one counter series (0.0 when absent)."""
        return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """A JSON-safe copy of every series (labels as sorted pair lists)."""
        return {
            "counters": {
                name: [[list(map(list, key)), value] for key, value in
                       sorted(series.items())]
                for name, series in sorted(self._counters.items())
            },
            "gauges": {
                name: [[list(map(list, key)), value] for key, value in
                       sorted(series.items())]
                for name, series in sorted(self._gauges.items())
            },
            "histograms": {
                name: [[list(map(list, key)), list(cells)] for key, cells in
                       sorted(series.items())]
                for name, series in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Snapshot) -> None:
        """Fold a snapshot (usually a child-process delta) into this one."""
        counters = snapshot.get("counters")
        if isinstance(counters, dict):
            for name, rows in counters.items():
                series = self._counters.setdefault(str(name), {})
                for pairs, value in rows:
                    key = tuple((str(k), str(v)) for k, v in pairs)
                    series[key] = series.get(key, 0.0) + float(value)
        gauges = snapshot.get("gauges")
        if isinstance(gauges, dict):
            for name, rows in gauges.items():
                series = self._gauges.setdefault(str(name), {})
                for pairs, value in rows:
                    key = tuple((str(k), str(v)) for k, v in pairs)
                    series[key] = float(value)
        histograms = snapshot.get("histograms")
        if isinstance(histograms, dict):
            for name, rows in histograms.items():
                series = self._histograms.setdefault(str(name), {})
                for pairs, cells in rows:
                    key = tuple((str(k), str(v)) for k, v in pairs)
                    existing = series.get(key)
                    if existing is None:
                        series[key] = [float(c) for c in cells]
                    else:
                        for index, cell in enumerate(cells):
                            if index < len(existing):
                                existing[index] += float(cell)

    # -- rendering ------------------------------------------------------
    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, deterministically ordered."""
        lines: List[str] = []
        for name in sorted(self._counters):
            lines.append(f"# TYPE {name} counter")
            for key in sorted(self._counters[name]):
                value = self._counters[name][key]
                lines.append(
                    f"{name}{_render_labels(key)} {_format_value(value)}"
                )
        for name in sorted(self._gauges):
            lines.append(f"# TYPE {name} gauge")
            for key in sorted(self._gauges[name]):
                value = self._gauges[name][key]
                lines.append(
                    f"{name}{_render_labels(key)} {_format_value(value)}"
                )
        for name in sorted(self._histograms):
            lines.append(f"# TYPE {name} histogram")
            for key in sorted(self._histograms[name]):
                cells = self._histograms[name][key]
                # observe() fills buckets cumulatively already (every
                # bound >= the value is bumped), matching the exposition
                # format's le-semantics directly.
                for index, bound in enumerate(DEFAULT_BUCKETS):
                    label = _render_labels(key, ("le", _format_value(bound)))
                    lines.append(
                        f"{name}_bucket{label} {_format_value(cells[2 + index])}"
                    )
                inf_label = _render_labels(key, ("le", "+Inf"))
                lines.append(
                    f"{name}_bucket{inf_label} {_format_value(cells[0])}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(key)} {_format_value(cells[1])}"
                )
                lines.append(
                    f"{name}_count{_render_labels(key)} {_format_value(cells[0])}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text into ``{"name{labels}": value}`` (tests/CI).

    Comment lines are skipped; a malformed sample line raises, which is
    exactly what the smoke job wants from "parses as Prometheus text".
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line: {line!r}")
        samples[name_part] = float(value_part)
    return samples


# ----------------------------------------------------------------------
_PROCESS = MetricsRegistry()


def process_metrics() -> MetricsRegistry:
    """This process's ambient registry (always present, never ``None``)."""
    return _PROCESS


def swap_process_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as the process registry; returns the previous one."""
    global _PROCESS
    previous, _PROCESS = _PROCESS, registry
    return previous


def reset_process_metrics() -> MetricsRegistry:
    """Swap in a fresh process registry (test isolation helper)."""
    fresh = MetricsRegistry()
    swap_process_metrics(fresh)
    return fresh
