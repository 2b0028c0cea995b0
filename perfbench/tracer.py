"""Per-layer self time, timed from outside the program.

A :class:`Tracer` replaces public functions and methods of the program's
modules with timing wrappers (:meth:`Tracer.install`) and puts the
originals back (:meth:`Tracer.uninstall`); nothing under ``src/`` changes.
A wrapped call's *self time* is its duration minus the time its wrapped
children cover, so per-site totals add up to the covered wall time without
counting any interval twice, however the calls nest.  Each thread keeps
its own call stack; the totals are shared under one lock.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``hook(tracer, result)`` turns a wrapped call's return value (the stats
#: objects the program already returns) into :meth:`Tracer.count` calls.
Hook = Callable[["Tracer", object], None]
#: ``(module, qualified name, layer, hook)`` of one function to time; the
#: qualified name doubles as the site name in the tallies.
Target = Tuple[str, str, str, Optional[Hook]]


class Tracer:
    """Self time and call counts per wrapped site, plus hook counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Site -> layer of every wrapped site.
        self.layers: Dict[str, str] = {}
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self._undo: List[Tuple[object, str, object]] = []

    # -- timing ---------------------------------------------------------
    def wrap(
        self, fn: Callable, site: str, layer: str, hook: Optional[Hook] = None
    ) -> Callable:
        """*fn*, timed as *site* of *layer*."""
        clock = self._clock
        local = self._local
        self.layers[site] = layer

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)  # time covered by wrapped children
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._record(site, elapsed - covered)
            if hook is not None:
                hook(self, result)
            return result

        return timed

    def _record(self, site: str, seconds: float) -> None:
        with self._lock:
            self.self_seconds[site] = self.self_seconds.get(site, 0.0) + seconds
            self.calls[site] = self.calls.get(site, 0) + 1

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- aggregation ----------------------------------------------------
    def layer_seconds(self, layer: str) -> float:
        return sum(
            seconds
            for site, seconds in self.self_seconds.items()
            if self.layers[site] == layer
        )

    def layer_calls(self, layer: str) -> int:
        return sum(
            calls for site, calls in self.calls.items() if self.layers[site] == layer
        )

    def total_self_seconds(self) -> float:
        return sum(self.self_seconds.values())

    def to_json_dict(self) -> Dict[str, Dict[str, object]]:
        return {
            "layers": dict(self.layers),
            "self_seconds": dict(self.self_seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def absorb(self, data: Dict[str, Dict[str, object]]) -> None:
        """Add another process's :meth:`to_json_dict` tallies to these."""
        with self._lock:
            self.layers.update(data["layers"])
            for name in ("self_seconds", "calls", "counts"):
                totals = getattr(self, name)
                for key, value in data[name].items():
                    totals[key] = totals.get(key, 0) + value

    # -- patching -------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target in place.

        A module that imported a wrapped function by name calls its own
        binding, so every ``repro`` module bound to the original gets the
        wrapper too (``preprocess`` as bound in ``repro.bmc.engine``).
        """
        for module_name, qualname, layer, hook in targets:
            module = importlib.import_module(module_name)
            owner: object = module
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            timed = self.wrap(original, qualname, layer, hook)
            self._patch(owner, attr, timed)
            if owner is not module:
                continue
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if (
                    other is not module
                    and name.split(".")[0] == "repro"
                    and vars(other).get(attr) is original
                ):
                    self._patch(other, attr, timed)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
