"""Deterministic seeded fault injection for the solve fabric.

The chaos harness (``tests/chaos/``) needs to *reproducibly* kill a
worker at the nth progress event, tear a cache-log write mid-record,
drop or duplicate an observability batch (``serve.queue.progress``, one
hit per batch an entry ships), slow a solver down, or reset a
client connection — and then assert that the stack still reaches a
terminal state with a fault-free-consistent verdict.  This module is
the single switchboard those injection points talk to.

Usage::

    from repro import faults

    inj = faults.FaultInjector(
        [faults.FaultSpec(site="serve.queue.progress", action="kill",
                          at=2, once=True)],
        seed=7,
        token_dir=tmp_path,
    )
    faults.install(inj)
    try:
        ...  # run the workload
    finally:
        faults.clear()

Production call sites call the module-level helpers
(:func:`crash_point`, :func:`message_fate`, :func:`mangle_write`),
which are a single ``is None`` branch when no injector is installed —
cheap enough to leave compiled into the real paths.

Design constraints:

* **Fork-compatible.**  Injection points live inside forked pool
  workers (``serve/queue.py``, ``dist/scheduler.py``), so this module
  is in the fork-safety lint scope (``scripts/lint_repro.py``) and must
  not import ``threading``/``asyncio``.  State is plain module globals
  plus per-process dict counters; a forked child inherits the installed
  injector by memory snapshot.
* **Fire-once across retries.**  A "kill the worker once" fault must
  not re-fire after the queue replaces the broken pool — the fresh fork
  inherits the *parent's* counters, not the dead child's.  ``once=True``
  claims a token file in ``token_dir`` with ``O_CREAT | O_EXCL``, which
  is atomic across processes, so exactly one hit anywhere fires.
* **Deterministic.**  ``at=0`` asks the injector to derive the firing
  hit from ``seed`` (stable per ``(seed, site, spec index)``); the same
  seed always produces the same schedule.

Network-boundary sites (multi-host fleet)
-----------------------------------------

The remote-worker protocol (:mod:`repro.serve.fleet`) adds injection
points at the *wire*, not just inside processes:

* ``fleet.worker.heartbeat`` — :func:`message_fate` on each heartbeat
  send; ``drop`` simulates a partition long enough for lease expiry
  (the worker keeps its pending event batch for the next beat),
  ``duplicate`` sends the beat twice.
* ``fleet.worker.commit`` — :func:`crash_point` first (``delay`` turns
  the worker into a zombie whose lease expires before the commit
  lands, exercising fence rejection; ``kill`` dies with the result
  computed but unsent), then :func:`message_fate` on the send
  (``drop``/``duplicate``).
* ``serve.client.request`` (pre-existing) — ``reset`` covers the
  client-visible partition: connection torn mid-request.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.obs import trace as obs_trace

__all__ = [
    "FaultError",
    "FaultSpec",
    "FaultInjector",
    "install",
    "clear",
    "active",
    "crash_point",
    "message_fate",
    "mangle_write",
]

#: Exit status used by ``kill`` faults; distinctive enough to tell a
#: deliberate chaos kill from a genuine interpreter crash in CI logs.
KILL_EXIT_CODE = 86

ACTIONS = (
    "kill",        # os._exit the current process (no cleanup, like SIGKILL)
    "raise",       # raise FaultError at the call site
    "reset",       # raise ConnectionResetError (client/socket paths)
    "delay",       # sleep delay_seconds (slow solver / slow worker)
    "drop",        # message_fate() -> "drop"
    "duplicate",   # message_fate() -> "duplicate"; mangle_write doubles
    "torn_write",  # mangle_write() keeps only the first torn_bytes bytes
)


class FaultError(RuntimeError):
    """Raised by ``action="raise"`` faults at the injection site."""


@dataclass(frozen=True)
class FaultSpec:
    """One seeded fault: fire ``action`` at ``site`` on chosen hits.

    ``at`` is 1-based: the fault fires on hits ``at .. at+count-1`` of
    that site (``count=0`` means "from ``at`` forever").  ``at=0``
    derives the firing hit from the injector seed.  ``once=True``
    additionally caps firing to a single global occurrence via a token
    file shared across forked processes.
    """

    site: str
    action: str
    at: int = 1
    count: int = 1
    delay_seconds: float = 0.05
    torn_bytes: int = 8
    once: bool = False

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; one of {ACTIONS}"
            )
        if self.at < 0 or self.count < 0:
            raise ValueError("at/count must be non-negative")


class FaultInjector:
    """Holds the fault schedule and per-process hit counters."""

    def __init__(
        self,
        specs: List[FaultSpec],
        *,
        seed: int = 0,
        token_dir: Union[str, "os.PathLike[str]", None] = None,
    ) -> None:
        self.seed = int(seed)
        self.token_dir = os.fspath(token_dir) if token_dir is not None else None
        rng = random.Random(self.seed)
        resolved: List[FaultSpec] = []
        for index, spec in enumerate(specs):
            if spec.at == 0:
                # Seed-derived firing hit: stable for a given
                # (seed, position) pair, small enough to trigger in
                # short test workloads.
                derived = 1 + rng.randrange(4)
                spec = FaultSpec(
                    site=spec.site,
                    action=spec.action,
                    at=derived,
                    count=spec.count,
                    delay_seconds=spec.delay_seconds,
                    torn_bytes=spec.torn_bytes,
                    once=spec.once,
                )
            resolved.append(spec)
        self.specs: List[FaultSpec] = resolved
        self.hits: Dict[str, int] = {}
        #: Per-process log of fired faults, for test assertions:
        #: (site, action, hit_number).
        self.fired: List[Tuple[str, str, int]] = []

    # -- internals ---------------------------------------------------

    def _claim_once_token(self, index: int, spec: FaultSpec) -> bool:
        """Atomically claim the fire-once token; True if we won it."""
        if self.token_dir is None:
            return True
        name = f"fault-{index}-{spec.site.replace('.', '_')}-{spec.action}"
        path = os.path.join(self.token_dir, name)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def _firing(self, site: str) -> List[FaultSpec]:
        """Record a hit at ``site``; return the specs that fire on it."""
        hit = self.hits.get(site, 0) + 1
        self.hits[site] = hit
        out: List[FaultSpec] = []
        for index, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if hit < spec.at:
                continue
            if spec.count and hit >= spec.at + spec.count:
                continue
            if spec.once and not self._claim_once_token(index, spec):
                continue
            self.fired.append((site, spec.action, hit))
            # Surface the firing on the active trace (if any) *before* the
            # fault is applied -- a SIGKILL action never returns, so this
            # event is often the flight recorder's last word on why a
            # worker died.
            obs_trace.event(
                "fault.fired", site=site, action=spec.action, hit=hit
            )
            out.append(spec)
        return out

    def _apply_inline(self, firing: List[FaultSpec]) -> List[FaultSpec]:
        """Apply kill/delay/raise/reset immediately; return the rest."""
        deferred: List[FaultSpec] = []
        for spec in firing:
            if spec.action == "delay":
                time.sleep(spec.delay_seconds)
            elif spec.action == "kill":
                # os._exit mimics SIGKILL: no atexit hooks, no finally
                # blocks, no multiprocessing cleanup — the harshest
                # crash the parent must survive.
                os._exit(KILL_EXIT_CODE)
            elif spec.action == "raise":
                raise FaultError(f"injected fault at {spec.site}")
            elif spec.action == "reset":
                raise ConnectionResetError(
                    f"injected connection reset at {spec.site}"
                )
            else:
                deferred.append(spec)
        return deferred

    # -- call-site API -----------------------------------------------

    def crash_point(self, site: str) -> None:
        """Pure control-flow site: may kill, delay, or raise."""
        firing = self._firing(site)
        if firing:
            self._apply_inline(firing)

    def message_fate(self, site: str) -> str:
        """Message site: returns ``deliver``/``drop``/``duplicate``."""
        deferred = self._apply_inline(self._firing(site))
        for spec in deferred:
            if spec.action == "drop":
                return "drop"
            if spec.action == "duplicate":
                return "duplicate"
        return "deliver"

    def mangle_write(self, site: str, data: bytes) -> bytes:
        """Write site: may tear (truncate) or duplicate the payload."""
        deferred = self._apply_inline(self._firing(site))
        out = data
        for spec in deferred:
            if spec.action == "torn_write":
                out = out[: spec.torn_bytes]
            elif spec.action == "duplicate":
                out = out + data
        return out


# -- module-level switchboard ----------------------------------------

_INJECTOR: Optional[FaultInjector] = None


def install(injector: FaultInjector) -> None:
    """Install the process-wide injector (inherited by forks)."""
    global _INJECTOR
    _INJECTOR = injector


def clear() -> None:
    """Remove the installed injector; call sites become near-no-ops."""
    global _INJECTOR
    _INJECTOR = None


def active() -> Optional[FaultInjector]:
    return _INJECTOR


def crash_point(site: str) -> None:
    inj = _INJECTOR
    if inj is not None:
        inj.crash_point(site)


def message_fate(site: str) -> str:
    inj = _INJECTOR
    if inj is None:
        return "deliver"
    return inj.message_fate(site)


def mangle_write(site: str, data: bytes) -> bytes:
    inj = _INJECTOR
    if inj is None:
        return data
    return inj.mangle_write(site, data)
