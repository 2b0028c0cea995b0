"""Wall-clock deadlines threaded through the solve fabric.

A :class:`Deadline` is an *absolute* point on the monotonic clock by
which a piece of work must reach a terminal state.  It is deliberately
tiny: the whole fault-tolerance story (see :mod:`repro.serve` and
ISSUE 7) rests on every layer — HTTP front end, job queue, campaign,
BMC engine, CDCL solver, cube workers — agreeing on one representation
that is cheap to check and survives ``fork()``.

Design notes
------------

* **Monotonic, absolute.**  ``time.monotonic()`` on Linux is the
  system-wide ``CLOCK_MONOTONIC``, so an absolute expiry instant
  computed in the parent remains meaningful in a forked worker.  This
  is what lets ``dist/`` cube workers inherit *remaining* budget
  without any clock hand-off protocol.
* **Not part of cache keys.**  A deadline is a property of one
  *submission*, not of the problem: two jobs for the same spec with
  different budgets must share a cache entry.  ``JobSpec`` therefore
  never embeds deadlines; callers pass them alongside the spec
  (``deadline_seconds`` on ``POST /jobs``) and the serving layer keeps
  them out of the canonical dicts.
* **Degrade, never lie.**  Expiry turns a run into UNKNOWN — which the
  result cache stores as non-definitive and monotonically upgrades
  when a later, luckier (or budget-less) run completes.  Expiry never
  invents a verdict.

The checks themselves are branch-cheap (`None` test + one float
compare) so call sites inside solver restart loops stay outside the
``# hot-loop`` lint regions yet still fire every few hundred conflicts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

__all__ = ["Deadline"]


@dataclass(frozen=True)
class Deadline:
    """An absolute monotonic-clock expiry instant."""

    expires_at: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """Deadline ``seconds`` from now (clamped to be non-negative)."""
        if seconds < 0.0:
            seconds = 0.0
        return cls(expires_at=time.monotonic() + seconds)

    @classmethod
    def from_seconds(cls, seconds: Optional[float]) -> Optional["Deadline"]:
        """``None``-propagating convenience used at API boundaries."""
        if seconds is None:
            return None
        return cls.after(float(seconds))

    def remaining(self) -> float:
        """Seconds left; never negative."""
        left = self.expires_at - time.monotonic()
        return left if left > 0.0 else 0.0

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at
