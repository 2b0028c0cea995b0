"""Distributed proof engine: cube-and-conquer for one BMC query.

The hardest Symbolic QED instances are single deep detection queries (the
QED-CF check at bound 8 in the case study); a per-bug campaign fan-out
cannot touch them because the wall-clock is one SAT call.  This package
splits that *single* query into independently solvable sub-problems -- the
pre-silicon analogue of the cube-and-conquer decompositions that "Boosting
the Bounds of Symbolic QED" and "Breaking the Bounds of Symbolic QED" use to
break the BMC depth wall -- and solves them inline or over processes::

    BoundedModelChecker (bound k, SplitConfig)
        |
        |  clauses + activation assumption        repro.dist.cubes
        |  ------------------------------>  +------------------------+
        |                                   | cube generator         |
        |                                   |  window-position ladder|
        |                                   |  x look-ahead binary   |
        |                                   |  (AIG cone scoring)    |
        |                                   +-----------+------------+
        |                                               | cubes (a partition:
        |                                               |  disjoint, covering)
        v                                               v
    +-------------------------------- repro.dist.scheduler ---------------+
    |  workers=1: inline cube loop, one incremental solver, no processes  |
    |  workers>1: task queue (work stealing) <--- re-split on overrun     |
    |     |            |        |                                         |
    |  worker 0     worker 1   worker N    each: one plain CDCL solver,   |
    |     |            |        |          built once from the query's    |
    |     |            |        |          clauses; learns only for itself|
    +-----+------------+--------+-----------------------------------------+
                       | per-cube verdicts + stats
                       v
          merge:  any cube SAT   -> query SAT (model replayed as usual)
                  all cubes UNSAT-> query UNSAT (cubes cover the space)
                  budget expired -> UNKNOWN

Soundness rests on one invariant, enforced by construction and tested
property-style in ``tests/dist``: the cube set emitted by
:mod:`repro.dist.cubes` partitions the search space of its split variables
(disjunction is a tautology, cubes pairwise disjoint), so "all cubes
UNSAT" refutes the original query.  Every cube runs on the same solver over
the same clauses, and no clause crosses from one worker to another, so each
cube's refutation is self-contained.

``workers=1`` runs the cube loop inline (no processes) and is bit-for-bit
deterministic.
"""

from repro.dist.cubes import (
    Cube,
    binary_cubes,
    ladder_cubes,
    product_cubes,
    select_split_variables,
    split_cube,
    validate_partition,
)
from repro.dist.scheduler import (
    CubeStats,
    DistResult,
    DistStats,
    SplitConfig,
    SplitQuery,
    WorkScheduler,
)

__all__ = [
    "Cube",
    "binary_cubes",
    "ladder_cubes",
    "product_cubes",
    "select_split_variables",
    "split_cube",
    "validate_partition",
    "CubeStats",
    "DistResult",
    "DistStats",
    "SplitConfig",
    "SplitQuery",
    "WorkScheduler",
]
