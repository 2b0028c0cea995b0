"""Quickstart: split one hard BMC proof with the distributed proof engine.

The deep QED-CF queries are single SAT calls -- a campaign-level process
pool cannot speed them up.  This example shows the cube-and-conquer path
instead: the clean design B.v6 is proven free of QED-CF failures with the
query split by property-window position and instruction-opcode bits, fanned
over worker processes with dynamic re-splitting (:mod:`repro.dist`).  A
single-worker run of the same configuration is bit-for-bit deterministic,
and SAT/UNSAT verdicts never depend on the worker count (only where an
explicit *conflict budget* draws the UNKNOWN line can racing workers land
on a different side of it).

Run with::

    python examples/distributed_proof.py            # 2 workers
    WORKERS=4 python examples/distributed_proof.py  # wider pool
"""

import os

from repro.dist import SplitConfig
from repro.isa.arch import TINY_PROFILE
from repro.qed import QEDMode, SymbolicQED


def main() -> None:
    workers = int(os.environ.get("WORKERS", "2"))
    harness = SymbolicQED(
        "B.v6",
        mode=QEDMode.EDDIV_CF,
        arch=TINY_PROFILE,
        focus_opcodes=["LDI", "ADD", "CMPI", "BZ"],
    )
    print(f"design under verification : {harness.design.name}")
    print(f"workers                   : {workers}")
    print("proving QED-CF consistency bound by bound, cube by cube...")

    result = harness.check(
        max_bound=5,
        single_query=False,  # dense schedule: one window per bound
        split=SplitConfig(
            workers=workers,
            cube_conflict_budget=2000,  # overruns re-split dynamically
        ),
    )

    bmc = result.bmc_result
    verdict = "QED failure found" if result.found_violation else "no QED failure"
    print(f"{verdict} within bound {bmc.bound_reached}")
    print(f"frames proven safe        : {bmc.frames_proven}")
    print(f"cubes solved              : {result.cubes_solved}")
    print(f"dynamic re-splits         : {result.cubes_resplit}")
    print(f"wall clock                : {bmc.runtime_seconds:.1f}s")
    for stats in bmc.per_bound_stats:
        if stats.dist is None:
            continue
        print(
            f"  bound {stats.bound}: {stats.verdict:7s} "
            f"{stats.dist.cubes_total:3d} cubes "
            f"({stats.dist.cubes_unsat} unsat/{stats.dist.cubes_sat} sat), "
            f"{stats.conflicts} conflicts"
        )


if __name__ == "__main__":
    main()
