"""A miniature verification campaign across design versions.

Runs the detection campaign for one representative bug per Symbolic QED
feature plus the specification bug, together with the industrial-flow
baselines, and prints the Fig. 8 / 9 / 10 style summary.  Pass ``--full`` to
run every bug in the library (slow on the pure-Python SAT backend) and
``--workers N`` to run the independent per-bug jobs on N local fleet
workers, each solving in a solver child of its own.

Run with::

    python examples/regression_campaign.py [--full] [--workers N]
"""

import argparse
import os

from repro.eval.campaign import CampaignConfig, run_campaign
from repro.eval.report import detection_breakdown
from repro.indverif.crs import CRSConfig
from repro.isa.arch import TINY_PROFILE

REPRESENTATIVE = (
    "wrport_collision",
    "bz_flag_misread",
    "ldil_after_load",
    "sra_zero_fill",
    "cmpi_carry_spec",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full", action="store_true",
        help="run every bug in the library (slow)",
    )
    parser.add_argument(
        "--workers", type=int, default=min(4, os.cpu_count() or 1),
        help="local fleet workers for the per-bug jobs (one solver "
        "child each)",
    )
    args = parser.parse_args()
    config = CampaignConfig(
        arch=TINY_PROFILE,
        bug_ids=None if args.full else REPRESENTATIVE,
        crs_config=CRSConfig(num_programs=25, program_length=22, seed=7),
    )
    campaign = run_campaign(config, workers=args.workers)
    print(
        f"campaign over {len(campaign.records)} bugs finished in "
        f"{campaign.wall_clock_seconds:.1f}s"
    )
    for record in campaign.records:
        print(
            f"  {record.bug_id:22s} on {record.version_name:5s} "
            f"qed_feature={record.attributed_feature or '-':9s} "
            f"crs={record.crs_detected} ocsfv={record.ocsfv_detected} "
            f"dst={record.dst_detected}"
        )
    breakdown = detection_breakdown(campaign)
    print()
    print(f"Symbolic QED detected     : {breakdown['symbolic_qed_detected']}/{breakdown['total_bugs']}")
    print(f"industrial flow detected  : {breakdown['industrial_flow_detected']}/{breakdown['total_bugs']}")
    print(f"uniquely detected by QED  : {breakdown['qed_unique_bugs']}")
    print(f"feature breakdown         : {breakdown['feature_breakdown_counts']}")


if __name__ == "__main__":
    main()
