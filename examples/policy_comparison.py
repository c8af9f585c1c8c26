#!/usr/bin/env python3
"""Compare every target-set selection policy on the same job stream.

The paper evaluates MPC and HRI and defers the rest (MPC-C, LPC, LPC-C,
BFP, HRI-C, and "other selection policies") to future work; this example
runs the whole zoo through the Figure 7 protocol and prints one table.

Reading the table:

* ``Performance`` — mean T_uncapped/T_capped over finished jobs (1 = no
  loss).  All policies should sit within a few percent of 1.
* ``dPxT reduction`` — how much of the over-provision heat the policy
  removed.  State-based collections (mpc-c) pull back hardest; the
  random baseline should trail the structured policies.
* ``CPLJ`` — jobs finishing exactly on time.  Concentrating policies
  (mpc) spare most jobs; spreading policies (hri, fair) touch many.

Run:  python examples/policy_comparison.py  [--full]
"""

import argparse

from repro import ExperimentConfig
from repro.analysis import format_fig7_table
from repro.experiments.ablations import policy_zoo

POLICIES = (
    "mpc", "mpc-c", "lpc", "lpc-c", "bfp",  # state-based (§IV.A)
    "hri", "hri-c",                          # change-based (§IV.B)
    "random", "fair", "hybrid", "sla",       # extensions (§VI / §I.B)
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the calibrated (slower, more faithful) configuration",
    )
    parser.add_argument("--seed", type=int, default=2012)
    args = parser.parse_args()

    config = (
        ExperimentConfig.calibrated(seed=args.seed)
        if args.full
        else ExperimentConfig.quick(seed=args.seed)
    )
    # Three priority classes so the SLA-aware policy has classes to rank
    # (the other policies ignore priorities entirely).
    from dataclasses import replace

    config = replace(config, priority_choices=(0, 1, 2))
    n_runs = len(POLICIES) + 1
    print(f"running {n_runs} experiment protocols "
          f"({'calibrated' if args.full else 'quick'} configuration)...")
    result = policy_zoo(config, policies=POLICIES)
    print()
    print(format_fig7_table(result))
    print(
        "\npaper reference (MPC vs HRI): dPxT -73% vs -66%, "
        f"CPLJ gap +1.4%; measured gap {result.cplj_gap('mpc', 'hri'):+.1%}"
    )


if __name__ == "__main__":
    main()
