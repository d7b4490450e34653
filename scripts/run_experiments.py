#!/usr/bin/env python3
"""Dump every standard experiment table to CSV files.

Usage: python scripts/run_experiments.py [output_dir] [--seed N]
"""

import argparse
import pathlib

from riskshare.experiments import EXPERIMENTS, AgentSequenceSpec

# a table's file is named after its experiment id, except these
FILE_NAMES = {
    "decay": "inefficiency_decay_heterogeneous",
    "decay-homogeneous": "inefficiency_decay_homogeneous",
    "convergence": "price_allocation_convergence",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output_dir", nargs="?", default="experiment_output")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        spec = AgentSequenceSpec(seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))

    out = pathlib.Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for experiment, run in EXPERIMENTS.items():
        path = out / f"{FILE_NAMES.get(experiment, experiment)}.csv"
        path.write_text(run(spec).to_csv())
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
