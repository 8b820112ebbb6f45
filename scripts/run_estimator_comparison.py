#!/usr/bin/env python3
"""Reproduce the estimator-comparison experiment on the d=4 chain model.

Samples from an Ising chain with couplings 0.5 and zero fields, fits the four
discrete estimators at N in {1000, 10000, 50000} over five seeds, and writes
the comparison CSV (population rows included) to the output path.
"""

import argparse
import pathlib
import sys
import tempfile

from scorematch.cli import main as cli_main
from scorematch.models import ising_model, model_to_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/estimator_comparison.csv")
    parser.add_argument("--objectives", default="gsm,rm,pl,mle")
    parser.add_argument("--n", default="1000,10000,50000")
    parser.add_argument("--seeds", default="1..5")
    args = parser.parse_args()

    pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    model = ising_model([0.0] * 4, [0.5] * 3)
    with tempfile.NamedTemporaryFile("w", suffix=".json") as fh:
        fh.write(model_to_json(model))
        fh.flush()
        code = cli_main([
            "compare", "--model", fh.name, "--objectives", args.objectives,
            "--n", args.n, "--seeds", args.seeds, "--out", args.out,
        ])
    if code == 0:
        print(f"wrote {args.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
