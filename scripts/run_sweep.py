#!/usr/bin/env python3
"""Hyperparameter sweep of BPTT pretraining over architecture, learning
rate and clipping on a synthetic dataset. Writes sweep.csv with one row
per (config, repeat)."""

import argparse
import sys
from pathlib import Path

from lru_online.cli import main as cli


def run(argv):
    print("+ lru-online " + " ".join(argv))
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/sweep", help="output root")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--steps", type=int, default=500)
    args = ap.parse_args()

    out = Path(args.out)
    data = out / "data"
    run(["gen-data", "--out", str(data), "--seed", str(args.seed)])
    run(["sweep", "--data", str(data), "--run-dir", str(out / "grid"),
         "--repeats", str(args.repeats), "--steps", str(args.steps),
         "--seed", str(args.seed)])
    print(f"done; see {out}/grid/sweep.csv")


if __name__ == "__main__":
    main()
