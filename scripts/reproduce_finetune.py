#!/usr/bin/env python3
"""End-to-end fine-tuning experiment on the default synthetic scenario.

Generates the shifted dataset, pretrains a depth-(16,) model with BPTT,
runs online fine-tuning with the anchor regularizer against the frozen
baseline, and finishes with the lambda/freeze ablation grid. Every stage
goes through the CLI so the run directories match what a by-hand run
would produce.
"""

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
    ap.add_argument("--out", default="runs/reproduce", help="output root")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=1000,
                    help="pretraining steps (1000 is enough to converge "
                         "on the synthetic scenario)")
    ap.add_argument("--lambda-reg", type=float, default=0.01)
    args = ap.parse_args()

    out = Path(args.out)
    data = out / "data"
    run(["gen-data", "--out", str(data), "--seed", str(args.seed)])
    run(["pretrain", "--data", str(data), "--run-dir", str(out / "pretrain"),
         "--layers", "16", "--steps", str(args.steps), "--batch", "32",
         "--window", "128", "--eval-every", "100", "--seed", str(args.seed)])
    ckpt = str(out / "pretrain" / "checkpoint.json")
    run(["finetune", "--data", str(data), "--checkpoint", ckpt,
         "--run-dir", str(out / "finetune"),
         "--lambda-reg", str(args.lambda_reg)])
    run(["ablate", "--data", str(data), "--checkpoint", ckpt,
         "--run-dir", str(out / "ablate")])
    print(f"done; see {out}/finetune/summary.json and {out}/ablate/ablation.csv")


if __name__ == "__main__":
    main()
