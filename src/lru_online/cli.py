"""Command-line interface.

Every run writes a summary.json (totals, config echo, provenance) and CSV
metrics into a run directory named by timestamp + config hash (override
with --run-dir). Exit status is 0 on success; on failure a JSON error with
a machine-readable category goes to stderr and the category picks the code.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .datapipe import apply_pipeline, split_sessions
from .errors import CompatibilityError, ConfigurationError, LruOnlineError
from .harness import (FinetuneConfig, PretrainConfig, SweepConfig,
                      cmd_ablate, cmd_evaluate, cmd_finetune, cmd_pretrain,
                      cmd_sweep, impute_benchmark, load_grid, prepare_tables)
from .synth import GeneratorConfig, ShiftSpec, generate_dataset, write_dataset

EXIT_CODES = {"configuration": 2, "schema": 3, "contract": 4, "imputation": 5,
              "training": 6, "checkpoint": 7, "compatibility": 8, "usage": 9}


def _run_dir(args, command: str, config: dict) -> Path:
    """Create the run directory; commands call it once their work is done."""
    if args.run_dir:
        d = Path(args.run_dir)
    else:
        blob = json.dumps(config, sort_keys=True, default=str).encode()
        h = hashlib.sha1(blob).hexdigest()[:8]
        stamp = time.strftime("%Y%m%d-%H%M%S")
        d = Path(args.out) / f"{command}-{stamp}-{h}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_summary(run_dir: Path, command: str, config: dict, results: dict):
    doc = {"command": command, "config": config, "results": results,
           "provenance": {"argv": sys.argv,
                          "written": time.strftime("%Y-%m-%dT%H:%M:%S")}}
    with open(run_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv_mod.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def _gen_cfg(args) -> GeneratorConfig:
    return GeneratorConfig(
        sessions=args.sessions, session_seconds=args.session_seconds,
        missing_rate=args.missing_rate, shift_sessions=args.shift_sessions,
        shift=ShiftSpec(emission_gain=args.emission_gain,
                        ambient_offset_c=args.ambient_offset),
        seed=args.seed)


def _prepared(args, window: int = 5):
    data_dir = Path(args.data)
    return prepare_tables(data_dir / "emission.csv", data_dir / "weather.csv",
                          window=window,
                          strict_vocab=getattr(args, "strict_vocab", False),
                          train_fraction=getattr(args, "train_fraction", 0.8))


def _finetune_stream(args, ckpt: Checkpoint):
    """The --split of the data, preprocessed with the checkpoint's pipeline;
    a checkpoint without one is a CompatibilityError."""
    if ckpt.pipeline is None:
        raise CompatibilityError(f"{args.checkpoint}: the checkpoint holds no "
                                 "preprocessing pipeline")
    data_dir = Path(args.data)
    table = load_grid(data_dir / "emission.csv", data_dir / "weather.csv",
                      ckpt.pipeline.window)
    if args.split == "val":
        _, table = split_sessions(table, args.train_fraction)
    elif args.split == "train":
        table, _ = split_sessions(table, args.train_fraction)
    return apply_pipeline(ckpt.pipeline, table)


def _metrics_csv(run_dir: Path, metrics, target_names) -> None:
    names = target_names or [f"t{i}" for i in range(metrics.targets.shape[1])]
    header = (["step", "timestamp"]
              + [f"pred_{n}" for n in names]
              + [f"pred_frozen_{n}" for n in names]
              + [f"true_{n}" for n in names]
              + ["loss", "loss_frozen", "cum_loss", "cum_loss_frozen",
                 "anchor_distance"])
    cum = np.cumsum(metrics.loss)
    cum_fr = np.cumsum(metrics.loss_frozen)
    rows = []
    for t in range(metrics.loss.size):
        rows.append([t, metrics.timestamps[t]]
                    + list(metrics.predictions[t])
                    + list(metrics.predictions_frozen[t])
                    + list(metrics.targets[t])
                    + [metrics.loss[t], metrics.loss_frozen[t],
                       cum[t], cum_fr[t], metrics.anchor_distance[t]])
    _write_csv(run_dir / "metrics.csv", header, rows)


# ----------------------------------------------------------------- commands

def _do_gen_data(args) -> int:
    cfg = _gen_cfg(args)
    ds = generate_dataset(cfg)
    write_dataset(ds, args.out)
    print(json.dumps({"out": str(args.out), "rows": ds.emission.n_rows,
                      "sessions": cfg.sessions}))
    return 0


def _do_preprocess(args) -> int:
    config = {"data": args.data, "train_fraction": args.train_fraction,
              "window": args.window, "strict_vocab": args.strict_vocab}
    pipe, train, val = _prepared(args, window=args.window)
    run_dir = _run_dir(args, "preprocess", config)
    np.savez(run_dir / "train.npz", features=train.features,
             targets=train.targets, session_ids=train.session_ids,
             timestamps=train.timestamps)
    np.savez(run_dir / "val.npz", features=val.features, targets=val.targets,
             session_ids=val.session_ids, timestamps=val.timestamps)
    with open(run_dir / "pipeline.json", "w", encoding="utf-8") as fh:
        json.dump(pipe.to_dict(), fh, indent=2, sort_keys=True)
    _write_summary(run_dir, "preprocess", config, {
        "train_rows": train.n_rows, "val_rows": val.n_rows,
        "n_features": len(pipe.feature_names),
        "feature_names": pipe.feature_names})
    print(str(run_dir))
    return 0


def _parse_list(flag: str, items, parse) -> list:
    """parse() of each item; a ValueError is a ConfigurationError naming
    the flag."""
    try:
        return [parse(x) for x in items]
    except ValueError as e:
        raise ConfigurationError(f"{flag}: {e}") from None


def _parse_layers(spec: str) -> tuple[int, ...]:
    return tuple(_parse_list("--layers", filter(str.strip, spec.split(",")),
                             int))


def _do_pretrain(args) -> int:
    clip = None if args.no_clip else args.clip
    pcfg = PretrainConfig(trainer=args.trainer,
                          layers=_parse_layers(args.layers),
                          steps=args.steps, batch=args.batch, lr=args.lr,
                          clip=clip, window=args.window, seed=args.seed,
                          eval_every=args.eval_every,
                          r_min=args.r_min, r_max=args.r_max)
    pipe, train, val = _prepared(args, window=args.pipeline_window)
    ckpt, result = cmd_pretrain(train, val, pipe, pcfg,
                                provenance={"argv": sys.argv,
                                            "written": time.strftime(
                                                "%Y-%m-%dT%H:%M:%S")})
    run_dir = _run_dir(args, "pretrain", ckpt.config)
    save_checkpoint(ckpt, run_dir / "checkpoint.json")
    _write_csv(run_dir / "loss_curve.csv", ["step", "train_loss", "val_loss"],
               result.loss_curve)
    _write_summary(run_dir, "pretrain", ckpt.config, {
        "best_val_loss": result.best_val_loss, "diverged": result.diverged,
        "steps_run": len(result.loss_curve)})
    print(str(run_dir))
    return 0


def _do_sweep(args) -> int:
    scfg = SweepConfig(
        layers=[_parse_layers(s) for s in args.layers.split(";")],
        lrs=_parse_list("--lrs", args.lrs.split(","), float),
        clips=_parse_list("--clips", args.clips.split(","),
                          lambda x: None if x in ("none", "") else float(x)),
        trainers=args.trainers.split(","),
        repeats=args.repeats, steps=args.steps, batch=args.batch,
        window=args.window, eval_every=args.eval_every, seed=args.seed)
    config = asdict(scfg)
    _, train, val = _prepared(args)
    rows = cmd_sweep(train, val, scfg)
    run_dir = _run_dir(args, "sweep", config)
    header = ["trainer", "layers", "lr", "clip", "repeat", "best_val_loss",
              "wall_seconds", "error"]
    _write_csv(run_dir / "sweep.csv", header,
               [[r[h] for h in header] for r in rows])
    _write_summary(run_dir, "sweep", config, {"runs": len(rows)})
    print(str(run_dir))
    return 0


def _finetune_cfg(args) -> FinetuneConfig:
    return FinetuneConfig(
        lambda_reg=args.lambda_reg,
        freeze_after=args.freeze_after,
        lr=args.lr, clip=None if args.no_clip else args.clip)


def _do_finetune(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    fcfg = _finetune_cfg(args)
    config = asdict(fcfg)
    stream = _finetune_stream(args, ckpt)
    metrics = cmd_finetune(ckpt, stream, fcfg)
    run_dir = _run_dir(args, "finetune", config)
    _metrics_csv(run_dir, metrics, stream.target_names)
    _write_summary(run_dir, "finetune", config, metrics.summary())
    print(str(run_dir))
    return 0


def _do_ablate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    fcfg = _finetune_cfg(args)
    config = asdict(fcfg)
    stream = _finetune_stream(args, ckpt)
    rows = cmd_ablate(ckpt, stream, fcfg)
    run_dir = _run_dir(args, "ablate", config)
    header = ["kind", "lambda_reg", "freeze_after", "total_loss", "mean_loss",
              "final_anchor_distance"]
    _write_csv(run_dir / "ablation.csv", header,
               [[r[h] for h in header] for r in rows])
    _write_summary(run_dir, "ablate", config, {"rows": len(rows)})
    print(str(run_dir))
    return 0


def _do_evaluate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    config = {"checkpoint": str(args.checkpoint), "split": args.split}
    data = _finetune_stream(args, ckpt)
    result = cmd_evaluate(ckpt, data)
    run_dir = _run_dir(args, "evaluate", config)
    names = result["target_names"]
    header = (["step", "timestamp"] + [f"pred_{n}" for n in names]
              + [f"true_{n}" for n in names])
    rows = []
    for t in range(result["predictions"].shape[0]):
        rows.append([t, result["timestamps"][t]]
                    + list(result["predictions"][t])
                    + list(result["targets"][t]))
    _write_csv(run_dir / "predictions.csv", header, rows)
    _write_summary(run_dir, "evaluate", config, {
        "per_target_mse": result["per_target_mse"],
        "huber_mean": result["huber_mean"],
        "huber_total": result["huber_total"]})
    print(str(run_dir))
    return 0


def _do_impute_bench(args) -> int:
    cfg = _gen_cfg(args)
    config = {**asdict(cfg), "mask_rate": args.mask_rate, "k": args.k,
              "window": args.window}
    results = impute_benchmark(cfg, mask_rate=args.mask_rate,
                               window=args.window, k=args.k, seed=args.seed)
    run_dir = _run_dir(args, "impute-bench", config)
    _write_summary(run_dir, "impute-bench", config, results)
    print(json.dumps(results))
    return 0


# ------------------------------------------------------------------- parser

def _add_common(p):
    p.add_argument("--out", default="runs", help="parent directory for runs")
    p.add_argument("--run-dir", default=None, help="exact run directory")


def _add_gen_flags(p):
    p.add_argument("--sessions", type=int, default=5)
    p.add_argument("--session-seconds", type=int, default=3600)
    p.add_argument("--missing-rate", type=float, default=0.211)
    p.add_argument("--shift-sessions", type=int, default=1)
    p.add_argument("--emission-gain", type=float, default=1.3)
    p.add_argument("--ambient-offset", type=float, default=10.0)


def _add_data_flags(p):
    p.add_argument("--data", required=True,
                   help="directory with emission.csv and weather.csv")
    p.add_argument("--train-fraction", type=float, default=0.8)


def _add_finetune_flags(p):
    p.add_argument("--lambda-reg", type=float, default=0.0)
    p.add_argument("--freeze-after", type=int, default=None)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--clip", type=float, default=0.5)
    p.add_argument("--no-clip", action="store_true")
    p.add_argument("--split", choices=["val", "train", "all"], default="val")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lru-online")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_gen_flags(p)
    p.set_defaults(func=_do_gen_data)

    p = sub.add_parser("preprocess", help="materialize the pipeline outputs")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--strict-vocab", action="store_true")
    p.set_defaults(func=_do_preprocess)

    p = sub.add_parser("pretrain", help="offline training (BPTT or RTRL)")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trainer", choices=["bptt", "rtrl"], default="bptt")
    p.add_argument("--layers", default="16", help="comma list, e.g. 16 or 16,16")
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--clip", type=float, default=0.5)
    p.add_argument("--no-clip", action="store_true")
    p.add_argument("--window", type=int, default=256)
    p.add_argument("--eval-every", type=int, default=250)
    p.add_argument("--r-min", type=float, default=0.9)
    p.add_argument("--r-max", type=float, default=0.999)
    p.add_argument("--pipeline-window", type=int, default=5)
    p.add_argument("--strict-vocab", action="store_true")
    p.set_defaults(func=_do_pretrain)

    p = sub.add_parser("sweep", help="hyperparameter grid")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layers", default="8;16;8,8;16,16;8,8,8",
                   help="semicolon-separated layer tuples")
    p.add_argument("--lrs", default="1e-2,1e-3,1e-4")
    p.add_argument("--clips", default="0.5,1.0,none")
    p.add_argument("--trainers", default="bptt,rtrl")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--eval-every", type=int, default=100)
    p.set_defaults(func=_do_sweep)

    p = sub.add_parser("finetune", help="online fine-tuning during inference")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    _add_finetune_flags(p)
    p.set_defaults(func=_do_finetune)

    p = sub.add_parser("ablate", help="regularization/freeze ablation grids")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    _add_finetune_flags(p)
    p.set_defaults(func=_do_ablate)

    p = sub.add_parser("evaluate", help="frozen evaluation of a checkpoint")
    _add_common(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["val", "train", "all"], default="val")
    p.set_defaults(func=_do_evaluate)

    p = sub.add_parser("impute-bench", help="rolling-median vs KNN imputation")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    _add_gen_flags(p)
    p.add_argument("--mask-rate", type=float, default=0.2)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--k", type=int, default=20)
    p.set_defaults(func=_do_impute_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LruOnlineError as e:
        print(json.dumps({"error": e.category, "message": str(e)}),
              file=sys.stderr)
        return EXIT_CODES.get(e.category, 1)


if __name__ == "__main__":
    sys.exit(main())
