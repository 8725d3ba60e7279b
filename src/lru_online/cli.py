"""Command-line interface.

Every command but gen-data records its run through _recording: its own
files, then summary.json (totals, config echo, provenance) last, in
--run-dir or in a new directory under --out named by the time and a hash
of every other flag. Exit status is 0 on success; on failure a JSON error
with a machine-readable category goes to stderr and the category picks the
code.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .datapipe import (IMPUTE_WINDOW, SequenceData, apply_pipeline,
                       split_sessions)
from .errors import CompatibilityError, ConfigurationError, LruOnlineError
from .harness import (FinetuneConfig, PretrainConfig, SweepConfig,
                      cmd_ablate, cmd_evaluate, cmd_finetune, cmd_pretrain,
                      cmd_sweep, impute_benchmark, load_grid, prepare_tables)
from .synth import GeneratorConfig, ShiftSpec, generate_dataset, write_dataset

EXIT_CODES = {"configuration": 2, "schema": 3, "contract": 4, "imputation": 5,
              "training": 6, "checkpoint": 7, "compatibility": 8, "usage": 9}


def _provenance() -> dict:
    return {"argv": sys.argv, "written": time.strftime("%Y-%m-%dT%H:%M:%S")}


@contextmanager
def _recording(args, command: str, config: dict, results: dict):
    """The one writer of run directories: deletes a reused directory's
    summary.json, yields the directory for the command's files, then
    writes summary.json, so a write that raises leaves none. Enter it once
    the run's work is done. The name's hash leaves out func, which prints
    with a per-process address."""
    if args.run_dir:
        run_dir = Path(args.run_dir)
    else:
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("out", "run_dir", "func")}
        h = hashlib.sha1(json.dumps(flags, sort_keys=True).encode())
        stamp = time.strftime("%Y%m%d-%H%M%S")
        run_dir = Path(args.out) / f"{command}-{stamp}-{h.hexdigest()[:8]}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "summary.json").unlink(missing_ok=True)
    yield run_dir
    with open(run_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump({"command": command, "config": config, "results": results,
                   "provenance": _provenance()},
                  fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A header line, then one line per row dict in header order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv_mod.DictWriter(fh, header)
        w.writeheader()
        w.writerows(rows)


def _per_step_csv(path: Path, names, timestamps, blocks: dict,
                  columns: dict) -> None:
    """One row per step: step, timestamp, then `<prefix><name>` for each
    prefix's (N, len(names)) array in blocks, then each (N,) column."""
    header = ["step", "timestamp",
              *(prefix + n for prefix in blocks for n in names), *columns]
    cells = [range(len(timestamps)), timestamps,
             *(b[:, j] for b in blocks.values() for j in range(len(names))),
             *columns.values()]
    _write_csv(path, header, (dict(zip(header, row)) for row in zip(*cells)))


def _gen_cfg(args) -> GeneratorConfig:
    return GeneratorConfig(
        sessions=args.sessions, session_seconds=args.session_seconds,
        missing_rate=args.missing_rate, shift_sessions=args.shift_sessions,
        shift=ShiftSpec(emission_gain=args.emission_gain,
                        ambient_offset_c=args.ambient_offset),
        seed=args.seed)


def _prepared(args):
    data_dir = Path(args.data)
    return prepare_tables(data_dir / "emission.csv", data_dir / "weather.csv")


def _finetune_stream(args) -> tuple[Checkpoint, SequenceData]:
    """The --checkpoint, and the --split of the data preprocessed with its
    pipeline; a checkpoint without one is a CompatibilityError."""
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.pipeline is None:
        raise CompatibilityError(f"{args.checkpoint}: the checkpoint holds no "
                                 "preprocessing pipeline")
    data_dir = Path(args.data)
    table = load_grid(data_dir / "emission.csv", data_dir / "weather.csv",
                      ckpt.pipeline.window)
    if args.split == "val":
        _, table = split_sessions(table)
    elif args.split == "train":
        table, _ = split_sessions(table)
    return ckpt, apply_pipeline(ckpt.pipeline, table)


# ----------------------------------------------------------------- commands

def _do_gen_data(args) -> int:
    cfg = _gen_cfg(args)
    ds = generate_dataset(cfg)
    write_dataset(ds, args.out)
    print(json.dumps({"out": str(args.out), "rows": ds.emission.n_rows,
                      "sessions": cfg.sessions}))
    return 0


def _do_preprocess(args) -> int:
    config = {"data": args.data}
    pipe, train, val = _prepared(args)
    with _recording(args, "preprocess", config, {
            "train_rows": train.n_rows, "val_rows": val.n_rows,
            "n_features": len(pipe.feature_names),
            "feature_names": pipe.feature_names}) as run_dir:
        for name, seq in (("train", train), ("val", val)):
            np.savez(run_dir / f"{name}.npz", features=seq.features,
                     targets=seq.targets, session_ids=seq.session_ids,
                     timestamps=seq.timestamps)
        with open(run_dir / "pipeline.json", "w", encoding="utf-8") as fh:
            json.dump(pipe.to_dict(), fh, indent=2, sort_keys=True)
    print(run_dir)
    return 0


def _parse_list(flag: str, items, parse) -> list:
    """parse() of each item; a ValueError or an ArgumentTypeError is a
    ConfigurationError naming the flag."""
    try:
        return [parse(x) for x in items]
    except (ValueError, argparse.ArgumentTypeError) as e:
        raise ConfigurationError(f"{flag}: {e}") from None


def _parse_layers(spec: str) -> tuple[int, ...]:
    return tuple(_parse_list("--layers", filter(str.strip, spec.split(",")),
                             int))


def _parse_clip(x: str) -> float | None:
    """A clip threshold; "none" (or empty) is no clipping."""
    try:
        return None if x in ("none", "") else float(x)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or none, got {x!r}") from None


def _do_pretrain(args) -> int:
    pcfg = PretrainConfig(layers=_parse_layers(args.layers),
                          steps=args.steps, batch=args.batch, lr=args.lr,
                          clip=args.clip, window=args.window, seed=args.seed,
                          eval_every=args.eval_every)
    pipe, train, val = _prepared(args)
    ckpt, result = cmd_pretrain(train, val, pipe, pcfg,
                                provenance=_provenance())
    with _recording(args, "pretrain", ckpt.config, {
            "best_val_loss": result.best_val_loss, "diverged": result.diverged,
            "steps_run": len(result.loss_curve)}) as run_dir:
        save_checkpoint(ckpt, run_dir / "checkpoint.json")
        header = ["step", "train_loss", "val_loss"]
        _write_csv(run_dir / "loss_curve.csv", header,
                   (dict(zip(header, row)) for row in result.loss_curve))
    print(run_dir)
    return 0


def _do_sweep(args) -> int:
    scfg = SweepConfig(
        layers=[_parse_layers(s) for s in args.layers.split(";")],
        lrs=_parse_list("--lrs", args.lrs.split(","), float),
        clips=_parse_list("--clips", args.clips.split(","), _parse_clip),
        repeats=args.repeats, steps=args.steps, batch=args.batch,
        window=args.window, eval_every=args.eval_every, seed=args.seed)
    _, train, val = _prepared(args)
    rows = cmd_sweep(train, val, scfg)
    with _recording(args, "sweep", asdict(scfg),
                    {"runs": len(rows)}) as run_dir:
        _write_csv(run_dir / "sweep.csv",
                   ["layers", "lr", "clip", "repeat", "best_val_loss",
                    "wall_seconds", "error"], rows)
    print(run_dir)
    return 0


def _finetune_cfg(args) -> FinetuneConfig:
    return FinetuneConfig(
        lambda_reg=args.lambda_reg,
        freeze_after=args.freeze_after,
        lr=args.lr, clip=args.clip)


def _do_finetune(args) -> int:
    fcfg = _finetune_cfg(args)
    ckpt, stream = _finetune_stream(args)
    m = cmd_finetune(ckpt, stream, fcfg)
    with _recording(args, "finetune", asdict(fcfg), m.summary()) as run_dir:
        _per_step_csv(run_dir / "metrics.csv", stream.target_names,
                      m.timestamps, {"pred_": m.predictions,
                                     "pred_frozen_": m.predictions_frozen,
                                     "true_": m.targets},
                      {"loss": m.loss, "loss_frozen": m.loss_frozen,
                       "cum_loss": np.cumsum(m.loss),
                       "cum_loss_frozen": np.cumsum(m.loss_frozen),
                       "anchor_distance": m.anchor_distance,
                       "grad_norm": m.grad_norm,
                       # 1 where the clip scaled the update down
                       "clipped": (m.grad_norm > (fcfg.clip or np.inf)
                                   ).astype(np.int64)})
    print(run_dir)
    return 0


def _do_ablate(args) -> int:
    fcfg = _finetune_cfg(args)
    ckpt, stream = _finetune_stream(args)
    rows = cmd_ablate(ckpt, stream, fcfg)
    with _recording(args, "ablate", asdict(fcfg),
                    {"rows": len(rows)}) as run_dir:
        _write_csv(run_dir / "ablation.csv",
                   ["kind", "lambda_reg", "freeze_after", "total_loss",
                    "mean_loss", "final_anchor_distance"], rows)
    print(run_dir)
    return 0


def _do_evaluate(args) -> int:
    ckpt, data = _finetune_stream(args)
    result = cmd_evaluate(ckpt, data)
    config = {"checkpoint": str(args.checkpoint), "split": args.split}
    metrics = {k: result[k] for k in ("per_target_mse", "huber_mean",
                                      "huber_total", "nonfinite_steps")}
    with _recording(args, "evaluate", config, metrics) as run_dir:
        _per_step_csv(run_dir / "predictions.csv", result["target_names"],
                      result["timestamps"], {"pred_": result["predictions"],
                                             "true_": result["targets"]}, {})
    print(run_dir)
    return 0


def _do_impute_bench(args) -> int:
    cfg = _gen_cfg(args)
    config = {**asdict(cfg), "mask_rate": args.mask_rate, "k": args.k,
              "window": args.window}
    results = impute_benchmark(cfg, mask_rate=args.mask_rate,
                               window=args.window, k=args.k, seed=args.seed)
    with _recording(args, "impute-bench", config, results):
        pass    # the summary is the whole record
    print(json.dumps(results))
    return 0


# ------------------------------------------------------------------- parser
# A scalar flag that sets a config field takes that field's default.

def _add_common(p):
    p.add_argument("--out", default="runs", help="parent directory for runs")
    p.add_argument("--run-dir", default=None, help="exact run directory")


def _add_gen_flags(p):
    g = GeneratorConfig()
    p.add_argument("--seed", type=int, default=g.seed)
    p.add_argument("--sessions", type=int, default=g.sessions)
    p.add_argument("--session-seconds", type=int, default=g.session_seconds)
    p.add_argument("--missing-rate", type=float, default=g.missing_rate)
    p.add_argument("--shift-sessions", type=int, default=g.shift_sessions)
    p.add_argument("--emission-gain", type=float, default=g.shift.emission_gain)
    p.add_argument("--ambient-offset", type=float,
                   default=g.shift.ambient_offset_c)


def _add_data_flags(p):
    p.add_argument("--data", required=True,
                   help="directory with emission.csv and weather.csv")


def _add_checkpoint_flags(p):
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=["val", "train", "all"], default="val")


def _add_finetune_flags(p):
    f = FinetuneConfig()
    p.add_argument("--lambda-reg", type=float, default=f.lambda_reg)
    p.add_argument("--freeze-after", type=int, default=f.freeze_after)
    p.add_argument("--lr", type=float, default=f.lr)
    p.add_argument("--clip", type=_parse_clip, default=f.clip,
                   help="gradient-norm bound, or none")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lru-online")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    _add_gen_flags(p)
    p.set_defaults(func=_do_gen_data)

    p = sub.add_parser("preprocess", help="materialize the pipeline outputs")
    _add_common(p)
    _add_data_flags(p)
    p.set_defaults(func=_do_preprocess)

    p = sub.add_parser("pretrain", help="offline training by BPTT")
    _add_common(p)
    _add_data_flags(p)
    c = PretrainConfig()
    p.add_argument("--seed", type=int, default=c.seed)
    p.add_argument("--layers", default="16", help="comma list, e.g. 16 or 16,16")
    p.add_argument("--steps", type=int, default=c.steps)
    p.add_argument("--batch", type=int, default=c.batch)
    p.add_argument("--lr", type=float, default=c.lr)
    p.add_argument("--clip", type=_parse_clip, default=c.clip,
                   help="gradient-norm bound, or none")
    p.add_argument("--window", type=int, default=c.window)
    p.add_argument("--eval-every", type=int, default=c.eval_every)
    p.set_defaults(func=_do_pretrain)

    p = sub.add_parser("sweep", help="hyperparameter grid")
    _add_common(p)
    _add_data_flags(p)
    c = SweepConfig()
    p.add_argument("--seed", type=int, default=c.seed)
    p.add_argument("--layers", default="8;16;8,8;16,16;8,8,8",
                   help="semicolon-separated layer tuples")
    p.add_argument("--lrs", default="1e-2,1e-3,1e-4")
    p.add_argument("--clips", default="0.5,1.0,none")
    p.add_argument("--repeats", type=int, default=c.repeats)
    p.add_argument("--steps", type=int, default=c.steps)
    p.add_argument("--batch", type=int, default=c.batch)
    p.add_argument("--window", type=int, default=c.window)
    p.add_argument("--eval-every", type=int, default=c.eval_every)
    p.set_defaults(func=_do_sweep)

    for name, func, help in (
            ("finetune", _do_finetune, "online fine-tuning during inference"),
            ("ablate", _do_ablate, "regularization/freeze ablation grids")):
        p = sub.add_parser(name, help=help)
        _add_common(p)
        _add_data_flags(p)
        _add_checkpoint_flags(p)
        _add_finetune_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("evaluate", help="frozen evaluation of a checkpoint")
    _add_common(p)
    _add_data_flags(p)
    _add_checkpoint_flags(p)
    p.set_defaults(func=_do_evaluate)

    p = sub.add_parser("impute-bench", help="rolling-median vs KNN imputation")
    _add_common(p)
    _add_gen_flags(p)
    p.add_argument("--mask-rate", type=float, default=0.2)
    p.add_argument("--window", type=int, default=IMPUTE_WINDOW)
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
