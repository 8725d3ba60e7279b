#!/usr/bin/env python3
"""One sha256 over the data path and the outputs of pretraining and online
fine-tuning on a small fixed synthetic scenario, for checking that a change
leaves every output bit as it was: run it at both commits and compare the
two lines.

Hashed, in this order:
- the bytes of the emission.csv, weather.csv and sessions.json that
  write_dataset makes of the scenario, then prepare_tables' train and
  validation features, targets, session ids and timestamps, read back
  from those files, and its pipeline as sorted-key JSON;
- for each depth in (8,) and (4, 3), the pretrained theta and the loss
  curve of cmd_pretrain (BPTT);
- for each depth, lambda_reg in {0, 0.01, 0.1} and clip in {0.5, None},
  cmd_finetune's predictions, loss, anchor_distance and skipped_updates on
  the validation stream, from that depth's checkpoint.

Every array is hashed as its float64 (int64 for counts) bytes, so the
digest also tells a +0.0 from a -0.0.
"""

import hashlib
import json
import tempfile
from itertools import product
from pathlib import Path

import numpy as np

from lru_online.datapipe import (apply_pipeline, fit_pipeline,
                                 impute_rolling_median, join_weather,
                                 resample_to_grid, split_sessions)
from lru_online.harness import (FinetuneConfig, PretrainConfig, cmd_finetune,
                                cmd_pretrain, prepare_tables)
from lru_online.synth import GeneratorConfig, generate_dataset, write_dataset

DEPTHS = ((8,), (4, 3))
LAMBDAS = (0.0, 0.01, 0.1)
CLIPS = (0.5, None)


def digest() -> str:
    ds = generate_dataset(GeneratorConfig(sessions=3, session_seconds=600,
                                          seed=0))
    table = impute_rolling_median(resample_to_grid(
        join_weather(ds.emission, ds.weather)))
    train_t, val_t = split_sessions(table)
    pipe = fit_pipeline(train_t)
    train, val = apply_pipeline(pipe, train_t), apply_pipeline(pipe, val_t)
    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())

    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        write_dataset(ds, d)
        for name in ("emission.csv", "weather.csv", "sessions.json"):
            h.update((d / name).read_bytes())
        read_pipe, *read = prepare_tables(d / "emission.csv",
                                          d / "weather.csv")
    for seq in read:
        add(seq.features, seq.targets, seq.session_ids, seq.timestamps)
    h.update(json.dumps(read_pipe.to_dict(), sort_keys=True).encode())

    for layers in DEPTHS:
        cfg = PretrainConfig(layers=layers, steps=20, batch=4, window=32,
                             eval_every=10, lr=1e-2)
        ckpt, result = cmd_pretrain(train, val, pipe, cfg)
        add(result.net.theta, np.array(result.loss_curve, dtype=np.float64))
        for lam, clip in product(LAMBDAS, CLIPS):
            metrics = cmd_finetune(ckpt, val, FinetuneConfig(
                lambda_reg=lam, clip=clip, lr=1e-2))
            add(metrics.predictions, metrics.loss, metrics.anchor_distance,
                np.int64(metrics.skipped_updates))
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
