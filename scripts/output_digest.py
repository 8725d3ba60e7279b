#!/usr/bin/env python3
"""One sha256 over the outputs of pretraining and online fine-tuning on a
small fixed synthetic scenario, for checking that a change leaves every
output bit as it was: run it at both commits and compare the two lines.

Hashed, in this order:
- for each depth in (8,) and (4, 3), the pretrained theta and the loss
  curve of cmd_pretrain (BPTT);
- for each depth, lambda_reg in {0, 0.01, 0.1} and clip in {0.5, None},
  cmd_finetune's predictions, loss, anchor_distance and skipped_updates on
  the validation stream, from that depth's checkpoint.

Every array is hashed as its float64 (int64 for counts) bytes, so the
digest also tells a +0.0 from a -0.0.
"""

import hashlib
from itertools import product

import numpy as np

from lru_online.datapipe import (apply_pipeline, fit_pipeline,
                                 impute_rolling_median, join_weather,
                                 resample_to_grid, split_sessions)
from lru_online.harness import (FinetuneConfig, PretrainConfig, cmd_finetune,
                                cmd_pretrain)
from lru_online.synth import GeneratorConfig, generate_dataset

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
