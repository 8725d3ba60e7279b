"""Experiment orchestration: pretraining (BPTT or RTRL), online fine-tuning
with the anchor regularizer, ablation grids, evaluation and the imputer
benchmark. The CLI in cli.py is a thin wrapper over these functions.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import product

import numpy as np

from .bptt import (TrainConfig, TrainResult, _check_widths, _finite_score,
                   _scan_sessions, bptt_gradient, train)
from .checkpoint import Checkpoint
from .datapipe import (FittedPipeline, SequenceData, SeriesTable,
                       apply_pipeline, fit_pipeline, impute_knn,
                       impute_rolling_median, join_weather, load_emission_csv,
                       load_weather_csv, resample_to_grid, split_sessions)
from .errors import ConfigurationError, ContractViolationError, TrainingError
from .lru import LruNetwork, _check_layers, _check_ring, init_network
from .optim import (AdamState, AnchorConfig, _Descent, _huber_grad,
                    huber_values)
from .rtrl import H, _StreamPlan, reset_trace, window_gradient
from .synth import GeneratorConfig, generate_dataset


# ------------------------------------------------------------ data plumbing

def load_grid(emission_path, weather_path, window: int = 5) -> SeriesTable:
    """Load the CSVs, join the hourly weather, resample every session to the
    1 s grid and impute it with the rolling median."""
    table = load_emission_csv(emission_path)
    table = join_weather(table, load_weather_csv(weather_path))
    return impute_rolling_median(resample_to_grid(table), window)


def prepare_tables(emission_path, weather_path, window: int = 5,
                   strict_vocab: bool = False, train_fraction: float = 0.8
                   ) -> tuple[FittedPipeline, SequenceData, SequenceData]:
    """Full preprocessing: load_grid, session split, pipeline fit
    (vocabularies over train+val unless strict_vocab) and apply."""
    table = load_grid(emission_path, weather_path, window)
    train_t, val_t = split_sessions(table, train_fraction)
    pipe = fit_pipeline(train_t, None if strict_vocab else table, window)
    return pipe, apply_pipeline(pipe, train_t), apply_pipeline(pipe, val_t)


# -------------------------------------------------------------- pretraining

TRAINERS = ("bptt", "rtrl")


@dataclass
class PretrainConfig(TrainConfig):
    """TrainConfig plus the model shape, its eigenvalue ring and the
    trainer, all checked here. The RTRL trainer updates once per window,
    one window per training step, so `batch` applies to BPTT only."""
    trainer: str = "bptt"                 # one of TRAINERS
    layers: tuple[int, ...] = (16,)
    r_min: float = 0.9
    r_max: float = 0.999

    def __post_init__(self):
        super().__post_init__()
        if self.trainer not in TRAINERS:
            raise ConfigurationError(f"unknown trainer {self.trainer!r}")
        _check_layers(self.layers)
        _check_ring(self.r_min, self.r_max)


def cmd_pretrain(train_data: SequenceData, val_data: SequenceData | None,
                 pipeline: FittedPipeline | None, cfg: PretrainConfig,
                 provenance: dict | None = None
                 ) -> tuple[Checkpoint, TrainResult]:
    net = init_network(train_data.features.shape[1], tuple(cfg.layers),
                       train_data.targets.shape[1],
                       r_min=cfg.r_min, r_max=cfg.r_max, seed=cfg.seed)
    if cfg.trainer == "rtrl":   # one window per RTRL step
        result = train(net, train_data, val_data, replace(cfg, batch=1),
                       lambda net, inputs, targets: window_gradient(
                           net, inputs[:, 0], targets[:, 0]))
    else:
        result = train(net, train_data, val_data, cfg, bptt_gradient)
    cfg_dict = asdict(cfg)
    cfg_dict["layers"] = list(cfg.layers)
    ckpt = Checkpoint(net=result.net, pipeline=pipeline, config=cfg_dict,
                      seed=cfg.seed, provenance=provenance or {})
    return ckpt, result


# -------------------------------------------------------------------- sweep

@dataclass
class SweepConfig:
    layers: list = field(default_factory=lambda: [(8,), (16,), (8, 8),
                                                  (16, 16), (8, 8, 8)])
    lrs: list = field(default_factory=lambda: [1e-2, 1e-3, 1e-4])
    clips: list = field(default_factory=lambda: [0.5, 1.0, None])
    trainers: list = field(default_factory=lambda: list(TRAINERS))
    repeats: int = 5
    steps: int = 500
    batch: int = 32
    window: int = 128
    eval_every: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.repeats < 1:
            raise ConfigurationError(
                f"repeats must be at least 1, got {self.repeats}")
        TrainConfig(steps=self.steps, batch=self.batch, window=self.window,
                    eval_every=self.eval_every, seed=self.seed)


def cmd_sweep(train_data: SequenceData, val_data: SequenceData,
              cfg: SweepConfig) -> list[dict]:
    """One row per run (config x repeat), sorted deterministically. Failures
    are recorded in their row and the sweep continues."""
    rows = []
    for trainer, layers, lr, clip, rep in product(
            cfg.trainers, cfg.layers, cfg.lrs, cfg.clips, range(cfg.repeats)):
        row = {"trainer": trainer, "layers": "x".join(map(str, layers)),
               "lr": lr, "clip": "" if clip is None else clip, "repeat": rep}
        t0 = time.perf_counter()
        try:
            pcfg = PretrainConfig(
                trainer=trainer, layers=tuple(layers), lr=lr, clip=clip,
                steps=cfg.steps, batch=cfg.batch, window=cfg.window,
                eval_every=cfg.eval_every, seed=cfg.seed + rep)
            _, result = cmd_pretrain(train_data, val_data, None, pcfg)
            row["best_val_loss"] = result.best_val_loss
            row["error"] = ""
        except Exception as e:  # keep sweeping
            row["best_val_loss"] = float("nan")
            row["error"] = f"{type(e).__name__}: {e}"
        row["wall_seconds"] = time.perf_counter() - t0
        rows.append(row)
    return rows


# -------------------------------------------------------------- fine-tuning

@dataclass
class FinetuneConfig:
    lambda_reg: float = 0.0
    freeze_after: int | None = None   # 0 = never update, None = no freeze
    lr: float = 1e-3                  # 0 = never update
    clip: float | None = 0.5          # None = no clipping

    def __post_init__(self):
        for name in ("lambda_reg", "lr"):
            if not 0 <= getattr(self, name) < float("inf"):
                raise ConfigurationError(f"{name} must be finite and >= 0, "
                                         f"got {getattr(self, name)}")
        if self.freeze_after is not None and self.freeze_after < 0:
            raise ConfigurationError(
                f"freeze_after must be >= 0 or None, got {self.freeze_after}")
        if self.clip is not None and not self.clip > 0:
            raise ConfigurationError(
                f"clip must be > 0 or None, got {self.clip}")


@dataclass
class RunMetrics:
    """Paired per-step traces of the frozen baseline and the fine-tuned run."""
    timestamps: np.ndarray
    targets: np.ndarray            # (N, p)
    predictions: np.ndarray        # fine-tuned, logged pre-update
    predictions_frozen: np.ndarray
    loss: np.ndarray               # (N,) per-step mean Huber
    loss_frozen: np.ndarray
    anchor_distance: np.ndarray    # ||theta_t - theta_pre||_2 after step t
    skipped_updates: int = 0       # steps whose gradient was not finite

    @property
    def finite_steps(self) -> np.ndarray:
        """Steps whose fine-tuned and frozen losses are both finite; the
        totals and means are taken over these, so they stay paired."""
        return np.isfinite(self.loss) & np.isfinite(self.loss_frozen)

    @property
    def total_loss(self) -> float:
        return float(np.sum(self.loss[self.finite_steps]))

    @property
    def total_loss_frozen(self) -> float:
        return float(np.sum(self.loss_frozen[self.finite_steps]))

    @property
    def mean_loss(self) -> float:
        return self._finite_mean(self.loss)

    @property
    def mean_loss_frozen(self) -> float:
        return self._finite_mean(self.loss_frozen)

    def _finite_mean(self, loss: np.ndarray) -> float:
        """Mean of loss over the finite steps; NaN, with no warning,
        when there is none."""
        finite = self.finite_steps
        return float(np.mean(loss[finite])) if finite.any() else float("nan")

    def summary(self) -> dict:
        n = self.loss.size
        return {
            "steps": n,
            "total_loss_finetuned": self.total_loss,
            "total_loss_frozen": self.total_loss_frozen,
            "mean_loss_finetuned": self.mean_loss,
            "mean_loss_frozen": self.mean_loss_frozen,
            "final_anchor_distance": float(self.anchor_distance[-1]),
            "skipped_updates": self.skipped_updates,
            "nonfinite_steps": n - int(np.sum(self.finite_steps)),
        }


class OnlineLearner:
    """A copy of a pretrained network adapted one incoming row at a time,
    as cmd_finetune and a deployed model run it: per row predict(u) before
    the label is known, then observe(y); end_session() at each session
    start. RTRL (rtrl._StreamPlan) and one update (optim._Descent: Adam at
    cfg.lr on the Huber gradient plus the cfg.lambda_reg pull toward the
    pretrained theta, clipped at cfg.clip); the caller applies
    cfg.freeze_after by stopping. A non-finite feature row leaves the
    states and traces as they were; an update whose gradient is not finite
    (a NaN label reports a row without one) counts in `skipped` and
    changes nothing. observe before predict, predict twice, and a row or
    label of the wrong width are ContractViolationErrors that change
    nothing. observe reads the returned prediction again: copy it before
    writing to it."""

    def __init__(self, net: LruNetwork, cfg: FinetuneConfig):
        self.net = net.copy()
        self.adam = AdamState.init(self.net.theta, lr=cfg.lr)
        anchor = AnchorConfig(theta_pre=net.theta.copy(),
                              lambda_reg=cfg.lambda_reg)
        self._plan = _StreamPlan(self.net)
        self._descend = _Descent(self.net.theta, self.adam, cfg.clip, anchor)
        self._u_shape, self._y_shape = (net.input_dim,), (net.output_dim,)
        self._pending = None   # predict's outputs, until observe reads them
        self.skipped = 0       # updates whose gradient was not finite
        self.end_session()

    @property
    def distance(self) -> float:
        """||theta - theta_pre||_2 after the last update."""
        return self._descend.distance

    @property
    def states(self) -> list[np.ndarray]:
        """Each layer's state (n,): a view of its trace's H column."""
        return [z[:, H] for z in self.traces]

    def end_session(self) -> None:
        """Zero the traces, the states with them; theta and the Adam state
        carry over. A pending prediction's observe may still follow."""
        self.traces = reset_trace(self.net)

    def predict(self, u: np.ndarray) -> np.ndarray:
        """The prediction (p,) for the feature row u (m,) at the current
        theta, from the states before it."""
        if self._pending is not None:
            raise ContractViolationError("predict called twice")
        u = np.asarray(u, dtype=np.float64)
        if u.shape != self._u_shape:
            raise ContractViolationError(
                f"row shape {u.shape} for input shape {self._u_shape}")
        traces, y_hat, _ = self._pending = self._plan.predict(self.traces, u)
        # a finite u.dot(u) (half u @ u's time) skips the full scan
        if math.isfinite(u.dot(u)) or np.isfinite(u).all():
            self.traces = traces
        return y_hat

    def observe(self, y: np.ndarray) -> None:
        """Update theta and the Adam state on the label y (p,) of the row
        that predict saw last."""
        if self._pending is None:
            raise ContractViolationError("observe called before predict")
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self._y_shape:
            raise ContractViolationError(
                f"label shape {y.shape} for output shape {self._y_shape}")
        traces, y_hat, inputs = self._pending
        self._pending = None
        plan = self._plan
        g = _huber_grad(np.subtract(y_hat, y, out=plan.g))
        try:
            self._descend(plan.gradient(traces, inputs, g))
        except TrainingError:
            self.skipped += 1   # non-finite gradient: nothing was updated


def _adapt(learner: OnlineLearner, stream: SequenceData, freeze: int,
           preds: np.ndarray, dist: np.ndarray) -> None:
    """cmd_finetune's adaptive pass: rows [0, freeze) through the learner,
    each row's prediction into preds and the distance after it into dist."""
    features, targets = stream.features, stream.targets
    for first, stop in zip(*stream.session_bounds()):
        if first >= freeze:
            break
        learner.end_session()
        for t in range(first, min(stop, freeze)):
            preds[t] = learner.predict(features[t])
            learner.observe(targets[t])
            dist[t] = learner.distance


def cmd_finetune(ckpt: Checkpoint, stream: SequenceData,
                 cfg: FinetuneConfig) -> RunMetrics:
    """Online fine-tuning against a ground-truth stream.

    The fixed-theta predictor bptt._scan_sessions runs the frozen
    checkpoint over the stream, each session from zero states: the same
    computation as cmd_evaluate, so predictions_frozen is bitwise
    cmd_evaluate's predictions. With freeze 0 (lr 0 or freeze_after 0)
    that is the only pass: the fine-tuned predictions and losses are
    copies of the frozen ones and the anchor distance is 0. Otherwise an
    OnlineLearner runs rows [0, freeze), the first freeze_after rows (all
    when None): each prediction is logged before its label updates θ (no
    label leakage), and a step whose gradient is not finite (a NaN feature
    or target) counts in RunMetrics.skipped_updates. _scan_sessions then
    runs the learner's net from the freeze row on, continuing its states
    inside the freeze row's session. At fixed theta too a non-finite
    feature row is predicted and leaves the states as they were.

    The losses come from the logged predictions. Sessions come from
    stream.session_bounds(), so a session id that comes back is a
    ContractViolationError, as is an empty stream. A feature or target
    width that is not the checkpoint's is a CompatibilityError, raised
    before any pass runs.
    """
    frozen = ckpt.net
    _check_widths(frozen, stream, "stream")
    if stream.n_rows == 0:
        raise ContractViolationError("cannot fine-tune on a stream with no rows")
    freeze = 0 if cfg.lr == 0 else stream.n_rows
    if cfg.freeze_after is not None:
        freeze = min(freeze, cfg.freeze_after)
    preds_frozen = _scan_sessions(frozen, stream)
    loss_frozen = huber_values(preds_frozen - stream.targets).mean(axis=1)
    preds, loss = preds_frozen.copy(), loss_frozen.copy()
    dist, skipped = np.zeros(stream.n_rows), 0
    if freeze:
        learner = OnlineLearner(frozen, cfg)
        _adapt(learner, stream, freeze, preds, dist)
        dist[freeze:], skipped = learner.distance, learner.skipped
        preds[freeze:] = _scan_sessions(learner.net, stream, freeze,
                                        learner.states)
        loss = huber_values(preds - stream.targets).mean(axis=1)
    return RunMetrics(timestamps=stream.timestamps.copy(),
                      targets=stream.targets.copy(),
                      predictions=preds, predictions_frozen=preds_frozen,
                      loss=loss, loss_frozen=loss_frozen,
                      anchor_distance=dist, skipped_updates=skipped)


# ----------------------------------------------------------------- ablation

LAMBDA_GRID = (0.0, 0.001, 0.01, 0.1)
FREEZE_GRID = (1000, 2000, 3000)


def cmd_ablate(ckpt: Checkpoint, stream: SequenceData,
               base: FinetuneConfig) -> list[dict]:
    """Regularization-strength grid over the full horizon, the freeze-after
    grid with the best lambda (the first least total loss in LAMBDA_GRID)
    and with lambda 0, and the frozen baseline of the last lambda run:
    4 + 2*3 + 1 rows. Each distinct (lambda, freeze) cell runs
    cmd_finetune once, in row order."""
    runs = {}

    def row(kind: str, lam: float, freeze: int | None) -> dict:
        if (lam, freeze) not in runs:
            runs[lam, freeze] = cmd_finetune(
                ckpt, stream, replace(base, lambda_reg=lam,
                                      freeze_after=freeze))
        metrics = runs[lam, freeze]
        return {"kind": kind, "lambda_reg": lam,
                "freeze_after": "" if freeze is None else freeze,
                "total_loss": metrics.total_loss,
                "mean_loss": metrics.mean_loss,
                "final_anchor_distance": float(metrics.anchor_distance[-1])}

    rows = [row("lambda", lam, None) for lam in LAMBDA_GRID]
    best = min(LAMBDA_GRID, key=lambda lam: runs[lam, None].total_loss)
    rows += [row("freeze", lam, freeze)
             for lam in (best, 0.0) for freeze in FREEZE_GRID]
    last = runs[LAMBDA_GRID[-1], None]
    rows.append({"kind": "baseline", "lambda_reg": "", "freeze_after": "",
                 "total_loss": last.total_loss_frozen,
                 "mean_loss": last.mean_loss_frozen,
                 "final_anchor_distance": 0.0})
    return rows


# --------------------------------------------------------------- evaluation

def cmd_evaluate(ckpt: Checkpoint, data: SequenceData) -> dict:
    """Frozen full-sequence prediction by bptt._scan_sessions, each
    session from zero states, with per-target MSE and Huber totals; also
    returns the per-step prediction/target arrays for plotting. The
    predictions are bitwise cmd_finetune's predictions_frozen. A
    non-finite feature row gets a non-finite prediction and leaves the
    states as they were, so the rest of its session is predicted as
    without it. The metrics score only rows whose residual is finite
    (bptt._finite_score, so huber_mean is bitwise the validation loss
    bptt.evaluate), and nonfinite_steps counts the rest; with no finite
    row they are NaN. Empty data, or a session id that comes back, is a
    ContractViolationError; a feature or target width that is not the
    checkpoint's is a CompatibilityError."""
    preds = _scan_sessions(ckpt.net, data)
    huber_mean, resid = _finite_score(preds - data.targets)
    per_target_mse = (np.mean(resid * resid, axis=0) if len(resid)
                      else np.full(resid.shape[1], np.nan))
    names = data.target_names or [f"target_{i}" for i in range(resid.shape[1])]
    return {
        "per_target_mse": {n: float(v) for n, v in zip(names, per_target_mse)},
        "huber_mean": huber_mean,
        "huber_total": huber_mean * len(resid),
        "nonfinite_steps": len(preds) - len(resid),
        "predictions": preds,
        "targets": data.targets,
        "timestamps": data.timestamps,
        "target_names": names,
    }


# --------------------------------------------------------- imputer benchmark

def impute_benchmark(gen_cfg: GeneratorConfig, mask_rate: float = 0.2,
                     window: int = 5, k: int = 20, seed: int = 0) -> dict:
    """Mask cells of a fully observed synthetic validation table and compare
    the two imputers by MSE on the masked cells (standardized scale). A
    mask_rate outside (0, 1], or a draw that masks no row, is a
    ConfigurationError."""
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    if not 0 < mask_rate <= 1:
        raise ConfigurationError(f"mask_rate {mask_rate} is not in (0, 1]")
    ds = generate_dataset(replace(gen_cfg, missing_rate=0.0))
    table = join_weather(ds.emission, ds.weather)
    _, val = split_sessions(table)
    names = val.numeric_columns()
    for c in names:
        vals = val.columns[c]
        sd = np.std(vals)
        val.columns[c] = (vals - np.mean(vals)) / (sd if sd > 1e-12 else 1.0)
    rng = np.random.default_rng(seed)
    truth = {c: val.columns[c].copy() for c in names}
    masked = val.copy()
    # mask whole rows: the production missingness is absent samples, so a
    # masked cell never has same-row companions to match on
    m = rng.random(val.n_rows) < mask_rate
    first, stop = val.session_bounds()
    m[first] = m[stop - 1] = False  # keep session endpoints observed
    if not m.any():
        raise ConfigurationError(
            f"mask_rate {mask_rate} masked none of the {val.n_rows} rows")
    for c in names:
        masked.columns[c][m] = np.nan

    def mse(imputed: SeriesTable) -> float:
        e = np.concatenate([imputed.columns[c][m] - truth[c][m]
                            for c in names])
        return float(np.mean(e * e))

    rolled = impute_rolling_median(masked, window)
    knned = impute_knn(masked, k)
    return {"rolling_mse": mse(rolled), "knn_mse": mse(knned),
            "masked_cells": int(m.sum()) * len(names)}
