"""Offline training: windowed batching, exact reverse-mode gradients
through the unrolled linear recurrence, and the training loop shared by
every trainer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .datapipe import SequenceData
from .errors import (CompatibilityError, ConfigurationError,
                     ContractViolationError, TrainingError)
from .lru import (LruNetwork, _check_call, _interleave, _linear_recurrence,
                  layer_constants, network_scan)
from .optim import AdamState, _Descent, huber, huber_grad


@dataclass
class WindowBatch:
    """Fixed-length training windows; every window lies inside one session."""
    inputs: np.ndarray        # (batch, T, m)
    targets: np.ndarray       # (batch, T, p)
    window: int
    session_ids: np.ndarray   # (batch,)


@dataclass
class TrainConfig:
    steps: int = 5000
    batch: int = 256
    lr: float = 1e-3
    clip: float | None = 0.5
    window: int = 256
    seed: int = 0
    eval_every: int = 250

    def __post_init__(self):
        for name in ("steps", "batch", "window", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        if not 0 <= self.lr < float("inf"):
            raise ConfigurationError(
                f"lr must be finite and >= 0, got {self.lr}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.clip is not None and not self.clip > 0:
            raise ConfigurationError(
                f"clip must be > 0 or None, got {self.clip}")


@dataclass
class TrainResult:
    net: LruNetwork                       # best-validation parameters
    loss_curve: list = field(default_factory=list)  # (step, train, val|nan)
    best_val_loss: float = float("nan")
    diverged: bool = False


def _check_widths(net: LruNetwork, data: SequenceData, what: str) -> None:
    """The data's feature and target widths must be the network's input
    and output widths (CompatibilityError)."""
    for name, want, got in (("features", net.input_dim,
                             data.features.shape[1]),
                            ("targets", net.output_dim,
                             data.targets.shape[1])):
        if want != got:
            raise CompatibilityError(
                f"the network expects {want} {name} but the {what} has {got}")


def sample_windows(data: SequenceData, T: int, batch: int,
                   rng: np.random.Generator | int = 0) -> WindowBatch:
    """Uniform over all admissible (session, offset) windows, so sessions
    contribute proportionally to their available window count. Empty data
    is a ContractViolationError."""
    if data.n_rows == 0:
        raise ContractViolationError("cannot sample windows from data with no rows")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    ids = data.session_ids
    first, stop = data.session_bounds()
    sizes = stop - first
    short = np.flatnonzero(sizes < T)
    if short.size:
        s = short[0]
        raise ConfigurationError(
            f"window length {T} exceeds session {ids[first[s]]} length {sizes[s]}")
    counts = sizes - T + 1
    cum = np.cumsum(counts)
    draws = rng.integers(0, cum[-1], size=batch)
    which = np.searchsorted(cum, draws, side="right")
    starts = first[which] + draws - (cum - counts)[which]
    rows = starts[:, None] + np.arange(T)                # (batch, T)
    return WindowBatch(inputs=data.features[rows], targets=data.targets[rows],
                       window=T,
                       session_ids=ids[starts].astype(np.int64))


def bptt_gradient(net: LruNetwork,
                  batch: WindowBatch) -> tuple[float, np.ndarray]:
    """Mean per-step Huber loss (delta 1) over the batch and its exact
    full-unroll gradient (flat, laid out like net.theta), computed by
    hand-rolled reverse mode (the stack is linear, so the complex adjoint
    recursion s_t = a_t + lambda * s_{t+1} suffices; it runs through the
    same chunked recurrence as the forward scan). The contractions over
    (batch, time) are real matmuls on float64 views of the complex arrays.
    Inputs and targets that do not fit the network raise in _check_call."""
    inputs = np.asarray(batch.inputs, dtype=np.float64)
    targets = np.asarray(batch.targets, dtype=np.float64)
    _check_call(net, inputs, targets, ndim=3)
    layer_inputs, layer_states, preds = network_scan(net, inputs)
    resid = preds - targets
    loss = huber(resid)
    if not np.isfinite(loss):
        bad = np.nonzero(~np.isfinite(resid).all(axis=(1, 2)))[0]
        raise TrainingError(f"non-finite loss in batch entries {bad.tolist()}")
    down = huber_grad(resid)                         # (B, T, p)
    grads = np.empty_like(net.theta)
    blocks = net.unflatten(grads)
    for k in range(net.depth - 1, -1, -1):
        layer = net.layers[k]
        n, m, p = layer.n, layer.m, layer.p
        u2 = layer_inputs[k].reshape(-1, m)
        h = layer_states[k]
        down2 = down.reshape(-1, p)
        lam, gamma, _, _, dlam_dnu, dlam_dphase = layer_constants(layer)

        out = blocks[k]
        gc = down2.T @ h.view(np.float64).reshape(-1, 2 * n)
        out["c_re"][...] = gc[:, 0::2]
        out["c_im"][...] = -gc[:, 1::2]
        out["d"][...] = down2.T @ u2

        # adjoint of h: a = down @ (c_re + i c_im); s_t = a_t + lam * s_{t+1}
        # is the forward recurrence on the time-reversed a, run in place
        s = (down @ _interleave(layer.c_re, layer.c_im, 1)).view(np.complex128)
        _linear_recurrence(lam, s[:, ::-1])
        s2 = s.view(np.float64).reshape(-1, 2 * n)

        sh = np.sum(s[:, 1:] * h[:, :-1], axis=(0, 1))    # sum_t s_t h_{t-1}
        su = s2.T @ u2                                    # sum_t s_t u_t^T
        su_re, su_im = su[0::2], su[1::2]
        out["nu"][...] = np.real(dlam_dnu * sh)
        out["theta_phase"][...] = np.real(dlam_dphase * sh)
        # sum_t s_t (B u_t) = rowsum(B * su)
        out["gamma_log"][...] = gamma * np.sum(
            layer.b_re * su_re - layer.b_im * su_im, axis=1)
        out["b_re"][...] = gamma[:, None] * su_re
        out["b_im"][...] = -gamma[:, None] * su_im
        if k > 0:
            # dL/du = Re[(gamma * s) @ (b_re + i b_im)] + down @ d
            down = (s2 @ _interleave(gamma[:, None] * layer.b_re,
                                    -gamma[:, None] * layer.b_im, 0)
                    + down2 @ layer.d).reshape(layer_inputs[k].shape)
    return loss, grads


def _scan_sessions(net: LruNetwork, data: SequenceData) -> np.ndarray:
    """Predictions for every row of the data, each session scanned from
    zero initial states. Empty data is a ContractViolationError; a feature
    or target width that is not the network's is a CompatibilityError."""
    _check_widths(net, data, "data")
    if data.n_rows == 0:
        raise ContractViolationError("cannot evaluate on data with no rows")
    preds = np.empty_like(data.targets)
    for first, stop in zip(*data.session_bounds()):
        _, _, preds[first:stop] = network_scan(net, data.features[first:stop])
    return preds


def evaluate(net: LruNetwork, data: SequenceData) -> float:
    """Mean per-step Huber loss over full sessions from zero initial state
    (per-session means weighted by session length); raises as
    _scan_sessions."""
    preds = _scan_sessions(net, data)
    total = 0.0
    for first, stop in zip(*data.session_bounds()):
        total += (huber(preds[first:stop] - data.targets[first:stop])
                  * int(stop - first))
    return total / data.n_rows


def train(net: LruNetwork, train_data: SequenceData,
          val_data: SequenceData | None, cfg: TrainConfig,
          gradient: Callable[[LruNetwork, WindowBatch],
                             tuple[float, np.ndarray]] = bptt_gradient
          ) -> TrainResult:
    """The training loop of every trainer. Each of cfg.steps iterations
    samples cfg.batch windows, takes (train loss, flat gradient) =
    gradient(net, batch) and applies the run's one update, optim._Descent
    (fresh Adam at cfg.lr, cfg.clip). It tracks the train loss every step
    and the validation loss at the eval cadence, and returns the
    best-validation parameters; with no finite validation loss, the last
    ones and best_val_loss NaN. A non-finite loss or gradient
    (TrainingError) stops training with `diverged` set. A data set whose
    widths are not the network's is a CompatibilityError, raised before
    any step. The input network is not modified."""
    _check_widths(net, train_data, "training data")
    if val_data is not None:
        _check_widths(net, val_data, "validation data")
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    descend = _Descent(net.theta, AdamState.init(net.theta, lr=cfg.lr),
                       cfg.clip)
    best = None
    best_val = float("inf")
    curve = []
    diverged = False
    for i in range(1, cfg.steps + 1):
        batch = sample_windows(train_data, cfg.window, cfg.batch, rng)
        try:
            loss, grads = gradient(net, batch)
            descend(grads)
        except TrainingError:
            diverged = True
            break
        val_loss = float("nan")
        if val_data is not None and (i % cfg.eval_every == 0 or i == cfg.steps):
            val_loss = evaluate(net, val_data)
            if val_loss < best_val:
                best_val = val_loss
                best = net.theta.copy()
        curve.append((i, loss, val_loss))
    if np.isfinite(best_val):
        net.theta[...] = best
    else:
        best_val = float("nan")
    return TrainResult(net=net, loss_curve=curve, best_val_loss=best_val,
                       diverged=diverged)
