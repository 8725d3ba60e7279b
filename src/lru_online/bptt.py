"""Offline training: windowed batching, exact reverse-mode gradients
through the unrolled linear recurrence, and the training loop shared by
every trainer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .datapipe import SequenceData
from .errors import ConfigurationError, TrainingError
from .lru import LruNetwork, derive_gamma, derive_lambda, network_scan
from .optim import AdamState, apply_update, huber, huber_grad


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
    huber_delta: float = 1.0


@dataclass
class TrainResult:
    net: LruNetwork                       # best-validation parameters
    loss_curve: list = field(default_factory=list)  # (step, train, val|nan)
    best_val_loss: float = float("nan")
    diverged: bool = False


def sample_windows(data: SequenceData, T: int, batch: int,
                   rng: np.random.Generator | int = 0) -> WindowBatch:
    """Uniform over all admissible (session, offset) windows, so sessions
    contribute proportionally to their available window count."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    sessions = data.sessions()
    spans = []
    for sid in sessions:
        idx = data.session_slice(sid)
        if idx.size < T:
            raise ConfigurationError(
                f"window length {T} exceeds session {sid} length {idx.size}")
        spans.append((idx[0], idx.size - T + 1))
    counts = np.array([c for _, c in spans])
    cum = np.cumsum(counts)
    draws = rng.integers(0, cum[-1], size=batch)
    which = np.searchsorted(cum, draws, side="right")
    inputs = np.empty((batch, T, data.features.shape[1]))
    targets = np.empty((batch, T, data.targets.shape[1]))
    sids = np.empty(batch, dtype=np.int64)
    for b in range(batch):
        s = which[b]
        start = spans[s][0] + (draws[b] - (cum[s - 1] if s else 0))
        inputs[b] = data.features[start:start + T]
        targets[b] = data.targets[start:start + T]
        sids[b] = sessions[s]
    return WindowBatch(inputs=inputs, targets=targets, window=T, session_ids=sids)


def bptt_gradient(net: LruNetwork, batch: WindowBatch,
                  delta: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean per-step Huber loss over the batch and its exact full-unroll
    gradient (flat, laid out like net.theta), computed by hand-rolled
    reverse mode (the stack is linear, so the complex adjoint recursion
    s_t = a_t + lambda * s_{t+1} suffices)."""
    inputs = np.asarray(batch.inputs, dtype=np.float64)
    targets = np.asarray(batch.targets, dtype=np.float64)
    B, T, _ = inputs.shape
    layer_inputs, layer_states, preds = network_scan(net, inputs)
    resid = preds - targets
    loss = huber(resid, delta)
    if not np.isfinite(loss):
        bad = np.nonzero(~np.isfinite(resid).all(axis=(1, 2)))[0]
        raise TrainingError(f"non-finite loss in batch entries {bad.tolist()}")
    down = huber_grad(resid, delta)                  # (B, T, p)
    grads = np.empty_like(net.theta)
    blocks = net.unflatten(grads)
    for k in range(net.depth - 1, -1, -1):
        layer = net.layers[k]
        u = layer_inputs[k]
        h = layer_states[k]
        lam = derive_lambda(layer)
        gamma = derive_gamma(layer)
        Bc = layer.b_re + 1j * layer.b_im
        Cc = layer.c_re + 1j * layer.c_im

        out = blocks[k]
        out["c_re"][...] = np.einsum("btp,btn->pn", down, h.real)
        out["c_im"][...] = -np.einsum("btp,btn->pn", down, h.imag)
        out["d"][...] = np.einsum("btp,btm->pm", down, u)

        a = down @ Cc                                # (B, T, n) adjoint of h
        s = np.empty_like(a)
        s[:, -1] = a[:, -1]
        for t in range(T - 2, -1, -1):
            s[:, t] = a[:, t] + lam * s[:, t + 1]

        h_prev = np.concatenate(
            [np.zeros((B, 1, layer.n), dtype=np.complex128), h[:, :-1]], axis=1)
        sh = np.sum(s * h_prev, axis=(0, 1))
        bu = u @ Bc.T
        M = s * gamma
        out["nu"][...] = np.real(-np.exp(layer.nu) * lam * sh)
        out["theta_phase"][...] = np.real(
            1j * np.exp(layer.theta_phase) * lam * sh)
        out["gamma_log"][...] = np.real(gamma * np.sum(s * bu, axis=(0, 1)))
        out["b_re"][...] = np.real(np.einsum("btn,btm->nm", M, u))
        out["b_im"][...] = -np.imag(np.einsum("btn,btm->nm", M, u))
        if k > 0:
            down = np.real(M @ Bc) + down @ layer.d
    return loss, grads


def evaluate(net: LruNetwork, data: SequenceData, delta: float = 1.0) -> float:
    """Mean per-step Huber loss over full sessions from zero initial state."""
    total, count = 0.0, 0
    for sid in data.sessions():
        idx = data.session_slice(sid)
        _, _, preds = network_scan(net, data.features[idx])
        total += huber(preds - data.targets[idx], delta) * idx.size
        count += idx.size
    return total / count


def bptt_step(net: LruNetwork, batch: WindowBatch, adam: AdamState,
              cfg: TrainConfig) -> float:
    """One Adam update on the batch's exact BPTT gradient."""
    loss, grads = bptt_gradient(net, batch, cfg.huber_delta)
    apply_update(net.theta, grads, adam, cfg.clip)
    return loss


def train(net: LruNetwork, train_data: SequenceData,
          val_data: SequenceData | None, cfg: TrainConfig,
          step: Callable[[LruNetwork, WindowBatch, AdamState, TrainConfig],
                         float] = bptt_step) -> TrainResult:
    """The training loop of every trainer. Each of cfg.steps iterations
    samples cfg.batch windows and calls step(net, batch, adam, cfg), which
    updates net.theta in place and returns the train loss. The loop tracks
    the train loss every step and the validation loss at the eval cadence, and
    returns the best-validation parameters (the last ones without
    validation data). A non-finite loss or gradient (TrainingError) stops
    training with `diverged` set; the last finite best parameters are kept.
    The input network is not modified."""
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    adam = AdamState.init(net.theta, lr=cfg.lr)
    best = None
    best_val = float("inf")
    curve = []
    diverged = False
    for i in range(1, cfg.steps + 1):
        batch = sample_windows(train_data, cfg.window, cfg.batch, rng)
        try:
            loss = step(net, batch, adam, cfg)
        except TrainingError:
            diverged = True
            break
        val_loss = float("nan")
        if val_data is not None and (i % cfg.eval_every == 0 or i == cfg.steps):
            val_loss = evaluate(net, val_data, cfg.huber_delta)
            if val_loss < best_val:
                best_val = val_loss
                best = net.theta.copy()
        curve.append((i, loss, val_loss))
    if val_data is None:
        best_val = float("nan")
    if np.isfinite(best_val):
        net.theta[...] = best
    return TrainResult(net=net, loss_curve=curve, best_val_loss=best_val,
                       diverged=diverged)
