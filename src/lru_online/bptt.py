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
from .lru import (LruNetwork, _check_call, _LayerKernel, _linear_recurrence,
                  layer_constants, network_scan)
from .optim import AdamState, _Descent, _huber_loss_grad, huber

_CONJ = np.array([1.0, -1.0])   # (re, im) pairs times this: their conjugate


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
                   rng: np.random.Generator | int = 0
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, targets) of `batch` windows of T rows, time first:
    C-contiguous (T, batch, m) and (T, batch, p) copies. Windows are
    uniform over all admissible (session, offset) windows, so sessions
    contribute proportionally to their available window count. Empty data
    is a ContractViolationError; T or batch below 1, or a session shorter
    than T, is a ConfigurationError."""
    if batch < 1:
        raise ConfigurationError(f"batch must be at least 1, got {batch}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return _WindowSampler(data, T)(batch, rng)


class _WindowSampler:
    """sample_windows for one data set and window length: the session
    bounds and window counts are found (and checked) once, and each call
    only draws from rng and gathers, with the same draws as
    sample_windows."""

    def __init__(self, data: SequenceData, T: int):
        if T < 1:
            raise ConfigurationError(
                f"window length must be at least 1, got {T}")
        if data.n_rows == 0:
            raise ContractViolationError(
                "cannot sample windows from data with no rows")
        first, stop = data.session_bounds()
        sizes = stop - first
        short = np.flatnonzero(sizes < T)
        if short.size:
            s = short[0]
            raise ConfigurationError(
                f"window length {T} exceeds session "
                f"{data.session_ids[first[s]]} length {sizes[s]}")
        counts = sizes - T + 1
        self.data = data
        self.cum = np.cumsum(counts)
        # a draw d in session k's range starts its window at d + offset[k]
        self.offset = first - (self.cum - counts)
        self.steps = np.arange(T)[:, None]

    def __call__(self, batch: int, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray]:
        draws = rng.integers(0, self.cum[-1], size=batch)
        which = np.searchsorted(self.cum, draws, side="right")
        rows = self.steps + (draws + self.offset[which])     # (T, batch)
        # np.take: the fancy-index gather's values and C-contiguous
        # (T, batch, ·) result in about half its time
        return (np.take(self.data.features, rows, axis=0),
                np.take(self.data.targets, rows, axis=0))


def bptt_gradient(net: LruNetwork, inputs: np.ndarray,
                  targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-step Huber loss (delta 1) over a batch of windows, inputs
    (T, batch, m) and targets (T, batch, p) time first, and its exact
    full-unroll gradient (flat, laid out like net.theta). The forward pass
    is network_scan from zero states; the backward pass is hand-rolled
    reverse mode (the stack is linear, so the complex adjoint recursion
    s_t = a_t + lambda * s_{t+1} suffices; it runs through the same
    _linear_recurrence as the forward scan, on the time-reversed adjoint),
    with each layer's (lambda, gamma, dlambda) derived again from theta, so
    bitwise the constants its scan used. Time first, every step of both
    recurrences is a contiguous (batch, n) slice; sampled windows are
    C-contiguous float64 already and are not copied. A batch of at least
    lru.STEP_LOOP_MIN entries per step runs both recurrences as plain step
    loops, a smaller one chunked. The residual is taken in place in the top
    prediction, and the loss and its gradient come from its clipped value
    psi = min(max(r, -1), 1) (optim._huber_loss_grad: the loss
    mean(psi (r - psi/2)), the gradient psi / count over the residual's
    memory). A non-finite loss is a TrainingError naming the batch entries
    whose residual is not finite, found by running the forward pass again,
    or saying that the loss overflowed when every residual is finite. The
    contractions over (time, batch) are real matmuls on float64 views of
    the complex arrays; sum_t down_t h_t and sum_t s_t u_t run as
    (B.T @ A).T, the order that was faster in the step on its tall arrays
    and, with OpenBLAS 0.3.31, bitwise A.T @ B. Inputs and targets that do
    not fit the network raise in _check_call."""
    inputs = np.ascontiguousarray(inputs, dtype=np.float64)
    targets = np.ascontiguousarray(targets, dtype=np.float64)
    _check_call(net, inputs, targets, ndim=3)
    layer_inputs, layer_states, preds = network_scan(net, inputs)
    # the residual in place: the top prediction is no layer's input
    loss, down = _huber_loss_grad(np.subtract(preds, targets, out=preds))
    if not np.isfinite(loss):
        # down holds the gradient now; the forward pass again gives the
        # residual whose non-finite entries name the batch entries
        resid = network_scan(net, inputs)[2] - targets
        bad = np.nonzero(~np.isfinite(resid).all(axis=(0, 2)))[0]
        if not bad.size:
            raise TrainingError(
                "the loss overflowed with every residual finite")
        raise TrainingError(f"non-finite loss in batch entries {bad.tolist()}")
    grads = np.empty_like(net.theta)
    outs = net.paired(grads)
    for k in range(net.depth - 1, -1, -1):
        layer, out = net.layers[k], outs[k]
        n, m, p = net.dims[k]
        lam, gamma, dlam = layer_constants(_LayerKernel(layer))
        u2 = layer_inputs[k].reshape(-1, m)
        h = layer_states[k]
        down2 = down.reshape(-1, p)

        # the c pairs are (Re, -Im) of sum_t down_t h_t; this and su are
        # (B.T @ A).T, the faster order here (docstring)
        gc = (h.view(np.float64).reshape(-1, 2 * n).T @ down2).T
        np.multiply(gc.reshape(p, n, 2), _CONJ, out=out.c)
        out.d[...] = down2.T @ u2

        # adjoint of h: a = down @ (c_re + i c_im), the (re, im) pairs of
        # down @ C2; s_t = a_t + lam * s_{t+1} is the forward recurrence on
        # the time-reversed a, run in place
        s2 = down2 @ layer.c2
        s = s2.view(np.complex128).reshape(h.shape)
        _linear_recurrence(lam, s[::-1])

        sh = np.sum(s[1:] * h[:-1], axis=(0, 1))          # sum_t s_t h_{t-1}
        su = (u2.T @ s2).T                                # sum_t s_t u_t^T
        out.nu_phase[...] = (dlam * sh[:, None]).real
        # sum_t s_t (B u_t) = rowsum(B * su)
        out.gamma_log[...] = gamma * np.sum(
            layer.b_re * su[0::2] - layer.b_im * su[1::2], axis=1)
        # the b pairs are gamma * (Re, -Im) of su
        signs = gamma[:, None] * _CONJ
        np.multiply(su.reshape(n, 2, m).transpose(0, 2, 1), signs[:, None],
                    out=out.b)
        if k > 0:
            # dL/du = Re[(gamma * s) @ (b_re + i b_im)] + down @ d
            down = (s2 @ (layer.b * signs[:, None]).transpose(0, 2, 1).reshape(
                2 * n, m) + down2 @ layer.d).reshape(layer_inputs[k].shape)
    return loss, grads


def _scan_sessions(net: LruNetwork, data: SequenceData, start: int = 0,
                   states: list[np.ndarray] | None = None) -> np.ndarray:
    """The fixed-theta predictor: predictions (N - start, p) for rows
    [start, N) of the data. When row `start` is inside a session, that
    session continues from `states` (one (n_k,) state per layer; zero when
    None); every session that begins at or after `start` begins from zero
    states. Each run of finite feature rows is one network_scan. A
    non-finite feature row is predicted from the states before it by a
    one-row scan whose states are dropped, so it leaves them as they
    were. Empty data is a ContractViolationError; a feature or target
    width that is not the network's is a CompatibilityError."""
    _check_widths(net, data, "data")
    if data.n_rows == 0:
        raise ContractViolationError("cannot evaluate on data with no rows")
    features = data.features
    preds = np.empty_like(data.targets[start:])
    # one whole-array check; flags per row only for data that fails it
    bad = (None if np.isfinite(features[start:]).all()
           else ~np.isfinite(features).all(axis=1))
    for first, stop in zip(*data.session_bounds()):
        if stop <= start:
            continue
        if first >= start:
            states = None
        lo = max(first, start)
        cuts = [] if bad is None else (lo + np.flatnonzero(bad[lo:stop]))
        for cut in [*cuts, stop]:
            if cut > lo:
                _, h, preds[lo - start:cut - start] = network_scan(
                    net, features[lo:cut], states)
                # copies, so no session's (T, n) states outlive its scan
                states = [h_k[-1].copy() for h_k in h]
            if cut < stop:
                preds[cut - start] = network_scan(
                    net, features[cut:cut + 1], states)[2][0]
            lo = cut + 1
    return preds


def _finite_score(resid: np.ndarray) -> tuple[float, np.ndarray]:
    """(loss, scored rows) of a (N, p) residual: huber(resid) and resid,
    unless that loss is not finite; then the huber mean of the rows whose
    residual is finite (NaN when there is none) and those rows."""
    loss = huber(resid)
    if not np.isfinite(loss):
        resid = resid[np.isfinite(resid).all(axis=1)]
        loss = huber(resid) if len(resid) else float("nan")
    return loss, resid


def evaluate(net: LruNetwork, data: SequenceData) -> float:
    """Mean per-step Huber loss over full sessions, each predicted from
    zero states by _scan_sessions (raising as it does) and scored by
    _finite_score, so bitwise harness.cmd_evaluate's huber_mean: rows
    with a non-finite feature or target are left out; NaN when all are."""
    return _finite_score(_scan_sessions(net, data) - data.targets)[0]


def train(net: LruNetwork, train_data: SequenceData,
          val_data: SequenceData | None, cfg: TrainConfig,
          gradient: Callable[[LruNetwork, np.ndarray, np.ndarray],
                             tuple[float, np.ndarray]] = bptt_gradient
          ) -> TrainResult:
    """The training loop of every trainer. Each of cfg.steps iterations
    samples cfg.batch windows (the draws of successive sample_windows
    calls on one generator seeded with cfg.seed, through one sampler built
    for the run), takes (train loss, flat gradient) =
    gradient(net, inputs, targets) on the time-first windows and applies
    the run's one update, optim._Descent (fresh Adam at cfg.lr, cfg.clip).
    It tracks the train loss every step and the validation loss (evaluate,
    cmd_evaluate's huber_mean) at the eval cadence, and returns the
    best-validation parameters; with no finite validation loss, the last
    ones and best_val_loss NaN. A non-finite loss or gradient
    (TrainingError) stops training with `diverged` set. A data set whose widths are not the network's is a
    CompatibilityError, validation data with no rows a
    ContractViolationError, and training data that sample_windows rejects
    raises as there, all before any step. The input network is not
    modified."""
    _check_widths(net, train_data, "training data")
    if val_data is not None:
        _check_widths(net, val_data, "validation data")
        if val_data.n_rows == 0:
            raise ContractViolationError(
                "cannot evaluate on validation data with no rows")
    sample = _WindowSampler(train_data, cfg.window)
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    descend = _Descent(net.theta, AdamState.init(net.theta, lr=cfg.lr),
                       cfg.clip)
    best = None
    best_val = float("inf")
    curve = []
    diverged = False
    for i in range(1, cfg.steps + 1):
        inputs, targets = sample(cfg.batch, rng)
        try:
            loss, grads = gradient(net, inputs, targets)
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
