"""Losses, Adam, global-norm clipping and the L2 anchor regularizer.

Parameters, gradients and optimizer moments are flat float64 vectors laid
out like LruNetwork.theta; updates write into the parameter vector in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, TrainingError


# --------------------------------------------------------------------- loss

def huber_values(residual: np.ndarray) -> np.ndarray:
    """Elementwise Huber (delta 1): 0.5 r^2 for |r| <= 1, else |r| - 0.5.
    Computed as c (a - 0.5 c) with a = |r| and c = min(a, 1), which is
    bitwise both branches (+0.0 at r = -0.0) and squares no large r, so a
    finite r never overflows."""
    a = np.abs(np.asarray(residual, dtype=np.float64))
    c = np.minimum(a, 1.0)
    a -= 0.5 * c
    a *= c
    return a


def huber(residual: np.ndarray) -> float:
    """Mean Huber loss (delta 1) over all residual entries."""
    return float(np.mean(huber_values(residual)))


def huber_grad(residual: np.ndarray) -> np.ndarray:
    """d mean-Huber / d residual (elementwise psi / count, delta 1)."""
    return _huber_grad(np.array(residual, dtype=np.float64))


def _huber_grad(r: np.ndarray) -> np.ndarray:
    """huber_grad in place in the float64 array r, which it returns."""
    # minimum/maximum, not np.clip: the same values (NaN included) without
    # np.clip's Python-level wrapper
    np.minimum(np.maximum(r, -1.0, out=r), 1.0, out=r)
    r /= r.size
    return r


def _huber_loss_grad(r: np.ndarray) -> tuple[float, np.ndarray]:
    """(huber(r), huber_grad(r)) from the clipped residual psi =
    min(max(r, -1), 1), built once: the loss is mean(psi (r - psi/2)),
    elementwise huber_values' c (|r| - c/2) up to the sign of a zero or
    NaN, which the abs of the (otherwise >= 0) mean clears as |r| does
    there; the gradient psi / count overwrites the C-contiguous float64
    array r, which it returns."""
    psi = np.maximum(r, -1.0)
    np.minimum(psi, 1.0, out=psi)
    values = np.multiply(psi, 0.5)
    np.subtract(r, values, out=values)
    values *= psi
    loss = abs(float(np.mean(values)))
    np.divide(psi, r.size, out=r)
    return loss, r


# ----------------------------------------------------------------- clipping

def clip_global_norm(grads: np.ndarray, max_norm: float | None) -> np.ndarray:
    """Scale the gradient by max_norm/g when its L2 norm g exceeds max_norm;
    None disables clipping. An unclipped gradient is returned as is."""
    if max_norm is None:
        return grads
    _check_clip(max_norm)
    return _clip(grads, grads @ grads, max_norm)


def _check_clip(max_norm: float | None) -> None:
    if max_norm is not None and not max_norm > 0:
        raise ConfigurationError(f"max_norm must be > 0, got {max_norm}")


def _clip(grads: np.ndarray, sq: float, max_norm: float) -> np.ndarray:
    """clip_global_norm without its checks, from sq = grads @ grads. A
    finite gradient whose squares overflow (sq inf) takes its norm as
    max|grads| times that of grads / max|grads|."""
    if not math.isfinite(sq):
        top = float(np.abs(grads).max())
        if math.isfinite(top):
            unit = grads / top
            r = math.sqrt(unit @ unit)
            return grads if top * r <= max_norm else unit * (max_norm / r)
    g = math.sqrt(sq)
    if g <= max_norm:
        return grads
    return grads * (max_norm / g)


# --------------------------------------------------------------------- adam

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Kingma & Ba's (2015) defaults


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, theta: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta), t=0, lr=lr)


def _adam(theta: np.ndarray, grads: np.ndarray, state: AdamState,
          step: np.ndarray, denom: np.ndarray) -> None:
    """Unchecked Adam step in place, in the work vectors step and denom:
    textbook m and v, then Kingma & Ba's efficient form theta -= (lr sqrt(c2)
    / c1) m / (sqrt(v) + eps sqrt(c2)), c1 = 1 - beta1^t, c2 = 1 - beta2^t."""
    m, v = state.m, state.v
    t = state.t = state.t + 1
    m *= BETA1
    np.multiply(grads, 1 - BETA1, out=step)
    m += step
    v *= BETA2
    np.multiply(grads, 1 - BETA2, out=step)
    step *= grads
    v += step
    root_c2 = math.sqrt(1 - BETA2 ** t)
    np.sqrt(v, out=denom)
    denom += EPS * root_c2
    np.divide(m, denom, out=step)
    step *= state.lr * root_c2 / (1 - BETA1 ** t)
    theta -= step


# ------------------------------------------------------------------- anchor

@dataclass
class AnchorConfig:
    """Pull toward a pretrained parameter snapshot: R = lambda_reg *
    ||theta_pre - theta||_2, unsquared (a constant-magnitude pull), with
    subgradient zero at theta == theta_pre."""
    theta_pre: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lambda_reg: float = 0.0

    def __post_init__(self):
        if not 0 <= self.lambda_reg < math.inf:
            raise ConfigurationError(
                f"lambda_reg must be finite and >= 0, got {self.lambda_reg}")


def anchor_distance(theta: np.ndarray, anchor: AnchorConfig) -> float:
    """||theta - theta_pre||_2."""
    return _distance(theta, anchor, np.empty_like(theta))


def _distance(theta: np.ndarray, anchor: AnchorConfig,
              diff: np.ndarray) -> float:
    """anchor_distance, leaving theta - theta_pre in `diff`."""
    np.subtract(theta, anchor.theta_pre, out=diff)
    return math.sqrt(diff @ diff)


def anchor_gradient(theta: np.ndarray, anchor: AnchorConfig) -> np.ndarray:
    """Gradient of the anchor penalty w.r.t. theta."""
    if anchor.lambda_reg == 0.0:
        return np.zeros_like(theta)
    diff = theta - anchor.theta_pre
    return _pull(diff, anchor, math.sqrt(diff @ diff), diff)


def _pull(diff: np.ndarray, anchor: AnchorConfig, distance: float,
          out: np.ndarray) -> np.ndarray:
    """anchor_gradient from diff = theta - theta_pre and its norm
    `distance`, written into out (which may be diff)."""
    if distance == 0.0:
        out.fill(0.0)   # the subgradient at theta_pre
        return out
    return np.multiply(diff, anchor.lambda_reg / distance, out=out)


# ------------------------------------------------------------------- update

class _Descent:
    """The parameter update of every trainer and of online fine-tuning,
    and the only code that composes it: construct it once per stream of
    updates on the parameters, the Adam state, the clip (checked here) and
    optionally the anchor, then call it with each gradient.

    It owns Adam's two work vectors and keeps theta - theta_pre from one
    update to the next, so that difference is taken once per update: for
    the distance after it (`distance`) and for the next update's pull,
    theta not having moved in between. One made for a single call,
    _Descent(theta, adam, None)(grads), is a plain Adam step."""

    def __init__(self, theta: np.ndarray, adam: AdamState,
                 clip: float | None, anchor: AnchorConfig | None = None):
        _check_clip(clip)
        self.theta, self.adam = theta, adam
        self.clip, self.anchor = clip, anchor
        self.pulls = anchor is not None and anchor.lambda_reg != 0.0
        self.work = (np.empty_like(adam.m), np.empty_like(adam.m))
        if anchor is not None:
            self.diff = np.empty_like(theta)
            self.pull = np.empty_like(theta)
            self.distance = _distance(theta, anchor, self.diff)

    def __call__(self, grads: np.ndarray) -> None:
        """Add the anchor pull, clip, Adam-step. The clip's squared norm is
        the finiteness check: only a non-finite sum (a NaN or inf entry, or
        finite squares that overflow) pays for a full scan, and only a NaN
        or inf entry raises TrainingError, which changes nothing."""
        if self.pulls:
            pull = _pull(self.diff, self.anchor, self.distance, self.pull)
            pull += grads
            grads = pull
        sq = grads @ grads
        if not math.isfinite(sq) and not np.isfinite(grads).all():
            raise TrainingError("non-finite gradient passed to the update")
        if self.clip is not None:
            grads = _clip(grads, sq, self.clip)
        _adam(self.theta, grads, self.adam, *self.work)
        if self.anchor is not None:
            self.distance = _distance(self.theta, self.anchor, self.diff)
