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

def huber_values(residual: np.ndarray, delta: float = 1.0) -> np.ndarray:
    """Elementwise Huber: 0.5 r^2 inside |r| <= delta, linear outside."""
    if delta <= 0:
        raise ConfigurationError(f"huber delta must be > 0, got {delta}")
    r = np.asarray(residual, dtype=np.float64)
    a = np.abs(r)
    return np.where(a <= delta, 0.5 * r * r, delta * (a - 0.5 * delta))


def huber(residual: np.ndarray, delta: float = 1.0) -> float:
    """Mean Huber loss over all residual entries."""
    return float(np.mean(huber_values(residual, delta)))


def huber_grad(residual: np.ndarray, delta: float = 1.0) -> np.ndarray:
    """d mean-Huber / d residual (elementwise psi / count)."""
    if delta <= 0:
        raise ConfigurationError(f"huber delta must be > 0, got {delta}")
    r = np.asarray(residual, dtype=np.float64)
    # minimum/maximum, not np.clip: the same values (NaN included) without
    # np.clip's Python-level wrapper
    psi = np.minimum(np.maximum(r, -delta), delta)
    return psi / r.size


# ----------------------------------------------------------------- clipping

def clip_global_norm(grads: np.ndarray, max_norm: float | None) -> np.ndarray:
    """Scale the gradient by max_norm/g when its L2 norm g exceeds max_norm;
    None disables clipping. An unclipped gradient is returned as is."""
    if max_norm is None:
        return grads
    if max_norm <= 0:
        raise ConfigurationError(f"max_norm must be > 0, got {max_norm}")
    g = math.sqrt(grads @ grads)
    if g <= max_norm:
        return grads
    return grads * (max_norm / g)


# --------------------------------------------------------------------- adam

@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # adam_step's two work vectors, allocated on first use (not copied by
    # dataclasses.replace)
    _work: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    @classmethod
    def init(cls, theta: np.ndarray, lr: float = 1e-3, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta),
                   t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(theta: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """Bias-corrected Adam update of theta and the state, both in place.
    A non-finite gradient raises TrainingError before anything is written.

    theta -= lr * (m / c1) / (sqrt(v / c2) + eps), evaluated in that order
    in two work vectors kept on the state, so a step allocates nothing."""
    if not np.isfinite(grads).all():
        raise TrainingError("non-finite gradient passed to adam_step")
    if state._work is None or state._work.shape != (2,) + state.m.shape:
        state._work = np.empty((2,) + state.m.shape)
    step, denom = state._work
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    state.m *= b1
    np.multiply(grads, 1 - b1, out=step)
    state.m += step
    state.v *= b2
    np.multiply(grads, 1 - b2, out=step)
    step *= grads
    state.v += step
    c1 = 1 - b1 ** state.t
    c2 = 1 - b2 ** state.t
    np.divide(state.m, c1, out=step)
    step *= state.lr
    np.divide(state.v, c2, out=denom)
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    theta -= step


# ------------------------------------------------------------------- anchor

@dataclass
class AnchorConfig:
    """Pull toward a pretrained parameter snapshot: R = lambda_reg * ||theta_pre - theta||_2.

    The unsquared norm is used (constant-magnitude pull), with subgradient
    zero at theta == theta_pre. squared=True switches to the conventional
    squared penalty lambda_reg * ||theta_pre - theta||_2^2.
    """
    theta_pre: np.ndarray = field(default_factory=lambda: np.zeros(0))
    lambda_reg: float = 0.0
    squared: bool = False

    def __post_init__(self):
        if self.lambda_reg < 0:
            raise ConfigurationError(
                f"lambda_reg must be >= 0, got {self.lambda_reg}")


def anchor_distance(theta: np.ndarray, anchor: AnchorConfig) -> float:
    """||theta - theta_pre||_2."""
    diff = theta - anchor.theta_pre
    return math.sqrt(diff @ diff)


def anchor_gradient(theta: np.ndarray, anchor: AnchorConfig,
                    distance: float | None = None) -> np.ndarray:
    """Gradient of the anchor penalty w.r.t. theta. `distance` is
    anchor_distance(theta, anchor) when the caller already has it."""
    if anchor.lambda_reg == 0.0:
        return np.zeros_like(theta)
    diff = theta - anchor.theta_pre
    if anchor.squared:
        diff *= 2.0 * anchor.lambda_reg
        return diff
    nrm = math.sqrt(diff @ diff) if distance is None else distance
    if nrm == 0.0:
        return np.zeros_like(theta)
    diff *= anchor.lambda_reg / nrm
    return diff


# ------------------------------------------------------------------- update

def apply_update(theta: np.ndarray, grads: np.ndarray, adam: AdamState,
                 clip: float | None, anchor: AnchorConfig | None = None,
                 distance: float | None = None) -> None:
    """The one parameter update of every trainer and of online fine-tuning:
    add the anchor pull, clip the global norm, then an in-place Adam step.
    `distance` is the anchor distance of theta before the update, when the
    caller already has it (the distance after the previous update). The
    caller's gradient is never written to."""
    if anchor is not None and anchor.lambda_reg != 0.0:
        pull = anchor_gradient(theta, anchor, distance)
        pull += grads
        grads = pull
    adam_step(theta, clip_global_norm(grads, clip), adam)
