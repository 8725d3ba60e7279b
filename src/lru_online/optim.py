"""Losses, Adam, global-norm clipping and the L2 anchor regularizer.

Parameters, gradients and optimizer moments are flat float64 vectors laid
out like LruNetwork.theta; updates write into the parameter vector in place.
"""

from __future__ import annotations

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
    psi = np.clip(r, -delta, delta)
    return psi / r.size


# ----------------------------------------------------------------- clipping

def clip_global_norm(grads: np.ndarray, max_norm: float | None) -> np.ndarray:
    """Scale the gradient by max_norm/g when its L2 norm g exceeds max_norm;
    None disables clipping. An unclipped gradient is returned as is."""
    if max_norm is None:
        return grads
    if max_norm <= 0:
        raise ConfigurationError(f"max_norm must be > 0, got {max_norm}")
    g = float(np.linalg.norm(grads))
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

    @classmethod
    def init(cls, theta: np.ndarray, lr: float = 1e-3, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta),
                   t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(theta: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """Bias-corrected Adam update of theta and the state, both in place.
    A non-finite gradient raises TrainingError before anything is written."""
    if not np.isfinite(grads).all():
        raise TrainingError("non-finite gradient passed to adam_step")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    state.m *= b1
    state.m += (1 - b1) * grads
    state.v *= b2
    state.v += (1 - b2) * grads * grads
    c1 = 1 - b1 ** state.t
    c2 = 1 - b2 ** state.t
    theta -= state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + state.eps)


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
    return float(np.linalg.norm(theta - anchor.theta_pre))


def anchor_gradient(theta: np.ndarray, anchor: AnchorConfig) -> np.ndarray:
    """Gradient of the anchor penalty w.r.t. theta."""
    if anchor.lambda_reg == 0.0:
        return np.zeros_like(theta)
    diff = theta - anchor.theta_pre
    if anchor.squared:
        return diff * (2.0 * anchor.lambda_reg)
    nrm = float(np.linalg.norm(diff))
    if nrm == 0.0:
        return np.zeros_like(theta)
    return diff * (anchor.lambda_reg / nrm)


# ------------------------------------------------------------------- update

def apply_update(theta: np.ndarray, grads: np.ndarray, adam: AdamState,
                 clip: float | None, anchor: AnchorConfig | None = None) -> None:
    """The one parameter update of every trainer and of online fine-tuning:
    add the anchor pull, clip the global norm, then an in-place Adam step."""
    if anchor is not None and anchor.lambda_reg != 0.0:
        grads = grads + anchor_gradient(theta, anchor)
    adam_step(theta, clip_global_norm(grads, clip), adam)
