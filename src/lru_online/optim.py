"""Losses, Adam, global-norm clipping and the L2 anchor regularizer.

Parameters, gradients and optimizer moments are flat float64 vectors laid
out like LruNetwork.theta; updates write into the parameter vector in place.

Operand rule of the per-row kernels (the Huber gradient, _clip, _pull
and the Adam step of _Descent.__call__): every scalar operand of a numpy
call is a 0-d float64 array, never a Python float or int. A ufunc
converts a Python scalar operand to an array on every call; a 0-d
operand is used as it is, with bitwise the same result (a 541-entry
multiply: about 0.6 against 0.8 us on a 2-vCPU Xeon). The constant
factors are read-only module arrays, the Huber gradient's residual count
among them (one per size, made on first use). Each factor that changes
per update (eps sqrt(c2), the step size, the clip's and the pull's
scale) is computed as a Python float and written into a 0-d buffer of
the _Descent that uses it, so two updaters never share one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _constant(x: float) -> np.ndarray:
    """x as a read-only 0-d float64 array."""
    a = np.array(x, dtype=np.float64)
    a.flags.writeable = False
    return a


_LO, _HI = _constant(-1.0), _constant(1.0)


class _Counts(dict):
    """size -> _constant(size), made on the first lookup of a size: the
    Huber gradient's divisor, so no call converts the int r.size."""

    def __missing__(self, size: int) -> np.ndarray:
        count = self[size] = _constant(size)
        return count


_COUNTS = _Counts()


def _huber_grad(r: np.ndarray) -> np.ndarray:
    """d huber / d r = min(max(r, -1), 1) / r.size, in place in float64 r."""
    # minimum/maximum, not np.clip: the same values (NaN included) without
    # np.clip's Python-level wrapper
    np.minimum(np.maximum(r, _LO, out=r), _HI, out=r)
    r /= _COUNTS[r.size]
    return r


def _huber_loss_grad(r: np.ndarray) -> tuple[float, np.ndarray]:
    """(huber(r), _huber_grad(r)) from the clipped residual psi =
    min(max(r, -1), 1), built once: the loss is mean(psi (r - psi/2)),
    elementwise huber_values' c (|r| - c/2) up to the sign of a zero or
    NaN, which the abs of the (otherwise >= 0) mean clears as |r| does
    there; the gradient psi / count overwrites the C-contiguous float64
    array r, which it returns."""
    psi = np.maximum(r, _LO)
    np.minimum(psi, _HI, out=psi)
    values = np.multiply(psi, 0.5)
    np.subtract(r, values, out=values)
    values *= psi
    loss = abs(float(np.mean(values)))
    np.divide(psi, _COUNTS[r.size], out=r)
    return loss, r


# ----------------------------------------------------------------- clipping

def _check_clip(max_norm: float | None) -> None:
    if max_norm is not None and not max_norm > 0:
        raise ConfigurationError(f"max_norm must be > 0, got {max_norm}")


def _clip(grads: np.ndarray, sq: float, max_norm: float,
          out: np.ndarray | None, scale: np.ndarray) -> np.ndarray:
    """grads scaled by max_norm / g when its L2 norm g exceeds max_norm
    (else grads itself), from sq = grads @ grads, into out (a new array
    when None), the factor through the 0-d buffer scale; max_norm is not
    checked. A finite gradient whose squares overflow (sq inf) takes its
    norm as max|grads| times that of grads / max|grads| and is clipped
    into a new array."""
    if not math.isfinite(sq):
        top = float(np.abs(grads).max())
        if math.isfinite(top):
            unit = grads / top
            r = math.sqrt(unit @ unit)
            return grads if top * r <= max_norm else unit * (max_norm / r)
    g = math.sqrt(sq)
    if g <= max_norm:
        return grads
    scale[()] = max_norm / g
    return np.multiply(grads, scale, out=out)


# --------------------------------------------------------------------- adam

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Kingma & Ba's (2015) defaults


_BETA1, _BETA2 = _constant(BETA1), _constant(BETA2)
_ONE_MINUS_BETA1, _ONE_MINUS_BETA2 = _constant(1 - BETA1), _constant(1 - BETA2)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, theta: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta), t=0, lr=lr)


# ------------------------------------------------------------------- anchor

# The anchor penalty R = lambda_reg ||theta - theta_pre||_2 is unsquared:
# a constant-magnitude pull toward the pretrained parameters theta_pre.

def _distance(theta: np.ndarray, theta_pre: np.ndarray,
              diff: np.ndarray) -> float:
    """||theta - theta_pre||_2, leaving theta - theta_pre in `diff`."""
    np.subtract(theta, theta_pre, out=diff)
    return math.sqrt(diff.dot(diff))


def _pull(diff: np.ndarray, lambda_reg: float, distance: float,
          out: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """dR / d theta from diff = theta - theta_pre and its norm `distance`,
    written into out (which may be diff), the factor through the 0-d
    buffer scale."""
    if distance == 0.0:
        out.fill(0.0)   # the subgradient at theta_pre
        return out
    scale[()] = lambda_reg / distance
    return np.multiply(diff, scale, out=out)


# ------------------------------------------------------------------- update

class _Descent:
    """The parameter update of pretraining and of online fine-tuning,
    and the only code that composes it: construct it once per stream of
    updates on the parameters, the Adam state, the clip (checked here) and
    optionally the anchor (theta_pre and lambda_reg, checked by the
    caller), then call it with each gradient.

    It owns the work vectors of Adam and the clip, the 0-d buffers of the
    per-update factors (the module's operand rule) and keeps theta -
    theta_pre from one update to the next, so that difference is taken
    once per update: for the distance after it (`distance`) and for the
    next update's pull, theta not having moved in between. One made for a
    single call, _Descent(theta, adam, None)(grads), is a plain Adam step."""

    def __init__(self, theta: np.ndarray, adam: AdamState,
                 clip: float | None, theta_pre: np.ndarray | None = None,
                 lambda_reg: float = 0.0):
        _check_clip(clip)
        self.theta, self.adam, self.clip = theta, adam, clip
        self.theta_pre, self.lambda_reg = theta_pre, lambda_reg
        self.pulls = theta_pre is not None and lambda_reg != 0.0
        step, denom, self.clipped = np.empty((3, theta.size))
        # 0-d: eps sqrt(c2), the Adam step size, the pull's or clip's scale
        eps, rate, self.scale = (np.empty(()) for _ in range(3))
        self.adam_work = (step, denom, eps, rate)
        self.sq = math.nan   # the last call's pre-clip squared norm
        if theta_pre is not None:
            self.diff, self.pull = np.empty((2, theta.size))
            self.distance = _distance(theta, theta_pre, self.diff)

    def __call__(self, grads: np.ndarray) -> None:
        """Add the anchor pull, clip, Adam-step. The clip's squared norm is
        the finiteness check: only a non-finite sum (a NaN or inf entry, or
        finite squares that overflow) pays for a full scan, and only a NaN
        or inf entry raises TrainingError, which changes nothing. The
        squared norm of the gradient plus the pull, before the clip, stays
        in `sq` (NaN after a TrainingError).

        The Adam step: textbook m and v, then Kingma & Ba's efficient form
        theta -= (lr sqrt(c2) / c1) m / (sqrt(v) + eps sqrt(c2)), c1 = 1 -
        beta1^t, c2 = 1 - beta2^t."""
        if self.pulls:
            pull = _pull(self.diff, self.lambda_reg, self.distance,
                         self.pull, self.scale)
            pull += grads
            grads = pull
        sq = self.sq = grads.dot(grads)
        if not math.isfinite(sq) and not np.isfinite(grads).all():
            self.sq = math.nan
            raise TrainingError("non-finite gradient passed to the update")
        if self.clip is not None:
            grads = _clip(grads, sq, self.clip, self.clipped, self.scale)
        step, denom, eps, rate = self.adam_work
        adam = self.adam
        m, v = adam.m, adam.v
        t = adam.t = adam.t + 1
        m *= _BETA1
        np.multiply(grads, _ONE_MINUS_BETA1, out=step)
        m += step
        v *= _BETA2
        np.multiply(grads, _ONE_MINUS_BETA2, out=step)
        step *= grads
        v += step
        root_c2 = math.sqrt(1 - BETA2 ** t)
        eps[()] = EPS * root_c2
        rate[()] = adam.lr * root_c2 / (1 - BETA1 ** t)
        np.sqrt(v, out=denom)
        denom += eps
        np.divide(m, denom, out=step)
        step *= rate
        self.theta -= step
        if self.theta_pre is not None:
            self.distance = _distance(self.theta, self.theta_pre, self.diff)
