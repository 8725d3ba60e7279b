"""An extended-precision fixed-theta predictor for an LRU stack, written
from the formulas and calling nothing in the package, to judge the
float64 forward passes.

Per layer, with the states in np.clongdouble and every other value in
np.longdouble (80-bit on x86-64, eps 1.1e-19):

    lambda = exp(-exp(nu)) * (cos(exp(theta_phase)) + i sin(exp(theta_phase)))
    h_t    = lambda * h_{t-1} + exp(gamma_log) * ((b_re + i b_im) u_t)
    y_t    = c_re Re(h_t) - c_im Im(h_t) + d u_t

and layer k's y_t is layer k+1's u_t. The rows run one at a time.

BOUND is the tolerance of a float64 fixed-theta array against this oracle,
relative to max(1, max |oracle|). It was fixed while cmd_finetune still
replayed each session row by row with the per-step kernels: on the
streams of tests/test_oracle.py that replay's worst error was 5.4e-15
(a 3601-row session at depth (16,)), about 19 times below the bound.
"""

import numpy as np

BLOCKS = ("nu", "theta_phase", "gamma_log",
          "b_re", "b_im", "c_re", "c_im", "d")
BOUND = 1e-13


def _complex(re, im):
    """re + i im, set part by part: a multiply by 1j would turn an
    infinite part into NaN (1j * inf has a 0 * inf real part)."""
    z = np.empty(np.shape(re), np.clongdouble)
    z.real = re
    z.imag = im
    return z


class _Layer:
    def __init__(self, layer):
        for name in BLOCKS:
            setattr(self, name, np.asarray(getattr(layer, name), np.longdouble))
        radius, phase = np.exp(-np.exp(self.nu)), np.exp(self.theta_phase)
        self.lam = _complex(radius * np.cos(phase), radius * np.sin(phase))
        self.gamma = np.exp(self.gamma_log)

    def step(self, h, u):
        """(h_t, y_t) from h_{t-1} and the input row u_t."""
        h = self.lam * h + _complex(self.gamma * (self.b_re @ u),
                                    self.gamma * (self.b_im @ u))
        return h, self.c_re @ h.real - self.c_im @ h.imag + self.d @ u


def predict(layers, features, session_ids, start=0, states=None):
    """Predictions (N - start, p), in longdouble, for rows [start, N) of a
    stream at fixed parameters. `layers` are objects with one attribute per
    name in BLOCKS. When row `start` is inside a session (its id is the
    previous row's), that session continues from `states` (one (n,)
    complex array per layer; zero when None); every session that begins
    at or after `start` begins from zero states. A row with a non-finite
    feature is predicted from the states before it and leaves them as
    they were."""
    stack = [_Layer(layer) for layer in layers]
    features = np.asarray(features, np.longdouble)
    ids = np.asarray(session_ids)
    zero = [np.zeros(layer.nu.shape, np.clongdouble) for layer in stack]
    h = [np.asarray(s, np.clongdouble) for s in states or zero]
    out = np.empty((len(ids) - start, stack[-1].d.shape[0]), np.longdouble)
    for t in range(start, len(ids)):
        if t == 0 or ids[t] != ids[t - 1]:
            h = zero
        x, stepped = features[t], []
        for layer, h_prev in zip(stack, h):
            h_t, x = layer.step(h_prev, x)
            stepped.append(h_t)
        if np.isfinite(features[t]).all():
            h = stepped
        out[t - start] = x
    return out


def huber_rows(preds, targets):
    """Per-row mean Huber loss (delta 1) of preds against targets."""
    r = np.abs(np.asarray(preds, np.longdouble)
               - np.asarray(targets, np.longdouble))
    return np.where(r <= 1, 0.5 * r * r, r - 0.5).mean(axis=1)


def relative_error(got, ref):
    """max |got - ref| / max(1, max |ref|) over ref's finite entries. got
    must have ref's non-finite entries (NaN where ref is NaN, the same
    infinity where ref is infinite); else an AssertionError."""
    got = np.asarray(got, np.longdouble)
    ref = np.asarray(ref, np.longdouble)
    assert got.shape == ref.shape
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    inf = np.isinf(ref)
    assert np.array_equal(np.isinf(got), inf)
    assert np.array_equal(got[inf], ref[inf])
    finite = np.isfinite(ref)
    scale = max(1.0, float(np.abs(ref[finite]).max(initial=0.0)))
    return float(np.abs(got[finite] - ref[finite]).max(initial=0.0)) / scale
