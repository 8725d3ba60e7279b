"""Diagonal complex linear recurrent layers (LRU).

The recurrence per layer is

    h_t = lambda * h_{t-1} + gamma * (B u_t)
    y_t = Re[C h_t] + D u_t

with lambda_j = exp(-exp(nu_j) + i * exp(theta_phase_j)) (one complex exp),
so every eigenvalue magnitude is inside the unit circle by construction, and
gamma_j = exp(gamma_log_j) a trainable per-node input normalization.

Hidden states are numpy complex128 arrays; the trainable parameters are
split real blocks (nu, theta_phase, gamma_log, b_re, b_im, c_re, c_im, d).
An LruNetwork stores all of them in one flat float64 vector theta, and each
layer's blocks are reshaped views into it, so the optimizer updates theta in
place and every layer sees the update.

network_step (one row, which the online RTRL step builds on) and
network_scan (whole sequences at fixed theta, from given or zero states)
check their rows with _check_call (LruNetwork checks its block shapes when
it is built) and run unchecked kernels. Every fixed-theta prediction,
training windows and evaluated sessions alike, is a network_scan.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolationError

# Canonical ordering of the real parameter blocks of one layer.
PARAM_BLOCKS = ("nu", "theta_phase", "gamma_log",
                "b_re", "b_im", "c_re", "c_im", "d")


@dataclass(frozen=True)
class LruLayerParams:
    """Real parameter blocks of a single LRU layer (n nodes, m inputs, p outputs)."""

    nu: np.ndarray            # (n,)  |lambda_j| = exp(-exp(nu_j))
    theta_phase: np.ndarray   # (n,)  arg(lambda_j) = exp(theta_phase_j)
    gamma_log: np.ndarray     # (n,)  gamma_j = exp(gamma_log_j)
    b_re: np.ndarray          # (n, m)
    b_im: np.ndarray          # (n, m)
    c_re: np.ndarray          # (p, n)
    c_im: np.ndarray          # (p, n)
    d: np.ndarray             # (p, m)

    @property
    def n(self) -> int:
        return self.nu.shape[0]

    @property
    def m(self) -> int:
        return self.b_re.shape[1]

    @property
    def p(self) -> int:
        return self.c_re.shape[0]

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_BLOCKS}


def _block_shapes(k: int, layer: LruLayerParams, width: int | None) -> dict:
    """Layer k's block shapes in PARAM_BLOCKS order from n = len(nu), (p, m) =
    d.shape and m = width, the previous layer's p (None for the first)."""
    nu, d = np.shape(layer.nu), np.shape(layer.d)
    if len(nu) != 1 or len(d) != 2:
        raise ContractViolationError(f"layer {k} blocks 'nu' and 'd' must be "
                                     f"1-D and 2-D, got shapes {nu} and {d}")
    (n,), (p, m) = nu, d
    if width not in (None, m):
        raise ContractViolationError(
            f"layer {k - 1} output width {width} != layer {k} input width {m}")
    expect = {"nu": (n,), "theta_phase": (n,), "gamma_log": (n,),
              "b_re": (n, m), "b_im": (n, m),
              "c_re": (p, n), "c_im": (p, n), "d": (p, m)}
    for name, shape in expect.items():
        got = np.shape(getattr(layer, name))
        if got != shape:
            raise ContractViolationError(
                f"layer {k} block {name!r} has shape {got}, expected {shape}")
    return expect


class LruNetwork:
    """Stack of LRU layers; layer k's output feeds layer k+1's input.

    All parameters live in one contiguous float64 vector `theta`, laid out
    layer by layer in PARAM_BLOCKS order. The blocks of `layers`, a tuple of
    frozen layers checked by _block_shapes, are views into it, so writing
    into theta (an optimizer step) changes the layers.
    """

    def __init__(self, layers: Sequence[LruLayerParams]):
        self._layout = []               # per layer: (name, start, stop, shape)
        self.offsets = []               # per layer: start of its blocks
        if not layers:
            raise ContractViolationError("a network needs at least one layer")
        offset, width = 0, None
        for k, layer in enumerate(layers):
            self.offsets.append(offset)
            blocks = []
            for name, shape in _block_shapes(k, layer, width).items():
                size = math.prod(shape)
                blocks.append((name, offset, offset + size, shape))
                offset += size
            self._layout.append(blocks)
            width = shape[0]            # d, the last block, is (p, m)
        self.theta = np.concatenate(
            [np.asarray(getattr(layer, name), dtype=np.float64).ravel()
             for layer in layers for name in PARAM_BLOCKS])
        self.layers = tuple(LruLayerParams(**blocks)
                            for blocks in self.unflatten(self.theta))

    def unflatten(self, vec: np.ndarray) -> list[dict[str, np.ndarray]]:
        """Per-layer PARAM_BLOCKS views into a flat vector laid out like theta
        (a gradient or an optimizer moment as well as theta itself)."""
        return [{name: vec[start:stop].reshape(shape)
                 for name, start, stop, shape in blocks}
                for blocks in self._layout]

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].m

    @property
    def output_dim(self) -> int:
        return self.layers[-1].p

    def copy(self) -> "LruNetwork":
        """An independent network with its own copy of theta."""
        return LruNetwork(self.layers)

    def zero_states(self) -> list[np.ndarray]:
        return [np.zeros(layer.n, dtype=np.complex128) for layer in self.layers]


def _lambda_parts(params: LruLayerParams
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(-exp(nu), exp(theta_phase), exp(-exp(nu) + i exp(theta_phase)))."""
    z = np.empty(params.nu.shape, np.complex128)
    z.real, z.imag = -np.exp(params.nu), np.exp(params.theta_phase)
    return z.real, z.imag, np.exp(z)


def init_layer(m: int, n: int, p: int, r_min: float = 0.9, r_max: float = 0.999,
               seed: int = 0) -> LruLayerParams:
    """Random init: |lambda| uniform on the ring [r_min, r_max] (by area),
    phase uniform in [0, pi/10], gamma = sqrt(1 - |lambda|^2),
    B, C gaussian with 1/sqrt(fan_in) scaling, D zero.
    """
    _check_ring(r_min, r_max)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    r2 = u * (r_max ** 2 - r_min ** 2) + r_min ** 2
    # invert |lambda| = exp(-exp(nu)):  nu = log(-log|lambda|) = log(-0.5*log r2)
    nu = np.log(-0.5 * np.log(r2))
    phase = rng.random(n) * (np.pi / 10)
    # phases of exactly zero cannot be log-parameterized; nudge away from 0
    phase = np.maximum(phase, 1e-8)
    theta_phase = np.log(phase)
    gamma_log = 0.5 * np.log(1.0 - r2)
    b_re = rng.standard_normal((n, m)) / np.sqrt(m)
    b_im = rng.standard_normal((n, m)) / np.sqrt(m)
    c_re = rng.standard_normal((p, n)) / np.sqrt(n)
    c_im = rng.standard_normal((p, n)) / np.sqrt(n)
    d = np.zeros((p, m))
    return LruLayerParams(nu, theta_phase, gamma_log, b_re, b_im, c_re, c_im, d)


def _check_ring(r_min: float, r_max: float) -> None:
    """0 < r_min <= r_max < 1, else a ConfigurationError."""
    if not (0.0 < r_min <= r_max < 1.0):
        raise ConfigurationError(
            f"invalid eigenvalue ring [{r_min}, {r_max}]; need 0 < r_min <= r_max < 1")


def _check_layers(layer_widths) -> None:
    """One or more widths >= 1, else a ConfigurationError."""
    if len(layer_widths) == 0 or min(layer_widths) < 1:
        raise ConfigurationError(
            f"layers must be one or more widths >= 1: {tuple(layer_widths)}")


def init_network(input_dim: int, layer_widths: tuple[int, ...], output_dim: int,
                 r_min: float = 0.9, r_max: float = 0.999, seed: int = 0) -> LruNetwork:
    """Stack of layers with widths `layer_widths`; each hidden layer maps its
    input to a real vector of the same width, the last layer maps to output_dim."""
    _check_layers(layer_widths)
    layers = []
    m = input_dim
    for k, n in enumerate(layer_widths):
        p = output_dim if k == len(layer_widths) - 1 else n
        layers.append(init_layer(m, n, p, r_min, r_max, seed=seed + 1000 * k))
        m = p
    return LruNetwork(layers)


def layer_constants(params: LruLayerParams, out: tuple | None = None
                    ) -> tuple[np.ndarray, ...]:
    """The input-independent part of a step and of its trace update:
    (lambda, gamma, complex B^T, complex C^T, dlambda/dnu,
    dlambda/dtheta_phase), with lambda from the nu and theta_phase blocks
    (|lambda_j| < 1 for every finite nu_j), gamma = exp(gamma_log),
    dlambda/dnu = -exp(nu) * lambda and dlambda/dtheta_phase =
    1j * exp(theta_phase) * lambda. `out` is a pair of complex (n, m) and
    (p, n) arrays to write B and C into (fresh arrays when None); a
    stream that derives the constants every step reuses one pair."""
    neg_e_nu, phase, lam = _lambda_parts(params)
    b_out, c_out = out or (None, None)
    return (lam, np.exp(params.gamma_log),
            _complex_t(params.b_re, params.b_im, b_out),
            _complex_t(params.c_re, params.c_im, c_out), neg_e_nu * lam,
            1j * phase * lam)


def _complex_t(re: np.ndarray, im: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """(re + 1j * im).T in the same (F) memory order, written part by part
    into `out` (a complex array shaped like re, fresh when None) instead of
    through a complex multiply and add. The two are bitwise equal for
    finite blocks without a -0.0 entry (the expression turns a -0.0 into
    +0.0), and no parameter is ever -0.0: init_layer's blocks are nonzero
    draws or +0.0 zeros, and an Adam step x - y gives -0.0 only when x is
    -0.0."""
    if out is None:
        out = np.empty(re.shape, np.complex128)
    out.real = re
    out.imag = im
    return out.T


def _layer_step(params: LruLayerParams, h_prev: np.ndarray, u: np.ndarray,
                consts: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One unchecked step from h_prev (n,) on the float64 row u (m,), with
    the layer's layer_constants: returns h_t = lambda * h_prev +
    gamma * (B u) and y_t = Re[C h_t] + D u."""
    lam, gamma, b_t, _, _, _ = consts
    h_t = lam * h_prev + gamma * (u @ b_t)
    return h_t, (h_t.real @ params.c_re.T - h_t.imag @ params.c_im.T
                 + u @ params.d.T)


def _linear_recurrence(lam: np.ndarray, x: np.ndarray,
                       h_0: np.ndarray | None = None) -> np.ndarray:
    """h_t = lam * h_{t-1} + x_t along axis -2 of x (..., T, n), in place:
    x holds h_0..h_{T-1} on return. lam (n,); h_0 (..., n), None for zero.

    Two-level chunked form (the blocked algorithm of state space duality,
    Dao & Gu 2024, for a diagonal transition): T is cut into C chunks of
    L = isqrt(T) steps plus a tail of T - C*L < L steps. An L-step loop runs
    the recurrence inside every chunk at once from a zero start, a C-step
    loop carries the true state from chunk to chunk (carry_j =
    lam^L * carry_{j-1} + last local state of chunk j-1), and an L-step loop
    adds lam^(i+1) * carry_j to local step i of chunk j. The tail continues
    step by step: about 3*sqrt(T) vectorized steps instead of T. x may be
    a view; on a time-reversed view the recurrence runs backwards in time.
    """
    T, n = x.shape[-2:]
    if h_0 is not None:
        x[..., 0, :] += lam * h_0
    L = max(1, math.isqrt(T))
    C = T // L
    # splitting one axis never copies, so writes to chunks land in x
    chunks = x[..., :C * L, :].reshape(x.shape[:-2] + (C, L, n))
    for i in range(1, L):
        chunks[..., i, :] += lam * chunks[..., i - 1, :]
    pows = np.cumprod(np.broadcast_to(lam, (L, n)), axis=0)   # lam^(i+1)
    carry = np.zeros_like(chunks[..., 0, :])    # state entering chunk j
    for j in range(1, C):
        carry[..., j, :] = pows[-1] * carry[..., j - 1, :] + chunks[..., j - 1, -1, :]
    for i in range(L):
        chunks[..., 1:, i, :] += pows[i] * carry[..., 1:, :]
    for t in range(C * L, T):
        x[..., t, :] += lam * x[..., t - 1, :]
    return x


def _interleave(re: np.ndarray, im: np.ndarray, axis: int) -> np.ndarray:
    """Real matrix whose `axis` alternates re and im entries (axis 1: columns
    re[:, 0], im[:, 0], re[:, 1], ...; axis 0: rows). For a real x,
    (x @ _interleave(R, I, 1)).view(complex128) is x @ (R + 1j*I); for a
    complex z, z.view(float64) @ _interleave(R, I, 0) is Re(z) @ R + Im(z) @ I.
    Both are one real matmul on contiguous memory."""
    return np.stack([re, im], axis=axis + 1).reshape(
        (-1, re.shape[1]) if axis == 0 else (re.shape[0], -1))


def scan_forward(params: LruLayerParams, h_0: np.ndarray,
                 u_seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One layer over a whole sequence via the chunked linear recurrence.

    u_seq real (..., T, m), h_0 complex (..., n), the state before the
    first row. Returns (h_seq, y_seq) with shapes (..., T, n) and
    (..., T, p): T network_step calls on the one-layer net
    LruNetwork([params]) from h_0, up to rounding (the input and output
    products are (T, m) and (T, 2n) matmuls, and the recurrence is
    chunked).
    """
    u_seq = np.asarray(u_seq, dtype=np.float64)
    if u_seq.ndim < 2 or u_seq.shape[-2] < 1:
        raise ContractViolationError("scan_forward requires a sequence of length >= 1")
    lam = _lambda_parts(params)[2]
    gamma = np.exp(params.gamma_log)
    h_seq = (u_seq @ _interleave((gamma[:, None] * params.b_re).T,
                                (gamma[:, None] * params.b_im).T, 1)
             ).view(np.complex128)
    _linear_recurrence(lam, h_seq, np.asarray(h_0, dtype=np.complex128))
    y_seq = (h_seq.view(np.float64) @ _interleave(params.c_re.T, -params.c_im.T, 0)
             + u_seq @ params.d.T)
    return h_seq, y_seq


def _check_call(net: LruNetwork, inputs: np.ndarray,
                targets: np.ndarray | None = None,
                states: list[np.ndarray] | None = None,
                ndim: int | None = None) -> None:
    """The one width check of a model call (ContractViolationError): input
    rows (..., m) of the network's input width (ndim axes when given),
    target rows (..., p) of the inputs' leading shape and its output width,
    and one (n_k,) state per layer; LruNetwork checked the network itself."""
    if inputs.shape[-1:] != (net.input_dim,) or ndim not in (None,
                                                              inputs.ndim):
        raise ContractViolationError(
            f"input shape {inputs.shape} for a network of input width "
            f"{net.input_dim}" + (f" in a {ndim}-D call" if ndim else ""))
    if targets is not None and (targets.shape
                                != inputs.shape[:-1] + (net.output_dim,)):
        raise ContractViolationError(
            f"target shape {targets.shape} for input shape {inputs.shape} "
            f"and output width {net.output_dim}")
    widths = [(layer.n,) for layer in net.layers]
    if states is not None and [np.shape(h) for h in states] != widths:
        raise ContractViolationError(
            f"state shapes {[np.shape(h) for h in states]} for layer "
            f"widths {widths}")


def network_step(net: LruNetwork, states: list[np.ndarray], u_t: np.ndarray
                 ) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """One input row u_t (m,) through the stack from one (n_k,) state per
    layer, layer k's output feeding layer k+1. Returns (new states,
    prediction, each layer's input, which the trace updates read)."""
    x = np.asarray(u_t, dtype=np.float64)
    _check_call(net, x, states=states, ndim=1)
    return _forward(net.layers, states, x,
                    [layer_constants(layer) for layer in net.layers])


def _forward(layers: Sequence[LruLayerParams], states: list[np.ndarray],
             x: np.ndarray, consts: list
             ) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """network_step without its checks."""
    new_states = []
    layer_inputs = []
    for layer, h_prev, c in zip(layers, states, consts):
        layer_inputs.append(x)
        h, x = _layer_step(layer, h_prev, x, c)
        new_states.append(h)
    return new_states, x, layer_inputs


def network_scan(net: LruNetwork, u_seq: np.ndarray,
                 states: list[np.ndarray] | None = None
                 ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Full-sequence forward through the stack via per-layer scans of
    u_seq (..., T, m), from one (n_k,) state per layer (zero when None;
    given states need a 2-D u_seq).

    Returns (per-layer input sequences, per-layer state sequences, predictions).
    """
    u_seq = np.asarray(u_seq, dtype=np.float64)
    _check_call(net, u_seq, states=states,
                ndim=None if states is None else 2)
    if states is None:
        states = [np.zeros(u_seq.shape[:-2] + (layer.n,), dtype=np.complex128)
                  for layer in net.layers]
    layer_inputs = []
    layer_states = []
    x = u_seq
    for layer, h0 in zip(net.layers, states):
        layer_inputs.append(x)
        h_seq, x = scan_forward(layer, h0, x)
        layer_states.append(h_seq)
    return layer_inputs, layer_states, x
