"""Diagonal complex linear recurrent layers (LRU).

The recurrence per layer is

    h_t = lambda * h_{t-1} + gamma * (B u_t)
    y_t = Re[C h_t] + D u_t

with lambda_j = exp(-exp(nu_j) + i * exp(theta_phase_j)) (one complex exp)
and gamma_j = exp(gamma_log_j) a trainable per-node input normalization.
|lambda_j| = exp(-exp(nu_j)) < 1 holds in exact arithmetic, not in float64:
exp(-exp(nu_j)) rounds to 1 from about nu_j = -37.7 down, and |lambda_j| as
computed (np.abs; the phase's cos and sin round too) reads 1 from about
nu_j = -35.8 down and at most 1 + 2**-52. So the recurrence is strictly
stable for nu_j >= -35 and marginally stable below; nothing clamps nu.

Hidden states are numpy complex128 arrays. A layer (LruLayerParams) holds a
head [nu, theta_phase, gamma_log], B and C as (re, im) pairs, and D; its
named blocks and complex B are views of them. A network's layers are views
into one flat float64 vector theta (LruNetwork), so the optimizer updates
theta in place and every layer sees the update.

The online RTRL step runs one checked row on the unchecked per-row
kernels (_LayerKernel, layer_constants), stepping each state as the H
column of its layer's trace (rtrl._StreamPlan). network_scan (whole
sequences at fixed theta, from given or zero states) checks its rows with
_check_call (LruNetwork checks its block shapes when it is built) and runs
scan_forward, the one whole-sequence pass of a layer, on each. Every
fixed-theta prediction of an evaluated session and every BPTT forward
pass is a network_scan. Every model call is time first: network_scan
takes a (T, m) session or a (T, batch, m) batch of windows, whose
recurrence steps are contiguous (batch, n) slices; bptt.bptt_gradient
takes (T, batch, ·) windows, rtrl.window_gradient one (T, ·) window and
the online step one row of a session. A batch of at least STEP_LOOP_MIN
entries per step runs the recurrence as a plain step loop; a smaller
batch and every 2-D session run it chunked, on a step-major copy of the
chunks whose steps are contiguous too.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ContractViolationError

# The named real blocks of one layer, which a checkpoint stores.
PARAM_BLOCKS = ("nu", "theta_phase", "gamma_log",
                "b_re", "b_im", "c_re", "c_im", "d")


@dataclass(frozen=True)
class LruLayerParams:
    """One LRU layer (n nodes, m inputs, p outputs) in theta's paired
    layout: views of theta or of a vector laid out like it, a gradient or
    an Adam moment (LruNetwork.paired), or its own arrays (from_blocks)."""

    head: np.ndarray   # (3n,) [nu, theta_phase, gamma_log]
    b: np.ndarray      # (n, m, 2) pairs (b_re, b_im) of B = b_re + i b_im
    c: np.ndarray      # (p, n, 2) pairs (c_re, c_im) of C = c_re + i c_im
    d: np.ndarray      # (p, m)

    @classmethod
    def from_blocks(cls, *, nu, theta_phase, gamma_log, b_re, b_im, c_re,
                    c_im, d) -> "LruLayerParams":
        """A layer of paired float64 copies of its named blocks, each
        checked against n = len(nu) and (p, m) = d.shape: a
        ContractViolationError names the first that does not fit."""
        named = {name: np.array(block, dtype=np.float64) for name, block
                 in zip(PARAM_BLOCKS, (nu, theta_phase, gamma_log, b_re,
                                       b_im, c_re, c_im, d))}
        if named["nu"].ndim != 1 or named["d"].ndim != 2:
            raise ContractViolationError(
                f"blocks 'nu' and 'd' must be 1-D and 2-D, got shapes "
                f"{named['nu'].shape} and {named['d'].shape}")
        (n,), (p, m) = named["nu"].shape, named["d"].shape
        expect = {"theta_phase": (n,), "gamma_log": (n,), "b_re": (n, m),
                  "b_im": (n, m), "c_re": (p, n), "c_im": (p, n)}
        for name, shape in expect.items():
            if named[name].shape != shape:
                raise ContractViolationError(
                    f"block {name!r} has shape {named[name].shape}, "
                    f"expected {shape}")
        return cls(np.concatenate([named[k] for k in PARAM_BLOCKS[:3]]),
                   np.stack((named["b_re"], named["b_im"]), axis=-1),
                   np.stack((named["c_re"], named["c_im"]), axis=-1),
                   named["d"])

    n = property(lambda self: len(self.head) // 3)
    m = property(lambda self: self.d.shape[1])
    p = property(lambda self: self.d.shape[0])
    # read-only views, made on first use: |lambda_j| = exp(-exp(nu_j)),
    # arg(lambda_j) = exp(theta_phase_j), gamma_j = exp(gamma_log_j)
    nu = cached_property(lambda self: self.head[:self.n])
    theta_phase = cached_property(lambda self: self.head[self.n:2 * self.n])
    gamma_log = cached_property(lambda self: self.head[2 * self.n:])
    b_re = cached_property(lambda self: self.b[..., 0])
    b_im = cached_property(lambda self: self.b[..., 1])
    c_re = cached_property(lambda self: self.c[..., 0])
    c_im = cached_property(lambda self: self.c[..., 1])
    # the (n, 2) columns [nu, theta_phase], complex B (n, m), and the real
    # (p, 2n) map C2: conj(h) viewed as float64 @ C2^T is Re[C h]
    nu_phase = cached_property(
        lambda self: self.head[:2 * self.n].reshape(2, self.n).T)
    b_complex = cached_property(lambda self: self.b.view(np.complex128)[..., 0])
    c2 = cached_property(lambda self: self.c.reshape(self.p, 2 * self.n))

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_BLOCKS}


def _pair_shapes(k: int, layer: LruLayerParams, width: int | None
                 ) -> tuple[int, int, int]:
    """Layer k's (n, m, p) from len(head) // 3 and d.shape, every block
    checked against them and m against width (None or the layer below's p)."""
    head, d = np.shape(layer.head), np.shape(layer.d)
    if len(head) != 1 or len(d) != 2:
        raise ContractViolationError(
            f"layer {k} blocks 'head' and 'd' must be 1-D and 2-D, got "
            f"shapes {head} and {d}")
    n, (p, m) = head[0] // 3, d
    if width not in (None, m):
        raise ContractViolationError(
            f"layer {k - 1} output width {width} != layer {k} input width {m}")
    for name, shape in (("head", (3 * n,)), ("b", (n, m, 2)),
                        ("c", (p, n, 2))):
        got = np.shape(getattr(layer, name))
        if got != shape:
            raise ContractViolationError(
                f"layer {k} block {name!r} has shape {got}, expected {shape}")
    return n, m, p


class LruNetwork:
    """Stack of LRU layers; layer k's output feeds layer k+1's input.

    All parameters live in one contiguous float64 vector `theta`, layer by
    layer: nu, theta_phase and gamma_log (n each), b (n, m, 2) and c
    (p, n, 2) as (re, im) pairs, then d (p, m), each row-major. `layers`,
    a tuple of frozen layers checked by _pair_shapes, is paired(theta),
    so writing into theta (an optimizer step) changes them.
    """

    def __init__(self, layers: Sequence[LruLayerParams]):
        if not layers:
            raise ContractViolationError("a network needs at least one layer")
        self.dims = [_pair_shapes(k, layer, layers[k - 1].p if k else None)
                     for k, layer in enumerate(layers)]    # (n, m, p) each
        self.theta = np.concatenate([x.ravel() for layer in layers for x in (
            layer.head, layer.b, layer.c, layer.d)], dtype=np.float64)
        self.layers = self.paired(self.theta)

    def paired(self, vec: np.ndarray) -> tuple[LruLayerParams, ...]:
        """Per-layer views of a flat vector laid out like theta."""
        layers, start = [], 0
        for n, m, p in self.dims:
            b, c, d = (start + 3 * n, start + n * (3 + 2 * m),
                       start + n * (3 + 2 * m + 2 * p))
            layers.append(LruLayerParams(
                vec[start:b], vec[b:c].reshape(n, m, 2),
                vec[c:d].reshape(p, n, 2), vec[d:d + p * m].reshape(p, m)))
            start = d + p * m
        return tuple(layers)

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
    # keyword arguments are evaluated in order: b_re, b_im, c_re, c_im
    return LruLayerParams.from_blocks(
        nu=nu, theta_phase=np.log(phase), gamma_log=0.5 * np.log(1.0 - r2),
        b_re=rng.standard_normal((n, m)) / np.sqrt(m),
        b_im=rng.standard_normal((n, m)) / np.sqrt(m),
        c_re=rng.standard_normal((p, n)) / np.sqrt(n),
        c_im=rng.standard_normal((p, n)) / np.sqrt(n), d=np.zeros((p, m)))


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


# -exp(nu) and i exp(theta_phase) as exact (re, im) pairs from their exps
_SIGNS = np.array([[-1.0, 0.0], [0.0, 1.0]])


class _LayerKernel:
    """One layer's per-row kernel on a layer's views (of theta, so no row
    copies a block): complex B (n, m), the real (p, 2n) map C2 of the
    (Re h, -Im h) pairs, and the buffers that layer_constants and the step
    write into, with the views of them that every row uses made once."""

    def __init__(self, layer: LruLayerParams):
        n = layer.n
        self.head, self.e = layer.head, np.empty(3 * n)
        self.e_pairs = self.e[:2 * n].reshape(2, n).T[:, :, None]
        self.gamma, self.gamma_col = self.e[2 * n:], self.e[2 * n:, None]
        self.f = np.empty((n, 2), np.complex128)
        self.f_pairs = self.f.view(np.float64).reshape(n, 2, 2)
        self.f_nu, self.f_phase = self.f[:, 0], self.f[:, 1]
        self.lam, self.z, self.h_conj = np.empty((3, n), np.complex128)
        self.lam_col, self.dlam = self.lam[:, None], np.empty_like(self.f)
        self.h_pairs = self.h_conj.view(np.float64)
        self.b, self.c2, self.d = layer.b_complex, layer.c2, layer.d
        self.c2_t, self.d_t = self.c2.T, self.d.T


def layer_constants(k: _LayerKernel) -> tuple[np.ndarray, ...]:
    """The input-independent part of a step and of its trace update, from
    one exp of the head: (lambda, gamma, dlambda), dlambda (n, 2) the
    columns dlambda/dnu = -exp(nu) * lambda and dlambda/dtheta_phase =
    1j * exp(theta_phase) * lambda, in k's buffers until the next call."""
    np.exp(k.head, out=k.e)
    np.multiply(k.e_pairs, _SIGNS, out=k.f_pairs)
    np.exp(np.add(k.f_nu, k.f_phase, out=k.z), out=k.lam)
    np.multiply(k.f, k.lam_col, out=k.dlam)
    return k.lam, k.gamma, k.dlam


# the fewest entries per time step at which a batched recurrence runs as a
# plain step loop: below it the chunked form's fewer, larger calls win, at
# and above it the loop's contiguous (batch, n) steps do. At n = 16 on a
# 2-vCPU Xeon, against the step-major chunked form, the loop took
# 0.83-0.87 of the chunked time at 256 entries, 0.96-1.02 at 192 and
# 1.20-1.50 at 128, for T = 128-3601
STEP_LOOP_MIN = 256


def _linear_recurrence(lam: np.ndarray, x: np.ndarray,
                       h_0: np.ndarray | None = None) -> np.ndarray:
    """h_t = lam * h_{t-1} + x_t along axis 0 of x (T, ..., n), in place:
    x holds h_0..h_{T-1} on return. lam (n,); h_0 (..., n), None for zero.
    x may be a view; on a time-reversed view x[::-1] the recurrence runs
    backwards in time.

    A batched x (3 or more axes) whose time step x[t] holds at least
    STEP_LOOP_MIN entries runs the plain step loop x[t] += lam * x[t-1]
    over contiguous slices x[t]. Every other x, a 2-D (T, n) session
    included, runs the two-level chunked form first (the blocked
    algorithm of state space duality, Dao & Gu 2024, for a diagonal
    transition): T is cut into C chunks of L = isqrt(T) steps plus a tail
    of T - C*L < L steps. The chunks are copied once in step-major order,
    (L, C, ..., n), so that step i of every chunk is one contiguous slice.
    An L-step loop runs the recurrence inside every chunk at once from a
    zero start, and a C-step loop carries the true state from chunk to
    chunk (carry_j = lam^L * carry_{j-1} + last local state of chunk
    j-1), both with out= into one (C, ..., n) buffer. The fix-up is two
    calls with no temporary: lam^(i+1) * carry_j is written into x's own
    chunk memory, free once copied, and the local states are added to it.
    The step loop then runs the tail: about 2*sqrt(T) vectorized steps
    instead of T. The copy is about x.nbytes of transient memory. Each
    entry gets the products and sums, in the same operand order, of the
    form that loops over chunks[:, i] in x's own layout, so the result is
    bitwise that form's; the one exception is a step of one entry
    (n = 1) at T = 4 or 5, where that form's one-element fix-up products
    took numpy's scalar complex multiply, which rounds without the fused
    multiply-add of its vector loop.
    """
    T = len(x)
    if h_0 is not None:
        x[0] += lam * h_0
    if x.ndim > 2 and x[0].size >= STEP_LOOP_MIN:
        done = 1
    else:
        L = max(1, math.isqrt(T))
        C = T // L
        done = C * L
        # splitting one axis never copies, so writes to chunks land in x
        chunks = x[:done].reshape((C, L) + x.shape[1:])
        local = chunks.swapaxes(0, 1).copy()    # local[i]: step i of each chunk
        buf = np.empty_like(local[0])
        for i in range(1, L):
            np.add(local[i], np.multiply(lam, local[i - 1], out=buf),
                   out=local[i])
        pows = np.cumprod(np.broadcast_to(lam, (L, len(lam))), axis=0)
        carry = buf    # carry[j]: the state entering chunk j
        carry[0] = 0
        for j in range(1, C):
            np.add(np.multiply(pows[-1], carry[j - 1], out=carry[j]),
                   local[-1, j - 1], out=carry[j])
        # chunks[j, i] = local step i + lam^(i+1) * carry_j, the product
        # written into x's chunk memory (copied to local above) first
        chunks[0] = local[:, 0]
        np.multiply(pows.reshape((L,) + (1,) * (x.ndim - 2) + (-1,)),
                    carry[1:, None], out=chunks[1:])
        np.add(local.swapaxes(0, 1)[1:], chunks[1:], out=chunks[1:])
    prev = x[done - 1]
    for cur in x[done:]:
        cur += lam * prev
        prev = cur
    return x


def scan_forward(params: LruLayerParams, h_0: np.ndarray,
                 u_seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One layer over a whole sequence via _linear_recurrence, time first.

    u_seq real (T, ..., m), a (T, m) session or a (T, batch, m) batch of
    windows; h_0 complex (..., n), the state before the first row. Returns
    (h_seq, y_seq) with shapes (T, ..., n) and (T, ..., p): T rows of
    the online step's state update and readout from h_0, up to rounding
    (the input and output products are matmuls over every row, and the
    recurrence is chunked or, for a wide enough batch, a plain step loop).
    An input row that is not m wide, or an h_0 that is not one (n,) state
    per row of u_seq[0], is a ContractViolationError.
    """
    u_seq = np.asarray(u_seq, dtype=np.float64)
    if u_seq.ndim < 2 or len(u_seq) < 1:
        raise ContractViolationError("scan_forward requires a sequence of length >= 1")
    m, n, p = params.m, params.n, params.p
    if u_seq.shape[-1] != m or np.shape(h_0) != u_seq.shape[1:-1] + (n,):
        raise ContractViolationError(
            f"state shape {np.shape(h_0)} and input shape {u_seq.shape} for "
            f"a layer of {n} nodes and input width {m}")
    lam, gamma, _ = layer_constants(_LayerKernel(params))
    lead = u_seq.shape[:-1]
    u2 = u_seq.reshape(-1, m)
    # real maps with interleaved (re, im) columns and rows: (u @ W) viewed
    # as complex is u @ (gamma B)^T, and h viewed as float64 @ V is
    # Re(h) @ c_re^T - Im(h) @ c_im^T; each is one (T * batch)-row matmul
    w = np.stack((gamma * params.b_re.T, gamma * params.b_im.T), axis=2)
    h_seq = (u2 @ w.reshape(m, -1)).view(np.complex128).reshape(lead + (n,))
    _linear_recurrence(lam, h_seq, np.asarray(h_0, dtype=np.complex128))
    v = np.stack((params.c_re.T, -params.c_im.T), axis=1)
    y_seq = (h_seq.view(np.float64).reshape(-1, 2 * n) @ v.reshape(-1, p)
             + u2 @ params.d.T)
    return h_seq, y_seq.reshape(lead + (p,))


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


def network_scan(net: LruNetwork, u_seq: np.ndarray,
                 states: list[np.ndarray] | None = None
                 ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Full-sequence forward through the stack via per-layer scans of
    u_seq (T, ..., m), time first: a (T, m) session or a (T, batch, m)
    batch of windows. Starts from one (n_k,) state per layer (zero when
    None; given states need a 2-D u_seq).

    Returns (per-layer input sequences, per-layer state sequences,
    predictions), each time first like u_seq.
    """
    u_seq = np.asarray(u_seq, dtype=np.float64)
    _check_call(net, u_seq, states=states,
                ndim=None if states is None else 2)
    if states is None:
        states = [np.zeros(u_seq.shape[1:-1] + (layer.n,), dtype=np.complex128)
                  for layer in net.layers]
    layer_inputs = []
    layer_states = []
    x = u_seq
    for layer, h0 in zip(net.layers, states):
        layer_inputs.append(x)
        h_seq, x = scan_forward(layer, h0, x)
        layer_states.append(h_seq)
    return layer_inputs, layer_states, x
