"""Real-time recurrent learning for LRU stacks.

Each layer keeps one complex trace matrix Z of shape (n, 2 + m): the total
derivative of its hidden state w.r.t. its own recurrent-path parameters,
with column NU for nu, PHASE for theta_phase and the B_RE columns for the
rows of b_re. Because the recurrence is diagonal, dh_t/dh_{t-1} =
diag(lambda) and the trace update is one elementwise multiply-add; trace
memory is 2n + n*m complex entries per layer, independent of stream length.
C and D need no trace: they act on the state instantaneously.

Two more traces are never stored. The b_im trace is 1j * the b_re trace:
both start at zero, share lambda, and their immediate terms are gamma*u and
1j*gamma*u. The gamma_log trace is the hidden state h itself: h is linear
in gamma = exp(gamma_log), so dh/dgamma_log follows h's own recurrence
(lambda, immediate term gamma * B u) and equals h whenever both start at
zero together.

Gradient extraction convention: for a real parameter with complex trace
z = dh/dtheta, the loss gradient is Re[a * z] where a = C^T dL/dy is the
complex adjoint coefficient of the hidden state (the loss is real, taken
through y = Re[C h] + D u).
"""

from __future__ import annotations

import numpy as np

from .bptt import TrainConfig, WindowBatch
from .errors import ContractViolationError
from .lru import LruLayerParams, LruNetwork, layer_constants, network_step
from .optim import AdamState, apply_update, huber, huber_grad

# Columns of a layer's trace matrix Z.
NU, PHASE, B_RE = 0, 1, slice(2, None)


def reset_trace(net: LruNetwork) -> list[np.ndarray]:
    """All-zero (n, 2 + m) traces shaped for the network (nothing has
    influenced the zero initial state)."""
    return [np.zeros((layer.n, 2 + layer.m), dtype=np.complex128)
            for layer in net.layers]


def trace_step(params: LruLayerParams, h_prev: np.ndarray, u_t: np.ndarray,
               z_prev: np.ndarray, consts: tuple | None = None) -> np.ndarray:
    """Advance one layer's traces: Z_t = lambda * Z_{t-1} + immediate
    Jacobian. `consts` is the layer's lru.layer_constants (derived when
    None), which carry dlambda/dnu and dlambda/dtheta_phase."""
    u_t = np.asarray(u_t, dtype=np.float64)
    if z_prev.shape != (params.n, 2 + params.m):
        raise ContractViolationError(
            f"trace shape {z_prev.shape} does not match layer "
            f"({params.n}, 2 + {params.m})")
    if u_t.shape[-1] != params.m:
        raise ContractViolationError(
            f"input width {u_t.shape[-1]} != layer input width {params.m}")
    lam, gamma, _, _, dlam_dnu, dlam_dphase = consts or layer_constants(params)
    # out of place: numpy's in-place complex multiply rounds differently
    z = lam[:, None] * z_prev
    # add the immediate Jacobian column by column (additions round alike
    # in place and out of place)
    z_nu, z_phase, z_b = z[:, NU], z[:, PHASE], z[:, B_RE]
    z_nu += dlam_dnu * h_prev
    z_phase += dlam_dphase * h_prev
    z_b += gamma[:, None] * u_t[None, :]
    return z


def online_gradient(net: LruNetwork, traces: list[np.ndarray],
                    h_states: list[np.ndarray], layer_inputs: list[np.ndarray],
                    dL_dy: np.ndarray, consts: list[tuple]) -> np.ndarray:
    """Convert a per-step output gradient into a flat parameter gradient
    laid out like net.theta.

    h_states are the post-step hidden states (also the gamma_log traces),
    layer_inputs the per-layer inputs at this step (from lru.network_step)
    and consts each layer's lru.layer_constants of this step. Credit flows
    spatially through upper layers' instantaneous maps; temporal credit
    within each layer comes from its own traces. Exact for depth 1; the
    cross-layer temporal terms of deeper stacks are deliberately dropped
    (the standard efficient diagonal-RTRL approximation).
    """
    if len(traces) != net.depth:
        raise ContractViolationError(
            f"got {len(traces)} traces for a depth-{net.depth} network")
    if len(h_states) != net.depth or len(layer_inputs) != net.depth:
        raise ContractViolationError("states/inputs count does not match depth")
    grads = np.empty_like(net.theta)
    g = np.asarray(dL_dy, dtype=np.float64)
    for k in range(net.depth - 1, -1, -1):
        layer = net.layers[k]
        n, m, p = layer.n, layer.m, layer.p
        h = h_states[k]
        u = np.asarray(layer_inputs[k], dtype=np.float64)
        _, gamma, b_t, c_t, _, _ = consts[k]
        a = c_t @ g  # complex adjoint of h
        # the layer's blocks sit in PARAM_BLOCKS order from its offset:
        # nu and theta_phase, gamma_log, b_re and b_im, c_re and c_im, d
        nu = net.offsets[k]
        gl = nu + 2 * n
        b = gl + n
        c = b + 2 * n * m
        d = c + 2 * p * n
        # conj(a * Z) holds Re[a * Z] and -Im[a * Z] = Re[a * 1j * Z] side by
        # side: the nu, theta_phase and b_re gradients, and the b_im one
        at = np.conjugate(a[:, None] * traces[k]).view(np.float64)
        grads[nu:gl].reshape(2, n)[...] = at[:, 0:4:2].T
        grads[gl:b] = np.real(a * h)
        grads[b:c].reshape(2, n, m)[...] = \
            at[:, 4:].reshape(n, m, 2).transpose(2, 0, 1)
        # conj(h) holds [Re h, -Im h], the factors of the c_re and c_im rows
        np.multiply(g[None, :, None],
                    np.conjugate(h).view(np.float64).reshape(n, 2).T[:, None],
                    out=grads[c:d].reshape(2, p, n))
        np.multiply(g[:, None], u, out=grads[d:d + p * m].reshape(p, m))
        if k > 0:
            # instantaneous dL/du of this layer = input gradient for layer below
            g = np.real(b_t @ (gamma * a)) + layer.d.T @ g
    return grads


def online_step(net: LruNetwork, states: list[np.ndarray],
                traces: list[np.ndarray], u_t: np.ndarray, y_t: np.ndarray
                ) -> tuple[list[np.ndarray], list[np.ndarray],
                           np.ndarray, np.ndarray]:
    """One RTRL step: forward, trace update, and the gradient of this step's
    mean Huber loss. Everything uses the current parameters; the caller
    decides whether to update them, and takes the loss, when it needs one,
    as huber(prediction - y_t).

    States and traces must start at zero together (net.zero_states() and
    reset_trace(net)), at the start of a stream or session: the gamma_log
    trace is read from the state, which equals it only from a shared zero
    start.

    Returns (new states, new traces, prediction, flat gradient).
    """
    consts = [layer_constants(layer) for layer in net.layers]
    new_states, y_hat, layer_inputs = network_step(net, states, u_t, consts)
    traces = [trace_step(layer, h_prev, u, z, c)
              for layer, h_prev, u, z, c
              in zip(net.layers, states, layer_inputs, traces, consts)]
    grads = online_gradient(net, traces, new_states, layer_inputs,
                            huber_grad(y_hat - y_t), consts)
    return new_states, traces, y_hat, grads


def window_gradient(net: LruNetwork, inputs: np.ndarray,
                    targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Run RTRL over one window from zero state/traces, accumulating the
    per-step gradients. Returns the mean per-step Huber loss and its
    gradient, normalized like bptt_gradient so the two can be compared
    directly (they agree exactly for depth-1 networks)."""
    states = net.zero_states()
    traces = reset_trace(net)
    total_loss = 0.0
    grads = np.zeros_like(net.theta)
    for u_t, y_t in zip(np.asarray(inputs, dtype=np.float64),
                        np.asarray(targets, dtype=np.float64)):
        states, traces, y_hat, g = online_step(net, states, traces, u_t, y_t)
        total_loss += huber(y_hat - y_t)
        grads += g
    T = len(inputs)
    return total_loss / T, grads * (1.0 / T)


# ------------------------------------------------------- pretraining steps

def rtrl_window_step(net: LruNetwork, batch: WindowBatch, adam: AdamState,
                     cfg: TrainConfig) -> float:
    """Training step for bptt.train: one Adam update per window, on the
    window's accumulated RTRL gradient. Uses the batch's first window."""
    loss, grads = window_gradient(net, batch.inputs[0], batch.targets[0])
    apply_update(net.theta, grads, adam, cfg.clip)
    return loss


def rtrl_stream_step(net: LruNetwork, batch: WindowBatch, adam: AdamState,
                     cfg: TrainConfig) -> float:
    """Training step for bptt.train: streams the batch's first window from
    zero state, updating the parameters after every timestep."""
    states = net.zero_states()
    traces = reset_trace(net)
    total = 0.0
    for u_t, y_t in zip(batch.inputs[0], batch.targets[0]):
        states, traces, y_hat, grads = online_step(net, states, traces,
                                                   u_t, y_t)
        apply_update(net.theta, grads, adam, cfg.clip)
        total += huber(y_hat - y_t)
    return total / batch.window
