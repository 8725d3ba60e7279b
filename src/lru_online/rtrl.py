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
    None)."""
    u_t = np.asarray(u_t, dtype=np.float64)
    if z_prev.shape != (params.n, 2 + params.m):
        raise ContractViolationError(
            f"trace shape {z_prev.shape} does not match layer "
            f"({params.n}, 2 + {params.m})")
    if u_t.shape[-1] != params.m:
        raise ContractViolationError(
            f"input width {u_t.shape[-1]} != layer input width {params.m}")
    lam, gamma, _ = consts or layer_constants(params)
    imm = np.empty_like(z_prev)
    imm[:, NU] = -np.exp(params.nu) * lam * h_prev
    imm[:, PHASE] = 1j * np.exp(params.theta_phase) * lam * h_prev
    imm[:, B_RE] = gamma[:, None] * u_t[None, :]
    # out of place: numpy's in-place complex multiply rounds differently
    return lam[:, None] * z_prev + imm


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
    blocks = net.unflatten(grads)
    g = np.asarray(dL_dy, dtype=np.float64)
    for k in range(net.depth - 1, -1, -1):
        layer = net.layers[k]
        h = h_states[k]
        u = np.asarray(layer_inputs[k], dtype=np.float64)
        _, gamma, b_t = consts[k]
        a = (layer.c_re + 1j * layer.c_im).T @ g  # complex adjoint of h
        at = a[:, None] * traces[k]
        out = blocks[k]
        out["nu"][...] = at[:, NU].real
        out["theta_phase"][...] = at[:, PHASE].real
        out["gamma_log"][...] = np.real(a * h)
        # Re[a * 1j * z_b_re] = -Im[a * z_b_re]
        out["b_re"][...] = at[:, B_RE].real
        out["b_im"][...] = -at[:, B_RE].imag
        np.multiply(g[:, None], h.real, out=out["c_re"])
        np.multiply(g[:, None], -h.imag, out=out["c_im"])
        np.multiply(g[:, None], u, out=out["d"])
        if k > 0:
            # instantaneous dL/du of this layer = input gradient for layer below
            g = np.real(b_t @ (gamma * a)) + layer.d.T @ g
    return grads


def online_step(net: LruNetwork, states: list[np.ndarray],
                traces: list[np.ndarray], u_t: np.ndarray, y_t: np.ndarray
                ) -> tuple[list[np.ndarray], list[np.ndarray],
                           np.ndarray, float, np.ndarray]:
    """One RTRL step: forward, trace update, and the gradient of this step's
    mean Huber loss. Everything uses the current parameters; the caller
    decides whether to update them.

    States and traces must start at zero together (net.zero_states() and
    reset_trace(net)), at the start of a stream or session: the gamma_log
    trace is read from the state, which equals it only from a shared zero
    start.

    Returns (new states, new traces, prediction, loss, flat gradient).
    """
    consts = [layer_constants(layer) for layer in net.layers]
    new_states, y_hat, layer_inputs = network_step(net, states, u_t, consts)
    traces = [trace_step(layer, h_prev, u, z, c)
              for layer, h_prev, u, z, c
              in zip(net.layers, states, layer_inputs, traces, consts)]
    resid = y_hat - y_t
    grads = online_gradient(net, traces, new_states, layer_inputs,
                            huber_grad(resid), consts)
    return new_states, traces, y_hat, huber(resid), grads


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
        states, traces, _, loss, g = online_step(net, states, traces,
                                                 u_t, y_t)
        total_loss += loss
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
        states, traces, _, loss, grads = online_step(net, states, traces,
                                                     u_t, y_t)
        apply_update(net.theta, grads, adam, cfg.clip)
        total += loss
    return total / batch.window
