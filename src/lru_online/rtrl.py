"""Real-time recurrent learning for LRU stacks.

Each layer keeps eligibility traces: the total derivative of its hidden
state w.r.t. its own recurrent-path parameters. Because the recurrence is
diagonal, dh_t/dh_{t-1} = diag(lambda) and every trace update is an
elementwise multiply-add; total trace memory is 3n + n*m complex entries
per layer, independent of stream length.

Gradient extraction convention: for a real parameter with complex trace
z = dh/dtheta, the loss gradient is Re[a * z] where a = C^T dL/dy is the
complex adjoint coefficient of the hidden state (the loss is real, taken
through y = Re[C h] + D u).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bptt import TrainConfig, WindowBatch
from .errors import ContractViolationError
from .lru import (LruLayerParams, LruNetwork, derive_gamma, layer_constants,
                  layer_terms, network_step)
from .optim import AdamState, apply_update, huber, huber_grad


@dataclass
class EligibilityTrace:
    """Per-layer complex traces dh_j/dtheta for the recurrent-path blocks.

    C and D never need traces: they act on the state instantaneously. The
    trace of b_im is 1j * trace_b_re: both start at zero, share lambda,
    and their immediate terms are gamma*u and 1j*gamma*u.
    """
    trace_nu: np.ndarray       # (n,)
    trace_phase: np.ndarray    # (n,)
    trace_gamma: np.ndarray    # (n,)
    trace_b_re: np.ndarray     # (n, m)

    @classmethod
    def zeros(cls, n: int, m: int) -> "EligibilityTrace":
        return cls(
            trace_nu=np.zeros(n, dtype=np.complex128),
            trace_phase=np.zeros(n, dtype=np.complex128),
            trace_gamma=np.zeros(n, dtype=np.complex128),
            trace_b_re=np.zeros((n, m), dtype=np.complex128),
        )


def reset_trace(net: LruNetwork) -> list[EligibilityTrace]:
    """All-zero traces shaped for the network (nothing has influenced the
    zero initial state)."""
    return [EligibilityTrace.zeros(layer.n, layer.m) for layer in net.layers]


def trace_step(params: LruLayerParams, h_prev: np.ndarray, u_t: np.ndarray,
               trace_prev: EligibilityTrace,
               terms: tuple | None = None) -> EligibilityTrace:
    """Advance one layer's traces: J_t = lambda * J_{t-1} + immediate Jacobian.
    `terms` is this step's lru.layer_terms if the forward step computed them."""
    u_t = np.asarray(u_t, dtype=np.float64)
    if trace_prev.trace_b_re.shape != (params.n, params.m):
        raise ContractViolationError(
            f"trace shape {trace_prev.trace_b_re.shape} does not match "
            f"layer ({params.n}, {params.m})")
    if u_t.shape[-1] != params.m:
        raise ContractViolationError(
            f"input width {u_t.shape[-1]} != layer input width {params.m}")
    lam, gamma, bu = terms or layer_terms(layer_constants(params), u_t)
    dlam_dnu = -np.exp(params.nu) * lam
    dlam_dphase = 1j * np.exp(params.theta_phase) * lam
    return EligibilityTrace(
        trace_nu=lam * trace_prev.trace_nu + dlam_dnu * h_prev,
        trace_phase=lam * trace_prev.trace_phase + dlam_dphase * h_prev,
        trace_gamma=lam * trace_prev.trace_gamma + gamma * bu,
        trace_b_re=lam[:, None] * trace_prev.trace_b_re + gamma[:, None] * u_t[None, :],
    )


def online_gradient(net: LruNetwork, traces: list[EligibilityTrace],
                    h_states: list[np.ndarray], layer_inputs: list[np.ndarray],
                    dL_dy: np.ndarray) -> np.ndarray:
    """Convert a per-step output gradient into a flat parameter gradient
    laid out like net.theta.

    h_states are the post-step hidden states, layer_inputs the per-layer
    inputs at this step (from lru.network_step). Credit flows spatially
    through upper layers' instantaneous maps; temporal credit within each
    layer comes from its own traces. Exact for depth 1; the cross-layer
    temporal terms of deeper stacks are deliberately dropped (the standard
    efficient diagonal-RTRL approximation).
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
        tr = traces[k]
        h = h_states[k]
        u = np.asarray(layer_inputs[k], dtype=np.float64)
        gamma = derive_gamma(layer)
        Cc = layer.c_re + 1j * layer.c_im
        Bc = layer.b_re + 1j * layer.b_im
        a = Cc.T @ g                       # complex adjoint coefficient of h
        out = blocks[k]
        out["nu"][...] = np.real(a * tr.trace_nu)
        out["theta_phase"][...] = np.real(a * tr.trace_phase)
        out["gamma_log"][...] = np.real(a * tr.trace_gamma)
        # Re[a * 1j * trace_b_re] = -Im[a * trace_b_re]
        ab = a[:, None] * tr.trace_b_re
        out["b_re"][...] = ab.real
        out["b_im"][...] = -ab.imag
        np.multiply(g[:, None], h.real, out=out["c_re"])
        np.multiply(g[:, None], -h.imag, out=out["c_im"])
        np.multiply(g[:, None], u, out=out["d"])
        if k > 0:
            # instantaneous dL/du of this layer = input gradient for layer below
            g = np.real(Bc.T @ (gamma * a)) + layer.d.T @ g
    return grads


def step_traces(net: LruNetwork, states: list[np.ndarray],
                layer_inputs: list[np.ndarray],
                traces: list[EligibilityTrace],
                terms: list | None = None) -> list[EligibilityTrace]:
    """Advance all layers' traces for one step. `states` are the pre-step
    hidden states, `layer_inputs` the inputs each layer saw this step, and
    `terms` the per-layer lru.layer_terms that network_step collected
    (recomputed when None)."""
    terms = terms or [None] * net.depth
    return [trace_step(layer, h_prev, u, tr, t)
            for layer, h_prev, u, tr, t
            in zip(net.layers, states, layer_inputs, traces, terms)]


def online_step(net: LruNetwork, states: list[np.ndarray],
                traces: list[EligibilityTrace], u_t: np.ndarray,
                y_t: np.ndarray
                ) -> tuple[list[np.ndarray], list[EligibilityTrace],
                           np.ndarray, float, np.ndarray]:
    """One RTRL step: forward, trace update, and the gradient of this step's
    mean Huber loss. Everything uses the current parameters; the caller
    decides whether to update them.

    Returns (new states, new traces, prediction, loss, flat gradient).
    """
    terms = []
    new_states, y_hat, layer_inputs = network_step(net, states, u_t, terms=terms)
    traces = step_traces(net, states, layer_inputs, traces, terms)
    resid = y_hat - y_t
    grads = online_gradient(net, traces, new_states, layer_inputs,
                            huber_grad(resid))
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
