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

from .bptt import WindowBatch
from .errors import ContractViolationError
from .lru import LruLayerParams, LruNetwork, _forward, layer_constants
from .optim import _Descent, huber, huber_grad

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
    return _trace_step(h_prev, u_t, z_prev, consts or layer_constants(params))


def _trace_step(h_prev: np.ndarray, u: np.ndarray, z_prev: np.ndarray,
                consts: tuple) -> np.ndarray:
    """trace_step without its checks."""
    lam, gamma, _, _, dlam_dnu, dlam_dphase = consts
    # out of place: numpy's in-place complex multiply rounds differently
    z = lam[:, None] * z_prev
    # add the immediate Jacobian column by column (additions round alike
    # in place and out of place)
    z_nu, z_phase, z_b = z[:, NU], z[:, PHASE], z[:, B_RE]
    z_nu += dlam_dnu * h_prev
    z_phase += dlam_dphase * h_prev
    z_b += gamma[:, None] * u
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
    inputs = [np.asarray(u, dtype=np.float64) for u in layer_inputs]
    return _StreamPlan(net).gradient(traces, h_states, inputs,
                                     np.asarray(dL_dy, dtype=np.float64),
                                     consts)


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
    start. A state, trace, input or target whose shape does not fit the
    network is a ContractViolationError.

    Returns (new states, new traces, prediction, flat gradient).
    """
    u_t = np.asarray(u_t, dtype=np.float64)
    y_t = np.asarray(y_t, dtype=np.float64)
    _check_rows(net, u_t[None], y_t[None])
    if len(states) != net.depth or len(traces) != net.depth:
        raise ContractViolationError(
            f"got {len(states)} states and {len(traces)} traces for a "
            f"depth-{net.depth} network")
    for layer, h, z in zip(net.layers, states, traces):
        if h.shape != (layer.n,) or z.shape != (layer.n, 2 + layer.m):
            raise ContractViolationError(
                f"state shape {h.shape} and trace shape {z.shape} do not "
                f"match layer ({layer.n},) and ({layer.n}, 2 + {layer.m})")
    return _StreamPlan(net).step(states, traces, u_t, y_t)


def _check_rows(net: LruNetwork, inputs: np.ndarray,
                targets: np.ndarray) -> None:
    """Input rows (T, m) and target rows (T, p) of the network's widths."""
    if inputs.shape[1:] != (net.input_dim,):
        raise ContractViolationError(
            f"input rows of shape {inputs.shape[1:]} for a network of input "
            f"width {net.input_dim}")
    if targets.shape[1:] != (net.output_dim,):
        raise ContractViolationError(
            f"target rows of shape {targets.shape[1:]} for a network of "
            f"output width {net.output_dim}")
    if len(inputs) != len(targets):
        raise ContractViolationError(
            f"{len(inputs)} input rows but {len(targets)} target rows")


class _StreamPlan:
    """online_step for one stream, checked once.

    Construction checks the network and lays out what every step reuses:
    each layer's block views into one flat gradient buffer and the
    buffers its complex B^T and C^T are written into. step() and
    gradient() check nothing: the caller has checked the input and target
    widths (_check_rows) and passes states and traces that started from
    net.zero_states() and reset_trace(net). The gradient they return is
    the buffer, overwritten by the next step.
    """

    def __init__(self, net: LruNetwork):
        net.validate()
        self.params = net.layers
        self.grads = np.empty_like(net.theta)
        self.const_out = []
        self.h_conj = []
        self.blocks = []
        for layer, start in zip(net.layers, net.offsets):
            n, m, p = layer.n, layer.m, layer.p
            self.const_out.append((np.empty((n, m), np.complex128),
                                   np.empty((p, n), np.complex128)))
            # conj(h), and its [Re h, -Im h] pairs viewed as a (2, 1, n)
            # factor of the c_re and c_im rows
            h_conj = np.empty(n, np.complex128)
            self.h_conj.append(
                (h_conj, h_conj.view(np.float64).reshape(n, 2).T[:, None]))
            # the layer's blocks sit in PARAM_BLOCKS order from its offset:
            # nu and theta_phase, gamma_log, b_re and b_im, c_re and c_im,
            # d; nu/theta_phase and b_re/b_im are viewed with the pair last
            gl = start + 2 * n
            b = gl + n
            c = b + 2 * n * m
            d = c + 2 * p * n
            g = self.grads
            self.blocks.append((g[start:gl].reshape(2, n).T, g[gl:b],
                                g[b:c].reshape(2, n, m).transpose(1, 2, 0),
                                g[c:d].reshape(2, p, n),
                                g[d:d + p * m].reshape(p, m)))
        self.top = len(net.layers) - 1

    def step(self, states: list[np.ndarray], traces: list[np.ndarray],
             u: np.ndarray, y: np.ndarray
             ) -> tuple[list[np.ndarray], list[np.ndarray],
                        np.ndarray, np.ndarray]:
        """online_step without its checks; u and y float64 rows."""
        consts = [layer_constants(layer, out)
                  for layer, out in zip(self.params, self.const_out)]
        new_states, y_hat, inputs = _forward(self.params, states, u, consts)
        new_traces = [_trace_step(h, x, z, c) for h, x, z, c
                      in zip(states, inputs, traces, consts)]
        grads = self.gradient(new_traces, new_states, inputs,
                              huber_grad(y_hat - y), consts)
        return new_states, new_traces, y_hat, grads

    def gradient(self, traces: list[np.ndarray], h_states: list[np.ndarray],
                 layer_inputs: list[np.ndarray], g: np.ndarray,
                 consts: list[tuple]) -> np.ndarray:
        """online_gradient without its checks; layer_inputs and the output
        gradient g float64."""
        for k in range(self.top, -1, -1):
            nu_phase, gamma_log, b, c, d = self.blocks[k]
            h = h_states[k]
            _, gamma, b_t, c_t, _, _ = consts[k]
            a = c_t @ g  # complex adjoint of h
            # conj(a * Z) holds Re[a * Z] and -Im[a * Z] = Re[a * 1j * Z]
            # side by side: the nu, theta_phase and b_re gradients, and
            # the b_im one
            at = np.conjugate(a[:, None] * traces[k]).view(np.float64)
            nu_phase[...] = at[:, 0:4:2]
            gamma_log[...] = (a * h).real
            b[...] = at[:, 4:].reshape(b.shape)
            h_conj, pairs = self.h_conj[k]
            np.conjugate(h, out=h_conj)
            np.multiply(g[None, :, None], pairs, out=c)
            np.multiply(g[:, None], layer_inputs[k], out=d)
            if k > 0:
                # instantaneous dL/du of this layer = input gradient for
                # the layer below
                g = (b_t @ (gamma * a)).real + self.params[k].d.T @ g
        return self.grads


def window_gradient(net: LruNetwork, inputs: np.ndarray,
                    targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Run RTRL over one window from zero state/traces, accumulating the
    per-step gradients. Returns the mean per-step Huber loss and its
    gradient, normalized like bptt_gradient so the two can be compared
    directly (they agree exactly for depth-1 networks)."""
    plan = _StreamPlan(net)
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    _check_rows(net, inputs, targets)
    states = net.zero_states()
    traces = reset_trace(net)
    total_loss = 0.0
    grads = np.zeros_like(net.theta)
    for u_t, y_t in zip(inputs, targets):
        states, traces, y_hat, g = plan.step(states, traces, u_t, y_t)
        total_loss += huber(y_hat - y_t)
        grads += g
    T = len(inputs)
    return total_loss / T, grads * (1.0 / T)


# ------------------------------------------------------- pretraining steps

def rtrl_window_step(net: LruNetwork, batch: WindowBatch,
                     descend: _Descent) -> float:
    """Training step for bptt.train: one update per window, on the
    window's accumulated RTRL gradient. Uses the batch's first window."""
    loss, grads = window_gradient(net, batch.inputs[0], batch.targets[0])
    descend(grads)
    return loss


def rtrl_stream_step(net: LruNetwork, batch: WindowBatch,
                     descend: _Descent) -> float:
    """Training step for bptt.train: streams the batch's first window from
    zero state, updating the parameters after every timestep."""
    plan = _StreamPlan(net)
    inputs = np.asarray(batch.inputs[0], dtype=np.float64)
    targets = np.asarray(batch.targets[0], dtype=np.float64)
    _check_rows(net, inputs, targets)
    states = net.zero_states()
    traces = reset_trace(net)
    total = 0.0
    for u_t, y_t in zip(inputs, targets):
        states, traces, y_hat, grads = plan.step(states, traces, u_t, y_t)
        descend(grads)
        total += huber(y_hat - y_t)
    return total / batch.window
