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

online_step and window_gradient (RTRL pretraining's gradient) check their
input, target and state widths with lru._check_call (online_step adds the
trace shapes; the network was checked when it was built) and run the
unchecked per-stream kernel _StreamPlan.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError
from .lru import LruNetwork, _check_call, _forward, layer_constants
from .optim import huber, huber_grad

# Columns of a layer's trace matrix Z.
NU, PHASE, B_RE = 0, 1, slice(2, None)


def reset_trace(net: LruNetwork) -> list[np.ndarray]:
    """All-zero (n, 2 + m) traces shaped for the network (nothing has
    influenced the zero initial state)."""
    return [np.zeros((layer.n, 2 + layer.m), dtype=np.complex128)
            for layer in net.layers]


def _trace_step(h_prev: np.ndarray, u: np.ndarray, z_prev: np.ndarray,
                consts: tuple) -> np.ndarray:
    """One layer's unchecked trace update Z_t = lambda * Z_{t-1} + immediate
    Jacobian, from the pre-step state h_prev (n,), the input row u (m,) and
    lru.layer_constants (which carry dlambda/dnu and dlambda/dtheta_phase)."""
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
    _check_call(net, u_t, y_t, states, ndim=1)
    shapes = [(layer.n, 2 + layer.m) for layer in net.layers]
    if [np.shape(z) for z in traces] != shapes:
        raise ContractViolationError(
            f"trace shapes {[np.shape(z) for z in traces]} for layer "
            f"traces {shapes}")
    return _StreamPlan(net).step(states, traces, u_t, y_t)


class _StreamPlan:
    """online_step for one stream, checked once by the caller.

    Construction lays out what every step reuses:
    each layer's block views into one flat gradient buffer and the
    buffers its complex B^T and C^T are written into. step() and
    gradient() check nothing: the caller has checked the input and target
    widths (lru._check_call) and passes states and traces that started from
    net.zero_states() and reset_trace(net). The gradient they return is
    the buffer, overwritten by the next step.
    """

    def __init__(self, net: LruNetwork):
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
        """The flat parameter gradient (laid out like net.theta) of one
        step's float64 output gradient g, from the post-step traces and
        states (the gamma_log traces), each layer's float64 input and its
        layer_constants. Credit flows spatially through upper layers'
        instantaneous maps and temporally through each layer's own traces:
        exact for depth 1; deeper stacks drop the cross-layer temporal
        terms (the standard efficient diagonal-RTRL approximation)."""
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
    """Run RTRL over one window of at least one row from zero state/traces,
    accumulating the per-step gradients. Returns the mean per-step Huber
    loss and its gradient, normalized like bptt_gradient so the two can be
    compared directly (they agree exactly for depth-1 networks)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    _check_call(net, inputs, targets, ndim=2)
    T = inputs.shape[0]
    if T == 0:
        raise ContractViolationError("an RTRL window needs at least one row")
    step = _StreamPlan(net).step
    states, traces = net.zero_states(), reset_trace(net)
    total_loss = 0.0
    grads = np.zeros_like(net.theta)
    for u_t, y_t in zip(inputs, targets):
        states, traces, y_hat, g = step(states, traces, u_t, y_t)
        total_loss += huber(y_hat - y_t)
        grads += g
    return total_loss / T, grads * (1.0 / T)
