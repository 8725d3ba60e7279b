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

The per-stream kernel _StreamPlan checks nothing and has two halves:
predict (one row's forward step and trace update) and gradient (that row's
parameter gradient). Its callers check the widths: harness.OnlineLearner
of each row, window_gradient (RTRL pretraining's gradient) of its window
(lru._check_call). The kernel copies no block per row: B and C are views of
theta's (re, im) pairs (lru.LruLayerParams), and the gradient is written
through the same views of one buffer (net.paired).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError
from .lru import (LruNetwork, _check_call, _forward, _LayerKernel,
                  layer_constants)
from .optim import _huber_loss_grad

# Columns of a layer's trace matrix Z.
NU, PHASE, B_RE = 0, 1, slice(2, None)


def reset_trace(net: LruNetwork) -> list[np.ndarray]:
    """All-zero (n, 2 + m) traces shaped for the network (nothing has
    influenced the zero initial state)."""
    return [np.zeros((layer.n, 2 + layer.m), dtype=np.complex128)
            for layer in net.layers]


def _trace_step(k: _LayerKernel, h_prev: np.ndarray, u: np.ndarray,
                z_prev: np.ndarray, work: tuple) -> np.ndarray:
    """One layer's unchecked trace update Z_t = lambda * Z_{t-1} + immediate
    Jacobian (a new array) from the pre-step state h_prev (n,), the input
    row u (m,) and k's current layer_constants. work: the (n, 2 + m)
    Jacobian buffer, its NU/PHASE columns and its B_RE columns' real part."""
    imm, imm_lam, imm_b = work
    np.multiply(k.dlam, h_prev[:, None], out=imm_lam)
    np.multiply(k.gamma_col, u, out=imm_b)   # B_RE's imaginary part stays 0
    # out of place: numpy's in-place complex multiply rounds differently
    z = k.lam_col * z_prev
    z += imm
    return z


class _StreamPlan:
    """The RTRL step of one stream, checked by its caller.

    Construction lays out what every row reuses: each layer's
    lru._LayerKernel on theta, its work buffers and its layer views of one
    flat gradient buffer. predict() and gradient() check nothing: the
    caller has checked the input and target widths and passes states and
    traces that started from net.zero_states() and reset_trace(net)
    together (the gamma_log trace is read from the state, which equals it
    only from a shared zero start). The gradient is the buffer, overwritten
    by the next row; states, traces and predictions are new arrays.
    """

    def __init__(self, net: LruNetwork):
        self.kernels = [_LayerKernel(layer) for layer in net.layers]
        self.grads = np.empty_like(net.theta)
        self.outs = net.paired(self.grads)
        self.g = np.empty(net.output_dim)     # the top layer's dL/dy
        self.traces, self.work = [], []
        for n, m, _ in net.dims:
            imm = np.zeros((n, 2 + m), np.complex128)
            self.traces.append((imm, imm[:, :B_RE.start], imm[:, B_RE].real))
            az = np.empty((n, 2 + m), np.complex128)   # a * Z
            ah = np.empty(n, np.complex128)             # a * h
            self.work.append((az, az[:, :B_RE.start].real, az[:, B_RE],
                              ah, ah.real))
        self.top = len(net.layers) - 1

    def predict(self, states: list[np.ndarray], traces: list[np.ndarray],
                u: np.ndarray
                ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray,
                           list[np.ndarray]]:
        """One float64 row u at the current theta: the layer constants,
        the forward step and the trace update. Returns (new states, new
        traces, prediction, each layer's input) for gradient()."""
        for k in self.kernels:
            layer_constants(k)
        new_states, y_hat, inputs = _forward(self.kernels, states, u)
        new_traces = [_trace_step(k, h, x, z, work) for k, h, x, z, work
                      in zip(self.kernels, states, inputs, traces,
                             self.traces)]
        return new_states, new_traces, y_hat, inputs

    def gradient(self, traces: list[np.ndarray], h_states: list[np.ndarray],
                 layer_inputs: list[np.ndarray], g: np.ndarray) -> np.ndarray:
        """The flat parameter gradient (laid out like net.theta) of one
        step's float64 output gradient g, from the post-step traces and
        states (the gamma_log traces) and each layer's float64 input, right
        after predict() ran self.kernels to those states (it left conj(h)
        in them). Credit flows spatially through upper layers'
        instantaneous maps and temporally through each layer's own traces:
        exact for depth 1; deeper stacks drop the cross-layer temporal
        terms (the standard efficient diagonal-RTRL approximation)."""
        for k in range(self.top, -1, -1):
            kern, out = self.kernels[k], self.outs[k]
            az, az_lam, az_b, ah, ah_re = self.work[k]
            a = (g @ kern.c2).view(np.complex128)  # complex adjoint of h
            np.multiply(a[:, None], traces[k], out=az)
            out.nu_phase[...] = az_lam
            # conj(a * Z) holds Re[a * Z] and -Im[a * Z] = Re[a * 1j * Z]
            # side by side: the b_re and b_im gradients as b's pairs
            np.conjugate(az_b, out=out.b_complex)
            np.multiply(a, h_states[k], out=ah)
            out.gamma_log[...] = ah_re
            np.multiply(g[:, None], kern.h_pairs, out=out.c2)
            np.multiply(g[:, None], layer_inputs[k], out=out.d)
            if k > 0:
                # this layer's instantaneous dL/du: the layer below's dL/dy
                g = ((kern.gamma * a) @ kern.b).real + g @ kern.d
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
    plan = _StreamPlan(net)
    states, traces = net.zero_states(), reset_trace(net)
    total_loss = 0.0
    grads = np.zeros_like(net.theta)
    for u_t, y_t in zip(inputs, targets):
        states, traces, y_hat, layer_inputs = plan.predict(states, traces,
                                                           u_t)
        loss, g = _huber_loss_grad(np.subtract(y_hat, y_t, out=plan.g))
        grads += plan.gradient(traces, states, layer_inputs, g)
        total_loss += loss
    return total_loss / T, grads * (1.0 / T)
