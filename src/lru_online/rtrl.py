"""Real-time recurrent learning for LRU stacks.

Each layer keeps one complex trace matrix Z of shape (n, 3 + m): the total
derivative of its hidden state w.r.t. its own recurrent-path parameters,
with column NU for nu, PHASE for theta_phase, H for gamma_log and the B_RE
columns for the rows of b_re. Because the recurrence is diagonal,
dh_t/dh_{t-1} = diag(lambda) and the trace update is one elementwise
multiply-add; trace memory is 3n + n*m complex entries per layer,
independent of stream length. C and D need no trace: they act on the
state instantaneously.

The gamma_log trace is the hidden state h itself: h is linear in gamma =
exp(gamma_log), so dh/dgamma_log follows h's own recurrence (lambda,
immediate term gamma * B u) and equals h whenever both start at zero
together. So the H column is the state: the trace update advances it, and
no layer keeps h apart from its trace. The b_im trace is never stored: it
is 1j * the b_re trace (both start at zero, share lambda, and their
immediate terms are gamma*u and 1j*gamma*u).

Gradient extraction convention: for a real parameter with complex trace
z = dh/dtheta, the loss gradient is Re[a * z] where a = C^T dL/dy is the
complex adjoint coefficient of the hidden state (the loss is real, taken
through y = Re[C h] + D u).

The per-stream kernel _StreamPlan checks nothing and has two halves:
predict (one row's trace update, the state included, and readout) and
gradient (that row's parameter gradient). Its callers check the widths:
harness.OnlineLearner of each row (cmd_finetune of its stream, once),
window_gradient (one window's RTRL gradient, to compare with
bptt_gradient's) of its window (lru._check_call). The kernel copies no
block per row: B and the readout w = [C2 | D] are views of theta
(lru.LruLayerParams), and the gradient is written through the same views
of one buffer (net.paired). A layer reads
out y = w @ v, v = [conj(h) pairs | its input], and w's gradient is the
outer product of dL/dy and v. Its matrix products are ndarray.dot
calls: bitwise @ at half the call cost, and bitwise np.dot without
np.dot's Python-level dispatcher (100-160 ns a call), the ones with out=
included.

Operand rule of the per-row calls: each takes its operands in the
cheapest form that rounds the same. A rank-1 outer product x (x) y is
the dot of the (k, 1) and (1, q) views into a C-contiguous output: w's
gradient g (x) v straight into its block, gamma (x) u into a per-layer
(n, m) buffer that is then copied into the B_RE columns (1.0 and 1.3 us
against 1.6 and 1.7 us for the broadcast multiplies at n = 16, m = 9,
p = 5 on a 2-vCPU Xeon). It is bitwise the product, except that a -0.0
entry comes out +0.0 (BLAS adds the product to a zero); no nonzero
value downstream depends on a zero's sign. A broadcast column that every
row uses (the adjoint a as (n, 1)) is a view made once.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError
from .lru import LruNetwork, _check_call, _LayerKernel, layer_constants
from .optim import _huber_loss_grad

# Columns of a layer's trace matrix Z; Z[:, H] is the layer's state.
NU, PHASE, H, B_RE = 0, 1, 2, slice(3, None)


def reset_trace(net: LruNetwork) -> list[np.ndarray]:
    """All-zero (n, 3 + m) traces shaped for the network, whose H columns
    are its zero states (nothing has influenced the zero initial state)."""
    return [np.zeros((layer.n, 3 + layer.m), dtype=np.complex128)
            for layer in net.layers]


def _trace_step(k: _LayerKernel, u: np.ndarray, z_prev: np.ndarray,
                work: tuple) -> np.ndarray:
    """One layer's unchecked trace update Z_t = lambda * Z_{t-1} + immediate
    Jacobian (a new array) from its input row u (m,) and k's current
    layer_constants. Its H column is the state step h_t = lambda * h_{t-1}
    + gamma * (B u). work: the (n, 3 + m) Jacobian buffer, its NU/PHASE
    columns, its H column, its B_RE columns' real part and an (n, m)
    buffer for gamma (x) u."""
    imm, imm_lam, imm_h, imm_b, gu = work
    np.multiply(k.gamma, k.b.dot(u), out=imm_h)
    np.multiply(k.dlam, z_prev[:, H:H + 1], out=imm_lam)
    k.gamma_col.dot(u[None], out=gu)
    imm_b[...] = gu   # B_RE's imaginary part stays 0
    # out of place: numpy's in-place complex multiply rounds differently
    z = k.lam_col * z_prev
    z += imm
    return z


class _StreamPlan:
    """The RTRL step of one stream, checked by its caller.

    Construction lays out what every row reuses: each layer's
    lru._LayerKernel on theta, its work buffers and its layer views of one
    flat gradient buffer. predict() and gradient() check nothing: the
    caller has checked the input and target widths and passes traces that
    started from reset_trace(net). The gradient is the buffer, overwritten
    by the next row; traces, predictions and row vectors are new arrays.
    """

    def __init__(self, net: LruNetwork):
        self.kernels = [_LayerKernel(layer) for layer in net.layers]
        self.grads = np.empty_like(net.theta)
        self.outs = net.paired(self.grads)
        self.g = np.empty(net.output_dim)     # the top layer's dL/dy
        self.imm, self.work = [], []
        for (n, m, _), out in zip(net.dims, self.outs):
            imm = np.zeros((n, 3 + m), np.complex128)
            self.imm.append((imm, imm[:, :H], imm[:, H], imm[:, B_RE].real,
                             np.empty((n, m))))
            az = np.empty((n, 3 + m), np.complex128)   # a * Z
            gw = np.empty(2 * n + m)                   # g @ [C2 | D]
            a = gw[:2 * n].view(np.complex128)
            # the head gradient [nu, theta_phase, gamma_log] as (n, 3)
            self.work.append((az, az[:, :B_RE.start].real, az[:, B_RE],
                              out.head.reshape(3, n).T, gw, a, a[:, None],
                              gw[2 * n:]))
        self.top = len(net.layers) - 1

    def predict(self, traces: list[np.ndarray], u: np.ndarray
                ) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
        """One float64 row u through the stack at the current theta: per
        layer the layer constants, the trace update (which steps the
        state) and the readout y = w @ v, one matvec of the readout
        [C2 | D] on the new row vector v = [conj(h) pairs | x], x the
        layer's input; y is the next layer's input. Returns (new traces,
        prediction, each layer's v) for gradient()."""
        new_traces, vs, x = [], [], u
        for k, z, work in zip(self.kernels, traces, self.imm):
            layer_constants(k)
            z = _trace_step(k, x, z, work)
            new_traces.append(z)
            np.conjugate(z[:, H], out=k.h_conj)
            v = np.concatenate((k.h_pairs, x))
            vs.append(v)
            x = k.w.dot(v)
        return new_traces, x, vs

    def gradient(self, traces: list[np.ndarray], vs: list[np.ndarray],
                 g: np.ndarray) -> np.ndarray:
        """The flat parameter gradient (laid out like net.theta) of one
        step's float64 output gradient g, from the post-step traces and
        each layer's row vector v that predict() returned, at the layer
        constants that predict() left in self.kernels. Credit flows
        spatially through upper layers' instantaneous maps and temporally
        through each layer's own traces: exact for depth 1; deeper stacks
        drop the cross-layer temporal terms (the standard efficient
        diagonal-RTRL approximation)."""
        for k in range(self.top, -1, -1):
            kern, out = self.kernels[k], self.outs[k]
            az, az_head, az_b, head, gw, a, a_col, g_d = self.work[k]
            g.dot(kern.w, out=gw)   # [the adjoint a of h | g @ D]
            np.multiply(a_col, traces[k], out=az)
            head[...] = az_head
            # conj(a * Z) holds Re[a * Z] and -Im[a * Z] = Re[a * 1j * Z]
            # side by side: the b_re and b_im gradients as b's pairs
            np.conjugate(az_b, out=out.b_complex)
            # [C2 | D]'s gradient: the outer product of g and v
            g[:, None].dot(vs[k][None], out=out.w)
            if k > 0:
                # this layer's instantaneous dL/du: the layer below's dL/dy
                g = (kern.gamma * a).dot(kern.b).real + g_d
        return self.grads


def window_gradient(net: LruNetwork, inputs: np.ndarray,
                    targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Run RTRL over one window of at least one row from zero traces,
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
    traces = reset_trace(net)
    total_loss = 0.0
    grads = np.zeros_like(net.theta)
    for u_t, y_t in zip(inputs, targets):
        traces, y_hat, vs = plan.predict(traces, u_t)
        loss, g = _huber_loss_grad(np.subtract(y_hat, y_t, out=plan.g))
        grads += plan.gradient(traces, vs, g)
        total_loss += loss
    return total_loss / T, grads * (1.0 / T)
