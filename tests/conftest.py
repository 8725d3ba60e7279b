import numpy as np
import pytest

from lru_online.bptt import bptt_gradient
from lru_online.lru import _LayerKernel, init_network, layer_constants


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_batch(rng, net, T, batch=1):
    """Time-first (T, batch, m) inputs and (T, batch, p) targets: views of
    standard normal (batch, T, ·) draws."""
    inputs = rng.standard_normal((batch, T, net.input_dim))
    targets = rng.standard_normal((batch, T, net.output_dim))
    return inputs.swapaxes(0, 1), targets.swapaxes(0, 1)


def finite_difference_grads(net, inputs, targets, eps=1e-5):
    """Central differences of the batch loss w.r.t. every entry of the flat
    parameter vector (the layers are views into it)."""
    theta = net.theta
    out = np.zeros_like(theta)
    for i in range(theta.size):
        theta[i] += eps
        lp, _ = bptt_gradient(net, inputs, targets)
        theta[i] -= 2 * eps
        lm, _ = bptt_gradient(net, inputs, targets)
        theta[i] += eps
        out[i] = (lp - lm) / (2 * eps)
    return out


def max_rel_error(analytic, numeric, floor=1e-8):
    denom = np.maximum(np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def small_random_net(rng, m=None, n=None, p=None, depth=1):
    m = m or int(rng.integers(2, 9))
    n = n or int(rng.integers(3, 17))
    p = p or int(rng.integers(1, 6))
    widths = tuple([n] * depth)
    return init_network(m, widths, p, r_min=0.4, r_max=0.95,
                        seed=int(rng.integers(0, 2**31)))


def constants(layer):
    """lru.layer_constants of a layer's own blocks: (lambda, gamma, the
    (n, 2) columns dlambda/dnu and dlambda/dtheta_phase), fresh arrays."""
    return layer_constants(_LayerKernel(layer))


def forward_row(net, states, u):
    """One input row u through the stack from one state per layer, written
    from the formulas: per layer h = gamma * (B u) + lambda * h_prev, then
    y = conj(h) as (re, im) pairs @ C2^T + D u, the next layer's u, with
    lambda and gamma from lru.layer_constants. Returns (new states,
    prediction, each layer's input)."""
    new_states, layer_inputs = [], []
    x = np.asarray(u, dtype=np.float64)
    for layer, h_prev in zip(net.layers, states):
        lam, gamma, _ = constants(layer)
        layer_inputs.append(x)
        h = gamma * (layer.b_complex @ x) + lam * h_prev
        new_states.append(h)
        x = np.conj(h).view(np.float64) @ layer.c2.T + x @ layer.d.T
    return new_states, x, layer_inputs


def zero_states(net):
    """forward_row's start of a session: one zero state (n,) per layer."""
    return [np.zeros(layer.n, dtype=np.complex128) for layer in net.layers]


def paired_order(m, widths, p):
    """The fixed index map from the flat layout of the references in
    tests/data (each layer's blocks nu, theta_phase, gamma_log, b_re, b_im,
    c_re, c_im, d one after another, each row-major) to LruNetwork.theta's
    (head, b as (re, im) pairs, then the readout w whose row i is output
    i's (c_re, c_im) pairs and row i of d): theta = old[paired_order(...)]
    for the network of input width m, layer widths `widths` and output
    width p, and old[..., paired_order(...)] for rows of flat vectors."""
    idx, start = [], 0
    for k, n in enumerate(widths):
        p_k = p if k == len(widths) - 1 else n
        sizes = (3 * n, 2 * n * m, 2 * p_k * n, p_k * m)
        head, b, c, d = np.split(np.arange(start, start + sum(sizes)),
                                 np.cumsum(sizes)[:-1])
        c_pairs = np.stack(c.reshape(2, p_k, n), axis=-1).reshape(p_k, -1)
        idx += [head, b.reshape(2, -1).T.ravel(),
                np.concatenate((c_pairs, d.reshape(p_k, m)), axis=1).ravel()]
        start += sum(sizes)
        m = p_k
    return np.concatenate(idx)


def in_theta_order(net, draw):
    """A flat draw read in the reference layout of tests/data, reordered
    into net.theta's (paired_order): a perturbation theta += in_theta_order
    (net, draw) gives every named parameter the same value whatever
    theta's layout is."""
    widths = tuple(layer.n for layer in net.layers)
    return draw[paired_order(net.input_dim, widths, net.output_dim)]
