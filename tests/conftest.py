import numpy as np
import pytest

from lru_online.bptt import WindowBatch, bptt_gradient
from lru_online.lru import init_network


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_batch(rng, net, T, batch=1):
    inputs = rng.standard_normal((batch, T, net.input_dim))
    targets = rng.standard_normal((batch, T, net.output_dim))
    return WindowBatch(inputs=inputs, targets=targets, window=T,
                       session_ids=np.zeros(batch, dtype=np.int64))


def finite_difference_grads(net, batch, eps=1e-5):
    """Central differences of the batch loss w.r.t. every entry of the flat
    parameter vector (the layers are views into it)."""
    theta = net.theta
    out = np.zeros_like(theta)
    for i in range(theta.size):
        theta[i] += eps
        lp, _ = bptt_gradient(net, batch)
        theta[i] -= 2 * eps
        lm, _ = bptt_gradient(net, batch)
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
