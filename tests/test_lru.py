import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from conftest import (constants, forward_row, in_theta_order, random_batch,
                      zero_states)
from lru_online.bptt import bptt_gradient
from lru_online.errors import ConfigurationError, ContractViolationError
from lru_online.harness import FinetuneConfig, OnlineLearner, PretrainConfig
from lru_online.lru import (LruLayerParams, LruNetwork,
                            _LayerKernel, _linear_recurrence,
                            init_layer, init_network, network_scan,
                            scan_forward)
from lru_online.optim import AdamState, _Descent


def make_layer(nu, theta_phase, gamma_log, b_re, b_im, c_re, c_im, d):
    return LruLayerParams.from_blocks(
        nu=nu, theta_phase=theta_phase, gamma_log=gamma_log, b_re=b_re,
        b_im=b_im, c_re=c_re, c_im=c_im, d=d)


def replace_blocks(layer, **named):
    """A copy of a layer with some of its named blocks replaced."""
    return LruLayerParams.from_blocks(**{**layer.blocks(), **named})


def step_one_layer(layer, h_prev, u):
    """One step of a single layer: forward_row on the one-layer net."""
    states, y, _ = forward_row(LruNetwork([layer]), [h_prev], u)
    return states[0], y


def diagonal_layer(n, lam=0.0, gamma=1.0):
    """Layer with real eigenvalue lam on every node, B = C = identity, D = 0."""
    if lam == 0.0:
        nu = np.full(n, 50.0)  # exp(-exp(50)) underflows to exactly 0
    else:
        nu = np.full(n, np.log(-np.log(lam)))
    theta = np.full(n, -745.0)  # exp(theta) underflows to 0 phase
    return make_layer(nu, theta, np.log(np.full(n, gamma)),
                      np.eye(n), np.zeros((n, n)),
                      np.eye(n), np.zeros((n, n)), np.zeros((n, n)))


class TestDeriveLambda:
    def test_known_value(self):
        layer = make_layer([0.0], [np.log(np.pi)], [0.0],
                           [[1.0]], [[0.0]], [[1.0]], [[0.0]], [[0.0]])
        lam = constants(layer)[0][0]
        assert lam.real == pytest.approx(-np.exp(-1.0), abs=1e-15)
        assert lam.imag == pytest.approx(0.0, abs=1e-15)

    def test_large_nu_shrinks_magnitude(self):
        layer = make_layer([40.0], [0.0], [0.0],
                           [[1.0]], [[0.0]], [[1.0]], [[0.0]], [[0.0]])
        assert abs(constants(layer)[0][0]) == 0.0

    @given(nu=arrays(np.float64, 8, elements=st.floats(-20, 20)),
           theta=arrays(np.float64, 8, elements=st.floats(-20, 5)))
    @settings(max_examples=200, deadline=None)
    def test_stability_by_construction(self, nu, theta):
        layer = make_layer(nu, theta, np.zeros(8),
                           np.zeros((8, 1)), np.zeros((8, 1)),
                           np.zeros((1, 8)), np.zeros((1, 8)),
                           np.zeros((1, 1)))
        assert np.all(np.abs(constants(layer)[0]) < 1.0)


class TestLambdaAgainstOracle:
    """layer_constants' lambda = exp(-exp(nu) + i exp(theta_phase)) and
    its two derivatives at random nu in [-12, 6.5] (|lambda| from
    0.99999 down to about 1e-280) and random theta_phase from
    init_layer's 1e-8 phase floor to log(pi), every seventh at the
    floor."""

    @staticmethod
    def layer(rng, nu_high=6.5, n=2000):
        nu = rng.uniform(-12.0, nu_high, n)
        theta_phase = np.log(rng.uniform(1e-8, np.pi, n))
        theta_phase[::7] = np.log(1e-8)
        return replace_blocks(init_layer(1, n, 1), nu=nu,
                              theta_phase=theta_phase)

    def test_matches_oracle(self, rng):
        """Within 4 (1 + exp(nu) + exp(theta_phase)) eps of the oracle's,
        relative: rounding exp(nu) and exp(theta_phase) to float64 alone
        moves the exponent by (exp(nu) + exp(theta_phase)) eps."""
        layer = self.layer(rng)
        lam, _, dlam = constants(layer)
        tol = 4 * np.finfo(np.float64).eps * (
            1 + np.exp(layer.nu) + np.exp(layer.theta_phase))
        for got, ref in zip((lam, dlam[:, 0], dlam[:, 1]),
                            oracle.eigenvalues(layer.nu, layer.theta_phase)):
            assert np.all(np.abs(got - ref) <= tol * np.abs(ref))

    def test_derivatives_match_central_differences(self, rng):
        """Steps of 1e-4 (in nu divided by max(1, exp(nu))), within 1e-6
        of the derivative plus 1e-11 of lambda: the rounding of lambda
        over such a step, which the tiny derivative at the phase floor
        cannot outweigh."""
        layer = self.layer(rng)
        lam, _, dlam = constants(layer)
        for name, want in (("nu", dlam[:, 0]), ("theta_phase", dlam[:, 1])):
            x = getattr(layer, name)
            h = 1e-4 / np.maximum(1.0, np.exp(x)) if name == "nu" else 1e-4
            up = constants(replace_blocks(layer, **{name: x + h}))[0]
            down = constants(replace_blocks(layer, **{name: x - h}))[0]
            diff = (up - down) / ((x + h) - (x - h))
            assert np.all(np.abs(diff - want)
                          <= 1e-6 * np.abs(want) + 1e-11 * np.abs(lam)), name

    def test_inside_unit_circle(self, rng):
        """Also where exp(-exp(nu)) underflows to 0 (nu up to 10)."""
        lam = constants(self.layer(rng, nu_high=10.0))[0]
        assert np.all(np.abs(lam) < 1.0)
        assert np.any(lam == 0.0)

    def test_magnitude_bound_down_to_the_exp_floor(self, rng):
        """The bound the module docstring states, on a nu grid from -745
        (where exp(nu) is subnormal) up to 6.5, at random phases: every
        |lambda| is at most 1 + 2**-52, and below 1 for nu >= -35. Below
        about -37.7 exp(-exp(nu)) is exactly 1, so the strict bound fails
        there, and nothing clamps nu."""
        nu = np.concatenate((np.linspace(-745.0, 6.5, 40000),
                             np.arange(-745.0, 7.0)))
        layer = replace_blocks(self.layer(rng, n=nu.size), nu=nu)
        mag = np.abs(constants(layer)[0])
        assert mag.max() <= 1.0 + 2.0 ** -52
        assert np.all(mag[nu >= -35.0] < 1.0)
        assert np.all(np.exp(-np.exp(nu[nu <= -38.0])) == 1.0)
        assert np.any(mag[nu <= -38.0] >= 1.0)


class TestInitLayer:
    def test_degenerate_ring(self):
        layer = init_layer(2, 6, 3, r_min=0.5, r_max=0.5, seed=0)
        assert np.allclose(np.abs(constants(layer)[0]), 0.5,
                           atol=1e-12)

    def test_deterministic(self):
        a = init_layer(3, 8, 2, seed=42)
        b = init_layer(3, 8, 2, seed=42)
        for name in a.blocks():
            assert np.array_equal(a.blocks()[name], b.blocks()[name])

    def test_default_ring_gamma_bounds(self):
        # gamma = sqrt(1 - |lam|^2); ring [0.9, 0.999] gives
        # gamma in (sqrt(1-0.999^2), sqrt(1-0.9^2)) = (0.0447..., 0.4358...)
        layer = init_layer(4, 64, 2, seed=5)
        gamma = constants(layer)[1]
        assert np.all(gamma > np.sqrt(1 - 0.999 ** 2) - 1e-12)
        assert np.all(gamma < np.sqrt(1 - 0.9 ** 2) + 1e-12)

    def test_invalid_ring(self):
        with pytest.raises(ConfigurationError):
            init_layer(2, 4, 1, r_min=0.9, r_max=0.5)
        with pytest.raises(ConfigurationError):
            init_layer(2, 4, 1, r_min=0.0, r_max=0.5)

    def test_d_zero(self):
        assert np.all(init_layer(3, 4, 2, seed=1).d == 0.0)

    @pytest.mark.parametrize("widths", [(), (0,), (-1,), (4, 0), (8.0,),
                                        (2.5,), (True,), (4, np.True_),
                                        ("8",)])
    def test_network_rejects_bad_widths(self, widths):
        """No layer, a layer of width below 1 or a width that is not an
        integer (a bool included) is a ConfigurationError naming layers,
        not a numpy error or a network of 0 nodes, from init_network and
        from PretrainConfig alike."""
        with pytest.raises(ConfigurationError, match="layers"):
            init_network(3, widths, 2)
        with pytest.raises(ConfigurationError, match="layers"):
            PretrainConfig(layers=widths)


class TestLayerStep:
    def test_memoryless_identity(self):
        layer = diagonal_layer(3, lam=0.0)
        u = np.array([1.0, 0.0, 0.0])
        h, y = step_one_layer(layer, np.zeros(3, complex), u)
        assert np.allclose(h.real, u) and np.allclose(h.imag, 0.0)
        assert np.allclose(y, u)

    def test_pure_decay(self):
        layer = diagonal_layer(2, lam=0.5)
        h, _ = step_one_layer(layer, np.array([2 + 0j, 2 + 0j]), np.zeros(2))
        assert np.allclose(h, [1 + 0j, 1 + 0j])

    def test_convolution_oracle(self, rng):
        layer = init_layer(3, 6, 2, r_min=0.3, r_max=0.9, seed=9)
        lam = constants(layer)[0]
        gamma = constants(layer)[1]
        Bc = layer.b_re + 1j * layer.b_im
        u = rng.standard_normal((8, 3))
        h = np.zeros(6, complex)
        for t in range(8):
            h, _ = step_one_layer(layer, h, u[t])
        expect = sum(lam ** (7 - k) * gamma * (Bc @ u[k]) for k in range(8))
        assert np.allclose(h, expect, atol=1e-12)

    def test_output_is_re_ch_plus_du(self, rng):
        layer = init_layer(3, 6, 2, seed=9)
        layer.d[:] = rng.standard_normal((2, 3))
        u = rng.standard_normal(3)
        h_prev = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h, y = step_one_layer(layer, h_prev, u)
        C = layer.c_re + 1j * layer.c_im
        assert np.allclose(y, (C @ h).real + layer.d @ u, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        """The online step on the one-layer net rejects an input row and a
        label of the wrong width."""
        learner = OnlineLearner(LruNetwork([init_layer(3, 4, 2, seed=0)]),
                                FinetuneConfig())
        with pytest.raises(ContractViolationError):
            learner.predict(np.zeros(5))
        learner.predict(np.zeros(3))
        with pytest.raises(ContractViolationError):
            learner.observe(np.zeros(3))


class TestScanForward:
    @pytest.mark.parametrize("T", [1, 2, 64, 1024])
    def test_matches_sequential(self, T, rng):
        layer = init_layer(4, 8, 3, seed=T)
        u = rng.standard_normal((T, 4))
        h0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        h_seq, y_seq = scan_forward(layer, h0, u)
        h = h0
        for t in range(T):
            h, y = step_one_layer(layer, h, u[t])
            scale = max(np.abs(h).max(), 1.0)
            assert np.abs(h_seq[t] - h).max() < 1e-10 * scale
            assert np.abs(y_seq[t] - y).max() < 1e-10 * max(np.abs(y).max(), 1.0)

    def test_zero_input_zero_state(self):
        layer = init_layer(2, 5, 2, seed=3)
        h_seq, y_seq = scan_forward(layer, np.zeros(5, complex), np.zeros((16, 2)))
        assert np.all(h_seq == 0) and np.all(y_seq == 0)

    def test_empty_sequence_rejected(self):
        layer = init_layer(2, 4, 1, seed=0)
        with pytest.raises(ContractViolationError):
            scan_forward(layer, np.zeros(4, complex), np.zeros((0, 2)))

    def test_linearity(self, rng):
        layer = init_layer(3, 6, 2, seed=11)
        u = rng.standard_normal((40, 3))
        h1, y1 = scan_forward(layer, np.zeros(6, complex), u)
        h2, y2 = scan_forward(layer, np.zeros(6, complex), 2 * u)
        assert np.allclose(h2, 2 * h1, rtol=1e-12, atol=1e-12)
        assert np.allclose(y2, 2 * y1, rtol=1e-12, atol=1e-12)

    def test_bounded_response(self, rng):
        layer = init_layer(3, 8, 2, seed=21)
        u = rng.uniform(-1.0, 1.0, size=(2000, 3))
        h_seq, _ = scan_forward(layer, np.zeros(8, complex), u)
        lam_max = np.abs(constants(layer)[0]).max()
        gamma = constants(layer)[1]
        row_sum = np.abs(layer.b_re + 1j * layer.b_im).sum(axis=1)
        bound = (gamma * row_sum).max() / (1.0 - lam_max)
        assert np.abs(h_seq).max() <= bound + 1e-9

    def test_batched_matches_loop(self, rng):
        """A time-first (T, batch, m) batch scans each window u[:, b]."""
        layer = init_layer(2, 4, 2, seed=8)
        u = rng.standard_normal((10, 3, 2))
        h0 = np.zeros((3, 4), complex)
        h_seq, y_seq = scan_forward(layer, h0, u)
        for b in range(3):
            hb, yb = scan_forward(layer, h0[b], u[:, b])
            assert np.allclose(h_seq[:, b], hb) and np.allclose(y_seq[:, b], yb)

    @pytest.mark.parametrize("h0_shape, u_shape", [
        ((1,), (10, 2)),       # a (1,) state broadcast over the 4 nodes
        ((5,), (10, 2)),       # one state entry too many
        ((4,), (10, 3)),       # input rows one entry too wide
        ((4,), (10, 3, 2)),    # one state for a batch of 3 windows
        ((2, 4), (10, 3, 2)),  # two states for a batch of 3 windows
    ], ids=["broadcast-state", "wide-state", "wide-input", "unbatched-state",
            "short-batch-state"])
    def test_shape_mismatch_rejected(self, h0_shape, u_shape):
        """h_0 must be one (n,) state per row of u_seq[0], and input rows
        m wide; anything else raises, naming both shapes."""
        layer = init_layer(2, 4, 1, seed=0)
        with pytest.raises(ContractViolationError, match=re.escape(
                f"state shape {h0_shape} and input shape {u_shape}")):
            scan_forward(layer, np.zeros(h0_shape, complex), np.zeros(u_shape))


def sequential_recurrence(lam, x, h_0):
    """Reference: h_t = lam * h_{t-1} + x_t, one step at a time along
    axis 0 of x (T, ..., n)."""
    h = np.empty_like(x)
    prev = h_0
    for t in range(len(x)):
        prev = lam * prev + x[t]
        h[t] = prev
    return h


class TestLinearRecurrence:
    """The recurrence primitive, time first, against a plain loop. T
    covers one and two steps, T just below, at and just above a square
    (the chunk length isqrt(T) steps up there and the tail after the last
    chunk is empty or one step) and a full 3601-step session; `lead` is
    the batch shape between the time axis and the n nodes."""

    @staticmethod
    def _case(rng, lead, T, mag, n=6):
        lam = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        x = (rng.standard_normal((T,) + lead + (n,))
             + 1j * rng.standard_normal((T,) + lead + (n,)))
        h_0 = rng.standard_normal(lead + (n,)) + 1j * rng.standard_normal(lead + (n,))
        return lam, x, h_0

    @staticmethod
    def _rel_err(got, ref):
        return np.abs(got - ref).max() / max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("T", [1, 2, 15, 16, 17, 63, 64, 65, 3601])
    @pytest.mark.parametrize("lead", [(), (1,), (3, 2)])
    @pytest.mark.parametrize("mag", [0.9999, 1e-3])
    def test_forward_matches_loop(self, T, lead, mag, rng):
        lam, x, h_0 = self._case(rng, lead, T, mag)
        ref = sequential_recurrence(lam, x, h_0)
        got = x.copy()
        assert _linear_recurrence(lam, got, h_0) is got
        assert self._rel_err(got, ref) < 1e-12

    @pytest.mark.parametrize("T", [1, 2, 15, 16, 17, 63, 64, 65, 3601])
    @pytest.mark.parametrize("lead", [(), (1,), (3, 2)])
    @pytest.mark.parametrize("mag", [0.9999, 1e-3])
    def test_reverse_matches_loop(self, T, lead, mag, rng):
        """On a time-reversed view it runs s_t = x_t + lam * s_{t+1}
        backwards, in place in the original array."""
        lam, x, h_0 = self._case(rng, lead, T, mag)
        ref = sequential_recurrence(lam, x[::-1], h_0)[::-1]
        got = x.copy()
        _linear_recurrence(lam, got[::-1], h_0)
        assert self._rel_err(got, ref) < 1e-12

    def test_zero_start_by_default(self, rng):
        lam, x, _ = self._case(rng, (2,), 40, 0.9)
        ref = sequential_recurrence(lam, x, np.zeros((2, 6), complex))
        assert self._rel_err(_linear_recurrence(lam, x.copy()), ref) < 1e-12

    @pytest.mark.parametrize("T", [1, 2, 17, 128])
    @pytest.mark.parametrize("start", ["h_0", "zero"])
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reverse"])
    @pytest.mark.parametrize("width", [31, 32], ids=["below", "at"])
    def test_both_branches(self, width, reverse, start, T, rng):
        """A (T, width, 8) batch holds 8 * width entries per step: 248 just
        below 256 and 256 at it, the width at which a batch once switched
        from the chunked form to the step loop. Both now run the one step
        loop, bitwise the reference, forwards and on the time-reversed view
        the adjoint takes, from a given and from a zero start."""
        lam, x, h_0 = self._case(rng, (width,), T, 0.9999, n=8)
        if start == "zero":
            h_0 = None
        flip = (lambda a: a[::-1]) if reverse else (lambda a: a)
        ref = flip(sequential_recurrence(
            lam, flip(x), np.zeros((width, 8), complex) if h_0 is None
            else h_0))
        got = x.copy()
        _linear_recurrence(lam, flip(got), h_0)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("T", [1, 2, 17, 128, 256])
    @pytest.mark.parametrize("batch", [1, 4, 15, 32, 256])
    @pytest.mark.parametrize("start", ["h_0", "zero"])
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reverse"])
    def test_step_loop_bitwise_at_trained_shapes(self, reverse, start, batch,
                                                 T, rng):
        """At n = 16, a batch of any width (one window up to the 256 BPTT
        trains with) and windows of 1 to 256 steps, the step loop
        multiplies each step by lam made flat at the step's shape. Each
        product rounds as the reference's lam * h with lam broadcast, so
        the result is bitwise sequential_recurrence, forwards and on the
        time-reversed view, from a given and from a zero start."""
        lam, x, h_0 = self._case(rng, (batch,), T, 0.9999, n=16)
        flip = (lambda a: a[::-1]) if reverse else (lambda a: a)
        ref = flip(sequential_recurrence(
            lam, flip(x), np.zeros((batch, 16), complex) if start == "zero"
            else h_0))
        got = x.copy()
        _linear_recurrence(lam, flip(got), None if start == "zero" else h_0)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("T", [1, 2, 3, 15, 16, 17, 63, 64, 65, 3601])
    @pytest.mark.parametrize("start", ["h_0", "zero"])
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reverse"])
    def test_session_is_chunked_reference_bitwise(self, reverse, start, T,
                                                  rng):
        """On a (T, n) session the step-major chunked form is bitwise
        chunked_recurrence, which loops over the chunks in x's own layout,
        forwards and on the time-reversed view, from a given and from a
        zero start."""
        lam, x, h_0 = self._case(rng, (), T, 0.9999)
        flip = (lambda a: a[::-1]) if reverse else (lambda a: a)
        ref = x.copy()
        chunked_recurrence(lam, flip(ref),
                           np.zeros(6, complex) if start == "zero" else h_0)
        got = x.copy()
        _linear_recurrence(lam, flip(got), None if start == "zero" else h_0)
        assert np.array_equal(got, ref)

    def test_chunked_peak_memory(self, rng):
        """One chunked call on a (3601, 16) session allocates at most
        2 * x.nbytes at its peak: the step-major copy of the chunks and
        nothing of that size on top of it."""
        lam, x, h_0 = self._case(rng, (), 3601, 0.9999, n=16)
        tracemalloc.start()
        try:
            _linear_recurrence(lam, x, h_0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * x.nbytes


def chunked_recurrence(lam, x, h_0):
    """Reference: the chunked form on a (T, n) session, written out for
    two dimensions only (chunks of isqrt(T) steps, a carry between them,
    a step-by-step tail), in place."""
    T, n = x.shape
    x[0] += lam * h_0
    L = math.isqrt(T)
    C = T // L
    chunks = x[:C * L].reshape(C, L, n)
    for i in range(1, L):
        chunks[:, i] += lam * chunks[:, i - 1]
    pows = np.cumprod(np.broadcast_to(lam, (L, n)), axis=0)
    carry = np.zeros((C, n), complex)
    for j in range(1, C):
        carry[j] = pows[-1] * carry[j - 1] + chunks[j - 1, -1]
    for i in range(L):
        chunks[1:, i] += pows[i] * carry[1:]
    for t in range(C * L, T):
        x[t] += lam * x[t - 1]
    return x


def chunked_scan(net, u):
    """Reference: a (T, m) session through the stack from zero states,
    each layer's (T, m) and (T, 2n) matmuls around chunked_recurrence."""
    states = []
    for layer in net.layers:
        lam, gamma, _ = constants(layer)
        w = np.stack((gamma * layer.b_re.T, gamma * layer.b_im.T), axis=2)
        h = (u @ w.reshape(layer.m, -1)).view(complex)
        chunked_recurrence(lam, h, np.zeros(layer.n, complex))
        v = np.stack((layer.c_re.T, -layer.c_im.T), axis=1)
        u = h.view(np.float64) @ v.reshape(-1, layer.p) + u @ layer.d.T
        states.append(h)
    return states, u


class TestNetworkForward:
    @pytest.mark.parametrize("widths, T", [((16,), 3601), ((8, 8), 200),
                                           ((256,), 300)])
    def test_session_scan_is_chunked_bitwise(self, widths, T, rng):
        """A 2-D (T, m) network_scan, the scan of every evaluated session,
        is bitwise the chunked reference, also when one step holds 256
        or more entries."""
        net = init_network(9, widths, 5, seed=4)
        net.theta += 0.1 * in_theta_order(
            net, rng.standard_normal(net.theta.size))   # D != 0
        u = rng.standard_normal((T, 9))
        _, h_seq, preds = network_scan(net, u)
        ref_h, ref_preds = chunked_scan(net, u)
        assert np.array_equal(preds, ref_preds)
        for h, ref in zip(h_seq, ref_h):
            assert np.array_equal(h, ref)

    def test_transparent_second_layer(self, rng):
        first = init_layer(3, 4, 4, seed=2)
        second = diagonal_layer(4, lam=0.0)
        net = LruNetwork([first, second])
        u = rng.standard_normal(3)
        _, y, _ = forward_row(net, zero_states(net), u)
        _, y_first = step_one_layer(first, np.zeros(4, complex), u)
        assert np.allclose(y, y_first)

    def test_depth2_matches_unrolled(self, rng):
        net = init_network(3, (5, 4), 2, seed=6)
        u = rng.standard_normal((16, 3))
        states = zero_states(net)
        stepped = []
        for t in range(16):
            states, y, _ = forward_row(net, states, u[t])
            stepped.append(y)
        _, _, preds = network_scan(net, u)
        assert np.allclose(preds, np.asarray(stepped), atol=1e-12)

    def test_scan_from_states_matches_stepping(self, rng):
        """network_scan continues from given states, as stepping row by
        row does, and leaves them as they were."""
        net = init_network(3, (5, 4), 2, seed=6)
        net.theta += 0.1 * in_theta_order(
            net, rng.standard_normal(net.theta.size))   # D != 0
        u = rng.standard_normal((16, 3))
        start = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                 for n in (5, 4)]
        kept = [h.copy() for h in start]
        states, stepped = start, []
        for t in range(16):
            states, y, _ = forward_row(net, states, u[t])
            stepped.append(y)
        _, h_seq, preds = network_scan(net, u, start)
        assert np.allclose(preds, np.asarray(stepped), atol=1e-12)
        for h, h_end in zip(h_seq, states):
            assert np.allclose(h[-1], h_end, atol=1e-12)
        for h, before in zip(start, kept):
            assert h.tobytes() == before.tobytes()

    @pytest.mark.parametrize("case", ["count", "width", "batch"])
    def test_scan_state_shape_mismatch(self, case):
        net = init_network(3, (5, 4), 2, seed=6)
        states, u = zero_states(net), np.zeros((7, 3))
        if case == "count":
            states = states[:1]
        elif case == "width":
            states[1] = np.zeros(5, complex)
        else:
            u = np.zeros((2, 7, 3))
        with pytest.raises(ContractViolationError):
            network_scan(net, u, states)

    @pytest.mark.parametrize("lead", [(7,), (2, 7)], ids=["rows", "batch"])
    def test_scan_input_width_mismatch(self, lead):
        net = init_network(3, (5, 4), 2, seed=6)
        with pytest.raises(ContractViolationError, match="input"):
            network_scan(net, np.zeros(lead + (4,)))


class TestFlatParameters:
    def test_layers_are_views_of_theta(self):
        net = init_network(3, (5, 4), 2, seed=6)
        sizes = [sum(b.size for b in layer.blocks().values())
                 for layer in net.layers]
        assert net.theta.shape == (sum(sizes),)
        net.theta[:] = np.arange(net.theta.size)
        assert net.layers[0].nu[0] == 0.0
        assert net.layers[1].nu[0] == sizes[0]
        assert net.layers[1].d[-1, -1] == net.theta.size - 1
        blocks = [views.blocks() for views in net.paired(net.theta)]
        for layer, views in zip(net.layers, blocks):
            for name, arr in layer.blocks().items():
                assert np.array_equal(arr, views[name])

    def test_copy_is_independent(self):
        net = init_network(3, (5,), 2, seed=6)
        other = net.copy()
        assert np.array_equal(other.theta, net.theta)
        other.theta += 1.0
        assert not np.array_equal(other.theta, net.theta)
        assert np.array_equal(other.layers[0].nu, net.layers[0].nu + 1.0)


class TestNetworkShapeCheck:
    @pytest.mark.parametrize("block, shape", [
        ("theta_phase", (3,)), ("b_re", (4, 2)), ("c_im", (2, 5)),
        ("d", (2,))])
    def test_misshapen_layer_rejected(self, block, shape):
        """The named-block constructor checks every block against n =
        len(nu) and (p, m) = d.shape and names the block."""
        with pytest.raises(ContractViolationError, match=f"'{block}'"):
            replace_blocks(init_layer(3, 4, 2, seed=1),
                           **{block: np.zeros(shape)})

    @pytest.mark.parametrize("block, shape", [
        ("head", (11,)), ("b", (4, 2, 2)), ("b", (5, 3, 2)), ("w", (2,))])
    def test_misshapen_pair_block_rejected(self, block, shape):
        """The network checks every paired block against n = len(head)
        // 3 and (p, 2n + m) = w.shape and names the layer and the block:
        a b of the wrong input width or node count, a 1-D readout."""
        bad = replace(init_layer(3, 4, 2, seed=1), **{block: np.zeros(shape)})
        with pytest.raises(ContractViolationError,
                           match=f"layer 1 .*'{block}'"):
            LruNetwork([init_layer(3, 5, 3), bad])

    def test_no_layers_rejected(self):
        with pytest.raises(ContractViolationError, match="at least one layer"):
            LruNetwork([])

    def test_mischained_layers_rejected(self):
        with pytest.raises(ContractViolationError,
                           match="layer 0 output width 5 != layer 1 input "
                                 "width 3"):
            LruNetwork([init_layer(3, 4, 5), init_layer(3, 4, 2)])

    def test_blocks_cannot_be_swapped(self):
        """A built network's layers are frozen and held in a tuple, so no
        block can bypass the constructor's check."""
        net = init_network(3, (5, 4), 2, seed=6)
        with pytest.raises(FrozenInstanceError):
            net.layers[0].b_re = np.zeros((5, 2))
        with pytest.raises(TypeError):
            net.layers[1] = init_layer(5, 4, 3)


class TestPairedLayout:
    SHAPES = [(9, (16,), 5), (10, (16,), 5), (3, (5, 4), 2), (1, (1, 2, 3), 1)]

    @staticmethod
    def assert_alias_at_offsets(net, vec, layers):
        """Each layer's named blocks are views of vec: nu, theta_phase
        and gamma_log from the layer's offset, then b_re and b_im at the
        even and odd entries of one (n, m, 2) block, then the readout w
        (p, 2n + m), whose row i is c_re and c_im of output i at its even
        and odd entries, then row i of d; c2, the c pairs and d are views
        of w, and nu_phase is the [nu, theta_phase] columns."""
        vec[:] = np.arange(vec.size)
        start = 0
        for (n, m_k, p_k), layer in zip(net.dims, layers):
            offsets = {}
            for name, size in (("nu", n), ("theta_phase", n),
                               ("gamma_log", n), ("b", 2 * n * m_k),
                               ("w", p_k * (2 * n + m_k))):
                offsets[name] = start + np.arange(size)
                start += size
            b, w = offsets.pop("b"), offsets["w"].reshape(p_k, -1)
            offsets.update(b_re=b[0::2].reshape(n, m_k),
                           b_im=b[1::2].reshape(n, m_k),
                           w=w, c2=w[:, :2 * n],
                           c=w[:, :2 * n].reshape(p_k, n, 2),
                           c_re=w[:, :2 * n:2], c_im=w[:, 1:2 * n:2],
                           d=w[:, 2 * n:])
            views = dict(layer.blocks(), w=layer.w, c2=layer.c2, c=layer.c)
            for name, view in views.items():
                assert np.shares_memory(view, vec), name
                assert np.array_equal(view, offsets[name]), name
            assert np.shares_memory(layer.nu_phase, vec)
            assert np.array_equal(layer.nu_phase, np.stack(
                (offsets["nu"], offsets["theta_phase"]), axis=1))
        assert start == vec.size

    @pytest.mark.parametrize("shape", SHAPES)
    def test_blocks_alias_theta_at_paired_offsets(self, shape):
        """net.layers are views of theta at the paired offsets."""
        m, widths, p = shape
        net = init_network(m, widths, p, seed=1)
        self.assert_alias_at_offsets(net, net.theta, net.layers)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_gradient_and_moments_alias_at_paired_offsets(self, rng, shape):
        """net.paired(g) of a bptt_gradient result and of the Adam moments
        are views of it at the offsets of theta's layers."""
        m, widths, p = shape
        net = init_network(m, widths, p, seed=1)
        _, g = bptt_gradient(net, *random_batch(rng, net, T=5, batch=2))
        adam = AdamState.init(net.theta, lr=0.05)
        _Descent(net.theta, adam, None)(g)
        for vec in (g, adam.m, adam.v):
            self.assert_alias_at_offsets(net, vec, net.paired(vec))


class TestLayerConstants:
    @pytest.mark.parametrize("shape", TestPairedLayout.SHAPES)
    def test_complex_blocks_bitwise_the_sum(self, rng, shape):
        """The complex B and the readout [C2 | D] that the per-row kernel
        uses next to layer_constants are views of theta, equal to
        b_re + 1j * b_im, to c_re + 1j * c_im (as (re, im) pairs) and to d
        byte for byte, on initialised and on Adam-stepped parameters."""
        m, widths, p = shape
        net = init_network(m, widths, p, seed=int(rng.integers(1000)))
        kernels = [_LayerKernel(layer) for layer in net.layers]
        adam = AdamState.init(net.theta, lr=0.05)
        for _ in range(20):
            for layer, k in zip(net.layers, kernels):
                assert np.shares_memory(k.b, net.theta)
                assert np.shares_memory(k.w, net.theta)
                assert (k.b.tobytes()
                        == (layer.b_re + 1j * layer.b_im).tobytes())
                c2, d = np.split(k.w, [2 * layer.n], axis=1)
                assert (c2.view(np.complex128).tobytes()
                        == (layer.c_re + 1j * layer.c_im).tobytes())
                assert d.tobytes() == layer.d.tobytes()
            grads = rng.standard_normal(net.theta.size)
            grads[rng.random(grads.size) < 0.2] = 0.0
            _Descent(net.theta, adam, None)(grads)
