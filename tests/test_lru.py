from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracle
from lru_online.errors import ConfigurationError, ContractViolationError
from lru_online.lru import (LruLayerParams, LruNetwork, _linear_recurrence,
                            init_layer, init_network, layer_constants,
                            network_scan, network_step, scan_forward)
from lru_online.optim import AdamState, apply_update


def make_layer(nu, theta_phase, gamma_log, b_re, b_im, c_re, c_im, d):
    return LruLayerParams(*(np.asarray(a, dtype=np.float64)
                            for a in (nu, theta_phase, gamma_log,
                                      b_re, b_im, c_re, c_im, d)))


def step_one_layer(layer, h_prev, u):
    """One step of a single layer: network_step on the one-layer net."""
    states, y, _ = network_step(LruNetwork([layer]), [h_prev], u)
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
        lam = layer_constants(layer)[0][0]
        assert lam.real == pytest.approx(-np.exp(-1.0), abs=1e-15)
        assert lam.imag == pytest.approx(0.0, abs=1e-15)

    def test_large_nu_shrinks_magnitude(self):
        layer = make_layer([40.0], [0.0], [0.0],
                           [[1.0]], [[0.0]], [[1.0]], [[0.0]], [[0.0]])
        assert abs(layer_constants(layer)[0][0]) == 0.0

    @given(nu=arrays(np.float64, 8, elements=st.floats(-20, 20)),
           theta=arrays(np.float64, 8, elements=st.floats(-20, 5)))
    @settings(max_examples=200, deadline=None)
    def test_stability_by_construction(self, nu, theta):
        layer = make_layer(nu, theta, np.zeros(8),
                           np.zeros((8, 1)), np.zeros((8, 1)),
                           np.zeros((1, 8)), np.zeros((1, 8)),
                           np.zeros((1, 1)))
        assert np.all(np.abs(layer_constants(layer)[0]) < 1.0)


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
        return replace(init_layer(1, n, 1), nu=nu, theta_phase=theta_phase)

    def test_matches_oracle(self, rng):
        """Within 4 (1 + exp(nu) + exp(theta_phase)) eps of the oracle's,
        relative: rounding exp(nu) and exp(theta_phase) to float64 alone
        moves the exponent by (exp(nu) + exp(theta_phase)) eps."""
        layer = self.layer(rng)
        lam, _, _, _, dlam_dnu, dlam_dphase = layer_constants(layer)
        tol = 4 * np.finfo(np.float64).eps * (
            1 + np.exp(layer.nu) + np.exp(layer.theta_phase))
        for got, ref in zip((lam, dlam_dnu, dlam_dphase),
                            oracle.eigenvalues(layer.nu, layer.theta_phase)):
            assert np.all(np.abs(got - ref) <= tol * np.abs(ref))

    def test_derivatives_match_central_differences(self, rng):
        """Steps of 1e-4 (in nu divided by max(1, exp(nu))), within 1e-6
        of the derivative plus 1e-11 of lambda: the rounding of lambda
        over such a step, which the tiny derivative at the phase floor
        cannot outweigh."""
        layer = self.layer(rng)
        lam, _, _, _, dlam_dnu, dlam_dphase = layer_constants(layer)
        for name, want in (("nu", dlam_dnu), ("theta_phase", dlam_dphase)):
            x = getattr(layer, name)
            h = 1e-4 / np.maximum(1.0, np.exp(x)) if name == "nu" else 1e-4
            up = layer_constants(replace(layer, **{name: x + h}))[0]
            down = layer_constants(replace(layer, **{name: x - h}))[0]
            diff = (up - down) / ((x + h) - (x - h))
            assert np.all(np.abs(diff - want)
                          <= 1e-6 * np.abs(want) + 1e-11 * np.abs(lam)), name

    def test_inside_unit_circle(self, rng):
        """Also where exp(-exp(nu)) underflows to 0 (nu up to 10)."""
        lam = layer_constants(self.layer(rng, nu_high=10.0))[0]
        assert np.all(np.abs(lam) < 1.0)
        assert np.any(lam == 0.0)


class TestInitLayer:
    def test_degenerate_ring(self):
        layer = init_layer(2, 6, 3, r_min=0.5, r_max=0.5, seed=0)
        assert np.allclose(np.abs(layer_constants(layer)[0]), 0.5,
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
        gamma = layer_constants(layer)[1]
        assert np.all(gamma > np.sqrt(1 - 0.999 ** 2) - 1e-12)
        assert np.all(gamma < np.sqrt(1 - 0.9 ** 2) + 1e-12)

    def test_invalid_ring(self):
        with pytest.raises(ConfigurationError):
            init_layer(2, 4, 1, r_min=0.9, r_max=0.5)
        with pytest.raises(ConfigurationError):
            init_layer(2, 4, 1, r_min=0.0, r_max=0.5)

    def test_d_zero(self):
        assert np.all(init_layer(3, 4, 2, seed=1).d == 0.0)

    @pytest.mark.parametrize("widths", [(), (0,), (-1,), (4, 0)])
    def test_network_rejects_bad_widths(self, widths):
        """No layer, or a layer of width below 1, is a ConfigurationError
        naming layers, not a numpy error or a network of 0 nodes."""
        with pytest.raises(ConfigurationError, match="layers"):
            init_network(3, widths, 2)


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
        lam = layer_constants(layer)[0]
        gamma = layer_constants(layer)[1]
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
        layer = init_layer(3, 4, 2, seed=0)
        with pytest.raises(ContractViolationError):
            step_one_layer(layer, np.zeros(4, complex), np.zeros(5))
        with pytest.raises(ContractViolationError):
            step_one_layer(layer, np.zeros(3, complex), np.zeros(3))


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
        lam_max = np.abs(layer_constants(layer)[0]).max()
        gamma = layer_constants(layer)[1]
        row_sum = np.abs(layer.b_re + 1j * layer.b_im).sum(axis=1)
        bound = (gamma * row_sum).max() / (1.0 - lam_max)
        assert np.abs(h_seq).max() <= bound + 1e-9

    def test_batched_matches_loop(self, rng):
        layer = init_layer(2, 4, 2, seed=8)
        u = rng.standard_normal((3, 10, 2))
        h0 = np.zeros((3, 4), complex)
        h_seq, y_seq = scan_forward(layer, h0, u)
        for b in range(3):
            hb, yb = scan_forward(layer, h0[b], u[b])
            assert np.allclose(h_seq[b], hb) and np.allclose(y_seq[b], yb)


def sequential_recurrence(lam, x, h_0):
    """Reference: h_t = lam * h_{t-1} + x_t, one step at a time."""
    h = np.empty_like(x)
    prev = h_0
    for t in range(x.shape[-2]):
        prev = lam * prev + x[..., t, :]
        h[..., t, :] = prev
    return h


class TestLinearRecurrence:
    """The chunked primitive against a plain loop. T covers one and two
    steps, T just below, at and just above a square (the chunk length
    isqrt(T) steps up there and the tail after the last chunk is empty or
    one step) and a full 3601-step session."""

    @staticmethod
    def _case(rng, lead, T, mag, n=6):
        lam = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        x = (rng.standard_normal(lead + (T, n))
             + 1j * rng.standard_normal(lead + (T, n)))
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
        ref = sequential_recurrence(lam, x[..., ::-1, :], h_0)[..., ::-1, :]
        got = x.copy()
        _linear_recurrence(lam, got[..., ::-1, :], h_0)
        assert self._rel_err(got, ref) < 1e-12

    def test_zero_start_by_default(self, rng):
        lam, x, _ = self._case(rng, (2,), 40, 0.9)
        ref = sequential_recurrence(lam, x, np.zeros((2, 6), complex))
        assert self._rel_err(_linear_recurrence(lam, x.copy()), ref) < 1e-12


class TestNetworkForward:
    def test_transparent_second_layer(self, rng):
        first = init_layer(3, 4, 4, seed=2)
        second = diagonal_layer(4, lam=0.0)
        net = LruNetwork([first, second])
        u = rng.standard_normal(3)
        _, y, _ = network_step(net, net.zero_states(), u)
        _, y_first = step_one_layer(first, np.zeros(4, complex), u)
        assert np.allclose(y, y_first)

    def test_depth2_matches_unrolled(self, rng):
        net = init_network(3, (5, 4), 2, seed=6)
        u = rng.standard_normal((16, 3))
        states = net.zero_states()
        stepped = []
        for t in range(16):
            states, y, _ = network_step(net, states, u[t])
            stepped.append(y)
        _, _, preds = network_scan(net, u)
        assert np.allclose(preds, np.asarray(stepped), atol=1e-12)

    def test_state_count_mismatch(self):
        net = init_network(3, (5, 4), 2, seed=6)
        with pytest.raises(ContractViolationError):
            network_step(net, net.zero_states()[:1], np.zeros(3))

    def test_input_width_mismatch(self):
        net = init_network(3, (5, 4), 2, seed=6)
        with pytest.raises(ContractViolationError):
            network_step(net, net.zero_states(), np.zeros(4))

    def test_scan_from_states_matches_stepping(self, rng):
        """network_scan continues from given states, as network_step
        does, and leaves them as they were."""
        net = init_network(3, (5, 4), 2, seed=6)
        net.theta += 0.1 * rng.standard_normal(net.theta.size)  # D != 0
        u = rng.standard_normal((16, 3))
        start = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                 for n in (5, 4)]
        kept = [h.copy() for h in start]
        states, stepped = start, []
        for t in range(16):
            states, y, _ = network_step(net, states, u[t])
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
        states, u = net.zero_states(), np.zeros((7, 3))
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
        blocks = net.unflatten(net.theta)
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
        """The constructor checks every block against n = len(nu) and
        (p, m) = d.shape and names the layer and the block."""
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


class TestLayerConstants:
    @staticmethod
    def _check(net):
        for layer in net.layers:
            _, _, b_t, c_t, _, _ = layer_constants(layer)
            for got, ref in ((b_t, layer.b_re.T + 1j * layer.b_im.T),
                             (c_t, (layer.c_re + 1j * layer.c_im).T)):
                assert got.tobytes(order="A") == ref.tobytes(order="A")
                assert got.flags.f_contiguous and ref.flags.f_contiguous

    @pytest.mark.parametrize("shape", [(9, (16,), 5), (10, (16,), 5),
                                       (3, (5, 4), 2), (1, (1, 2, 3), 1)])
    def test_complex_blocks_bitwise_the_sum(self, rng, shape):
        """Complex B^T and C^T equal re + 1j * im byte for byte, memory
        order included, on initialised and on Adam-stepped parameters."""
        m, widths, p = shape
        net = init_network(m, widths, p, seed=int(rng.integers(1000)))
        self._check(net)
        adam = AdamState.init(net.theta, lr=0.05)
        for _ in range(20):
            grads = rng.standard_normal(net.theta.size)
            grads[rng.random(grads.size) < 0.2] = 0.0
            apply_update(net.theta, grads, adam, None)
            self._check(net)
