import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lru_online.errors import ConfigurationError, TrainingError
from lru_online.optim import (AdamState, AnchorConfig, adam_step,
                              anchor_distance, anchor_gradient,
                              apply_update, clip_global_norm, huber,
                              huber_grad, huber_values)


class TestHuber:
    def test_zero(self):
        assert huber(np.array([0.0])) == 0.0

    def test_quadratic_branch(self):
        assert huber(np.array([0.5]), delta=1.0) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert huber(np.array([2.0]), delta=1.0) == pytest.approx(1.5)

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            huber(np.array([1.0]), delta=0.0)

    @given(delta=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_c1_at_kink(self, delta):
        eps = 1e-9
        below = huber_values(np.array([delta - eps]), delta)[0]
        above = huber_values(np.array([delta + eps]), delta)[0]
        assert abs(above - below) < 1e-7 * max(delta, 1.0)
        g_below = (huber_values(np.array([delta]), delta)[0]
                   - huber_values(np.array([delta - 1e-6]), delta)[0]) / 1e-6
        g_above = (huber_values(np.array([delta + 1e-6]), delta)[0]
                   - huber_values(np.array([delta]), delta)[0]) / 1e-6
        assert abs(g_below - g_above) < 1e-4

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal(20) * 2
        g = huber_grad(r, delta=1.0)
        eps = 1e-7
        for i in range(20):
            rp = r.copy(); rp[i] += eps
            rm = r.copy(); rm[i] -= eps
            fd = (huber(rp) - huber(rm)) / (2 * eps)
            assert abs(g[i] - fd) < 1e-8


class TestClip:
    def test_under_threshold_unchanged(self):
        g = np.array([0.1, 0.2])
        out = clip_global_norm(g, 1.0)
        assert out is g

    def test_known_scaling(self):
        g = np.array([3.0, 4.0])
        out = clip_global_norm(g, 0.5)
        assert np.allclose(out, [0.3, 0.4])

    def test_post_clip_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.standard_normal(11)
            out = clip_global_norm(g, 0.7)
            assert (np.linalg.norm(out)
                    <= min(np.linalg.norm(g), 0.7) + 1e-12)

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, scale):
        rng = np.random.default_rng(7)
        g = rng.standard_normal(6) * scale
        once = clip_global_norm(g, 0.5)
        twice = clip_global_norm(once, 0.5)
        assert np.allclose(once, twice, rtol=1e-15)

    def test_none_disables(self):
        g = np.array([100.0])
        assert clip_global_norm(g, None) is g


class TestAdam:
    def test_zero_grad_no_move(self):
        theta = np.array([1.5])
        state = AdamState.init(theta, lr=0.1)
        adam_step(theta, np.array([0.0]), state)
        assert theta[0] == 1.5

    def test_first_step_magnitude(self):
        for g in (1e-3, 1.0, 1e3):
            theta = np.array([0.0])
            adam_step(theta, np.array([g]), AdamState.init(theta, lr=0.01))
            step = abs(theta[0])
            assert step <= 0.01 + 1e-12
            assert step >= 0.01 * g / (g + 1e-8) - 1e-12

    def test_quadratic_convergence(self):
        theta = np.array([1.0])
        state = AdamState.init(theta, lr=0.1)
        for _ in range(100):
            adam_step(theta, 2.0 * theta, state)
        assert abs(theta[0]) < 0.1

    def test_nonfinite_grad_rejected(self):
        theta = np.array([0.0])
        state = AdamState.init(theta)
        with pytest.raises(TrainingError):
            adam_step(theta, np.array([np.nan]), state)
        assert theta[0] == 0.0 and state.t == 0

    def test_deterministic(self):
        a, b = np.arange(4.0), np.arange(4.0)
        g = np.ones(4)
        adam_step(a, g, AdamState.init(a, lr=0.05))
        adam_step(b, g, AdamState.init(b, lr=0.05))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, np.arange(4.0))


class TestAnchor:
    def test_at_anchor_zero(self):
        cfg = AnchorConfig(theta_pre=np.array([2.0]), lambda_reg=0.5)
        g = anchor_gradient(np.array([2.0]), cfg)
        assert np.all(g == 0.0)

    def test_lambda_zero(self):
        cfg = AnchorConfig(theta_pre=np.array([0.0]), lambda_reg=0.0)
        g = anchor_gradient(np.array([5.0]), cfg)
        assert np.all(g == 0.0)

    def test_unit_vector_scaling(self):
        cfg = AnchorConfig(theta_pre=np.zeros(2), lambda_reg=0.1)
        g = anchor_gradient(np.array([3.0, 4.0]), cfg)
        assert np.allclose(g, [0.06, 0.08])

    def test_norm_equals_lambda(self):
        rng = np.random.default_rng(2)
        pre = rng.standard_normal(8)
        for lam in (0.001, 0.01, 0.1):
            cfg = AnchorConfig(theta_pre=pre, lambda_reg=lam)
            theta = pre + rng.standard_normal(8)
            assert np.linalg.norm(anchor_gradient(theta, cfg)) \
                == pytest.approx(lam)

    def test_squared_variant(self):
        cfg = AnchorConfig(theta_pre=np.zeros(2), lambda_reg=0.5,
                           squared=True)
        g = anchor_gradient(np.array([1.0, -2.0]), cfg)
        assert np.allclose(g, [1.0, -2.0])

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            AnchorConfig(theta_pre=np.array([0.0]), lambda_reg=-1.0)

    def test_fd_agreement(self):
        rng = np.random.default_rng(3)
        pre = rng.standard_normal(5)
        theta = rng.standard_normal(5)
        cfg = AnchorConfig(theta_pre=pre, lambda_reg=0.03)
        g = anchor_gradient(theta, cfg)
        eps = 1e-7

        def penalty(th):
            return cfg.lambda_reg * anchor_distance(th, cfg)

        for i in range(5):
            tp = theta.copy(); tp[i] += eps
            tm = theta.copy(); tm[i] -= eps
            fd = (penalty(tp) - penalty(tm)) / (2 * eps)
            assert abs(g[i] - fd) < 1e-6


class TestApplyUpdate:
    def test_anchor_then_clip_then_adam(self):
        rng = np.random.default_rng(4)
        pre = rng.standard_normal(6)
        grads = rng.standard_normal(6)
        before = grads.copy()
        anchor = AnchorConfig(theta_pre=pre, lambda_reg=0.3)
        theta = pre + rng.standard_normal(6)
        ref = theta.copy()
        state, ref_state = AdamState.init(theta), AdamState.init(theta)
        expect = clip_global_norm(grads + anchor_gradient(ref, anchor), 0.5)
        adam_step(ref, expect, ref_state)
        apply_update(theta, grads, state, 0.5, anchor)
        assert np.array_equal(theta, ref)
        assert np.array_equal(state.m, ref_state.m)
        assert np.array_equal(grads, before)
