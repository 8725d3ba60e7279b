import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from lru_online.errors import ConfigurationError, TrainingError
from lru_online.optim import (BETA1, BETA2, EPS, AdamState, AnchorConfig,
                              _Descent, _huber_loss_grad, anchor_distance,
                              anchor_gradient, clip_global_norm, huber,
                              huber_grad, huber_values)

# signed zeros, the kink and its neighbours, subnormals, residuals whose
# square overflows, infinities and NaNs of either sign
HUBER_EDGES = np.array([
    0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0),
    np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 0.5, -2.5,
    5e-324, -5e-324, 1.5e-323, np.finfo(np.float64).tiny, -1e-160, 1e-300,
    1.3e154, -1.4e154, 1e300, -1e300, np.inf, -np.inf, np.nan, -np.nan])


def two_branch_huber_values(r):
    """The formula huber_values had before the |r| form: both branches
    evaluated, one chosen by np.where."""
    a = np.abs(r)
    with np.errstate(over="ignore"):
        return np.where(a <= 1.0, 0.5 * r * r, a - 0.5)


def clip_huber_grad(r):
    """The Huber gradient as np.clip: psi(r) / count."""
    return np.clip(r, -1.0, 1.0) / r.size


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


class TestHuber:
    def test_zero(self):
        assert huber(np.array([0.0])) == 0.0

    def test_quadratic_branch(self):
        assert huber(np.array([0.5])) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert huber(np.array([2.0])) == pytest.approx(1.5)

    def test_c1_at_kink(self):
        """Value and slope are continuous at the kinks r = 1 and r = -1."""
        eps = 1e-9
        for k in (1.0, -1.0):
            below = huber_values(np.array([k - eps]))[0]
            above = huber_values(np.array([k + eps]))[0]
            assert abs(above - below) < 1e-7
            g_below = (huber_values(np.array([k]))[0]
                       - huber_values(np.array([k - 1e-6]))[0]) / 1e-6
            g_above = (huber_values(np.array([k + 1e-6]))[0]
                       - huber_values(np.array([k]))[0]) / 1e-6
            assert abs(g_below - g_above) < 1e-4

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal(20) * 2
        g = huber_grad(r)
        eps = 1e-7
        for i in range(20):
            rp = r.copy(); rp[i] += eps
            rm = r.copy(); rm[i] -= eps
            fd = (huber(rp) - huber(rm)) / (2 * eps)
            assert abs(g[i] - fd) < 1e-8

    def test_grad_propagates_nan(self):
        r = np.array([np.nan, 0.5, -3.0, np.inf, -np.inf])
        g = huber_grad(r)
        assert np.isnan(g[0])
        assert np.array_equal(g[1:], np.array([0.5, -1.0, 1.0, -1.0]) / 5)

    def test_grad_bitwise_equals_clip(self):
        """psi is np.clip(r, -1, 1), bitwise, signed zeros and NaNs
        included."""
        rng = np.random.default_rng(5)
        r = np.concatenate([rng.standard_normal(200) * 3,
                            [0.0, -0.0, np.nan, np.inf, -np.inf]])
        ref = np.clip(r, -1.0, 1.0) / r.size
        assert np.array_equal(huber_grad(r).view(np.int64),
                              ref.view(np.int64))

    @pytest.mark.parametrize("case", ["edges", "finite edges", "random"])
    def test_bitwise_equals_two_branch_formula(self, case):
        """huber_values, huber_grad and the one-pass (loss, gradient) are
        bitwise the two-branch values and the clipped gradient: signed
        zeros, subnormals, infinities and NaNs included."""
        r = {"edges": HUBER_EDGES,
             # a finite mean: no two values whose sum overflows
             "finite edges": HUBER_EDGES[np.abs(HUBER_EDGES) < 1e300],
             "random": np.random.default_rng(7).standard_normal(300) * 2
             }[case]
        values = two_branch_huber_values(r)
        grad = clip_huber_grad(r)
        loss = float(np.mean(values))
        assert np.array_equal(bits(huber_values(r)), bits(values))
        assert np.array_equal(bits(huber_grad(r)), bits(grad))
        assert bits(huber(r)) == bits(loss)
        work = r.copy()
        got_loss, got_grad = _huber_loss_grad(work)
        assert got_grad is work
        assert bits(got_loss) == bits(loss)
        assert np.array_equal(bits(got_grad), bits(grad))

    @pytest.mark.parametrize("case", [
        *[repr(float(r)) for r in (0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0),
                             np.nextafter(1.0, 0.0), 1e154, -1e154, 1.7e308,
                             -1.7e308, np.inf, -np.inf, np.nan)],
        "-nan", "random (p,)", "random (T, B, p)"])
    def test_loss_grad_is_huber_and_huber_grad(self, case):
        """The one-pass (loss, gradient) from the clipped residual is
        bitwise huber(r) and huber_grad(r) for each edge value alone (a
        NaN of either sign included: huber's loss NaN is positive) and
        for random residuals of a step and of a batch of windows.
        huber_values' +0.0 at r = -0.0 stays pinned by the two-branch
        test above."""
        rng = np.random.default_rng(3)
        r = {"random (p,)": rng.standard_normal(5) * 2,
             "random (T, B, p)": rng.standard_normal((16, 8, 5)) * 2,
             }.get(case)
        if r is None:
            r = np.array([float(case)])
        want_loss, want_grad = huber(r), huber_grad(r)
        loss, grad = _huber_loss_grad(r.copy())
        assert bits(loss) == bits(want_loss)
        assert np.array_equal(bits(grad), bits(want_grad))
        assert grad.shape == r.shape

    @pytest.mark.filterwarnings("error")
    def test_large_residuals_raise_no_warning(self):
        """No branch squares a residual, so one whose square overflows
        gives |r| - 0.5 with no overflow warning (an error here)."""
        big = np.array([1e300, -1e300, -np.finfo(np.float64).max])
        assert np.array_equal(huber_values(big), np.abs(big) - 0.5)
        assert np.array_equal(huber_grad(big), np.sign(big) / big.size)
        r = np.array([1e300, -1e300, np.inf, -np.inf])
        assert huber(r[:2]) == 1e300 - 0.5
        assert huber(r) == np.inf
        loss, grad = _huber_loss_grad(r.copy())
        assert loss == np.inf
        assert np.array_equal(grad, np.sign(r) / r.size)


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


def _random_vectors():
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 64, 578, 1041, 5000):
        for scale in (1e-6, 0.3, 1.0, 40.0):
            yield rng.standard_normal(size) * scale


class TestNormsBitwise:
    """The L2 norms are math.sqrt(x @ x), bitwise what np.linalg.norm
    gives for a flat float vector."""

    def test_clip_global_norm(self):
        for g in _random_vectors():
            norm = float(np.linalg.norm(g))
            for max_norm in (0.5 * norm, 2.0 * norm):
                ref = g if norm <= max_norm else g * (max_norm / norm)
                assert np.array_equal(clip_global_norm(g, max_norm), ref)

    def test_anchor_distance_and_gradient(self):
        rng = np.random.default_rng(12)
        for theta in _random_vectors():
            pre = theta + rng.standard_normal(theta.size) * 0.1
            anchor = AnchorConfig(theta_pre=pre, lambda_reg=0.03)
            norm = float(np.linalg.norm(theta - pre))
            assert anchor_distance(theta, anchor) == norm
            ref = (theta - pre) * (anchor.lambda_reg / norm)
            assert np.array_equal(anchor_gradient(theta, anchor), ref)


class TestAdam:
    def test_zero_grad_no_move(self):
        theta = np.array([1.5])
        state = AdamState.init(theta, lr=0.1)
        _Descent(theta, state, None)(np.array([0.0]))
        assert theta[0] == 1.5

    def test_first_step_magnitude(self):
        for g in (1e-3, 1.0, 1e3):
            theta = np.array([0.0])
            _Descent(theta, AdamState.init(theta, lr=0.01),
                     None)(np.array([g]))
            step = abs(theta[0])
            assert step <= 0.01 + 1e-12
            assert step >= 0.01 * g / (g + 1e-8) - 1e-12

    def test_quadratic_convergence(self):
        theta = np.array([1.0])
        state = AdamState.init(theta, lr=0.1)
        for _ in range(100):
            _Descent(theta, state, None)(2.0 * theta)
        assert abs(theta[0]) < 0.1

    def test_nonfinite_grad_rejected(self):
        theta = np.array([0.0])
        state = AdamState.init(theta)
        with pytest.raises(TrainingError):
            _Descent(theta, state, None)(np.array([np.nan]))
        assert theta[0] == 0.0 and state.t == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_grad_leaves_everything_unchanged(self, bad):
        """A rejected gradient leaves theta, m, v and t as they were, also
        after earlier steps have filled the moments."""
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(9)
        state = AdamState.init(theta, lr=0.05)
        for _ in range(3):
            _Descent(theta, state, None)(rng.standard_normal(9))
        before = (theta.copy(), state.m.copy(), state.v.copy(), state.t)
        grads = rng.standard_normal(9)
        grads[4] = bad
        with pytest.raises(TrainingError):
            _Descent(theta, state, None)(grads)
        assert np.array_equal(theta, before[0])
        assert np.array_equal(state.m, before[1])
        assert np.array_equal(state.v, before[2])
        assert state.t == before[3]

    def test_bitwise_equals_textbook_expression(self):
        """The buffered update's moments are bitwise the textbook
        recurrences, and its parameters, whose step folds the bias
        corrections into the step size and eps, are within
        tests/oracle.py's STREAM_BOUNDS of the one-line Adam expression."""
        rng = np.random.default_rng(9)
        theta = rng.standard_normal(50)
        ref = theta.copy()
        state = AdamState.init(theta, lr=0.01)
        m, v = np.zeros(50), np.zeros(50)
        b1, b2, eps, lr = BETA1, BETA2, EPS, state.lr
        for t in range(1, 30):
            g = rng.standard_normal(50) * 10.0 ** rng.integers(-3, 3)
            _Descent(theta, state, None)(g)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t))
                                               + eps)
            assert np.array_equal(state.m, m)
            assert np.array_equal(state.v, v)
            assert oracle.relative_error(theta, ref) <= (
                oracle.STREAM_BOUNDS["theta"])

    def test_deterministic(self):
        a, b = np.arange(4.0), np.arange(4.0)
        g = np.ones(4)
        _Descent(a, AdamState.init(a, lr=0.05), None)(g)
        _Descent(b, AdamState.init(b, lr=0.05), None)(g)
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

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            AnchorConfig(theta_pre=np.array([0.0]), lambda_reg=-1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ConfigurationError, match="lambda_reg"):
            AnchorConfig(theta_pre=np.array([0.0]), lambda_reg=lam)

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
        _Descent(ref, ref_state, None)(expect)
        _Descent(theta, state, 0.5, anchor)(grads)
        assert np.array_equal(theta, ref)
        assert np.array_equal(state.m, ref_state.m)
        assert np.array_equal(grads, before)

    @pytest.mark.parametrize("lambda_reg, clip", [
        (0.0, None), (0.0, 1e-3), (0.3, None), (0.3, 1e-3)])
    def test_never_writes_callers_gradient(self, lambda_reg, clip):
        rng = np.random.default_rng(6)
        pre = rng.standard_normal(6)
        theta = pre + rng.standard_normal(6)
        anchor = AnchorConfig(theta_pre=pre, lambda_reg=lambda_reg)
        state = AdamState.init(theta)
        for _ in range(3):
            grads = rng.standard_normal(6)
            before = grads.copy()
            _Descent(theta, state, clip, anchor)(grads)
            assert np.array_equal(grads, before)

    def test_given_distance_is_bitwise_the_computed_one(self):
        """A sequence of calls on one _Descent, which carries the anchor
        distance taken after the previous update into the next pull, is
        bitwise the same sequence of one-shot _Descent calls, which take
        it afresh: theta, Adam's m, v and t, and the distance. An
        anchor with and without the clip, a zero-lambda anchor and none."""
        cases = [(0.05, 0.5), (0.05, None), (0.0, 0.5), (None, None)]
        for lambda_reg, clip in cases:
            rng = np.random.default_rng(10)
            pre = rng.standard_normal(20)
            a, b = pre.copy(), pre.copy()
            anchor = None if lambda_reg is None else AnchorConfig(
                theta_pre=pre, lambda_reg=lambda_reg)
            sa, sb = AdamState.init(a, lr=0.02), AdamState.init(b, lr=0.02)
            descend = _Descent(b, sb, clip, anchor)
            for _ in range(25):
                grads = rng.standard_normal(20)
                _Descent(a, sa, clip, anchor)(grads)
                descend(grads)
                assert a.tobytes() == b.tobytes()
                assert sa.m.tobytes() == sb.m.tobytes()
                assert sa.v.tobytes() == sb.v.tobytes()
                assert sa.t == sb.t
                if anchor is not None:
                    assert descend.distance == anchor_distance(a, anchor)

    @pytest.mark.parametrize("clip", [None, 0.5])
    def test_finite_gradient_with_overflowing_norm_steps(self, clip):
        """A finite gradient whose squared norm overflows is not rejected:
        the step counts (t += 1) and equals a plain Adam step on the clipped
        gradient, as when every entry was checked before each step."""
        rng = np.random.default_rng(13)
        theta = rng.standard_normal(7)
        ref = theta.copy()
        state, ref_state = AdamState.init(theta), AdamState.init(theta)
        grads = rng.standard_normal(7)
        grads[[1, 4]] = [1e200, -3e190]
        with np.errstate(over="ignore"):
            assert not math.isfinite(grads @ grads)
            _Descent(theta, state, clip)(grads)
            _Descent(ref, ref_state, None)(clip_global_norm(grads, clip))
        assert state.t == 1
        assert theta.tobytes() == ref.tobytes()
        assert state.m.tobytes() == ref_state.m.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()

    def test_overflowing_norm_clips_to_max_norm(self):
        """A finite gradient whose squared norm overflows is clipped to
        max_norm (its norm taken on the gradient scaled by its largest
        entry), not scaled by max_norm / inf to zero: by clip_global_norm,
        and by _Descent, whose first Adam moment is (1 - beta1) times the
        gradient it stepped on."""
        grads = np.array([3e154, 4e154, 1.0])
        want = [0.3, 0.4, 1e-155]
        with np.errstate(over="ignore"):
            assert not math.isfinite(grads @ grads)
            got = clip_global_norm(grads, 0.5)
            theta = np.zeros(3)
            state = AdamState.init(theta)
            _Descent(theta, state, 0.5)(grads)
        np.testing.assert_allclose(got, want, rtol=1e-15)
        np.testing.assert_allclose(state.m / (1 - BETA1), want, rtol=1e-15)
        assert np.array_equal(grads, [3e154, 4e154, 1.0])

    @pytest.mark.parametrize("clip", [None, 0.5])
    @pytest.mark.parametrize("lambda_reg", [0.0, 0.2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_raises_and_writes_nothing(self, clip,
                                                          lambda_reg, bad):
        rng = np.random.default_rng(14)
        pre = rng.standard_normal(9)
        theta = pre + rng.standard_normal(9)
        anchor = AnchorConfig(theta_pre=pre, lambda_reg=lambda_reg)
        state = AdamState.init(theta, lr=0.05)
        for _ in range(3):
            _Descent(theta, state, clip, anchor)(rng.standard_normal(9))
        before = (theta.copy(), state.m.copy(), state.v.copy(), state.t)
        grads = rng.standard_normal(9)
        grads[5] = bad
        with pytest.raises(TrainingError):
            _Descent(theta, state, clip, anchor)(grads)
        assert theta.tobytes() == before[0].tobytes()
        assert state.m.tobytes() == before[1].tobytes()
        assert state.v.tobytes() == before[2].tobytes()
        assert state.t == before[3] == 3

    def test_nan_clip_rejected(self):
        """A NaN max_norm would turn the clipped gradient, and theta with
        it, into NaN: both entry points reject it and theta is untouched."""
        theta = np.zeros(3)
        with pytest.raises(ConfigurationError, match="max_norm"):
            clip_global_norm(np.ones(3), float("nan"))
        with pytest.raises(ConfigurationError, match="max_norm"):
            _Descent(theta, AdamState.init(theta), float("nan"))(np.ones(3))
        assert np.array_equal(theta, np.zeros(3))

    def test_invalid_clip_rejected(self):
        theta = np.zeros(3)
        for clip in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="max_norm"):
                _Descent(theta, AdamState.init(theta), clip)(np.ones(3))
