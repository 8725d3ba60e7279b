import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle

from lru_online import optim
from lru_online.errors import ConfigurationError, TrainingError
from lru_online.optim import (BETA1, BETA2, EPS, AdamState, _clip, _Descent,
                              _distance, _huber_grad, _huber_loss_grad, _pull,
                              huber, huber_values)

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


def pull(theta, pre, lambda_reg):
    """The anchor gradient as _Descent takes it: _distance, then _pull."""
    diff = np.empty_like(theta)
    return _pull(diff, lambda_reg, _distance(theta, pre, diff), diff,
                 np.empty(()))


def clipped(g, max_norm):
    """_clip of g at max_norm into a new array, its squared norm g @ g."""
    return _clip(g, g @ g, max_norm, None, np.empty(()))


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
        g = _huber_grad(r.copy())
        eps = 1e-7
        for i in range(20):
            rp = r.copy(); rp[i] += eps
            rm = r.copy(); rm[i] -= eps
            fd = (huber(rp) - huber(rm)) / (2 * eps)
            assert abs(g[i] - fd) < 1e-8

    def test_grad_propagates_nan(self):
        r = np.array([np.nan, 0.5, -3.0, np.inf, -np.inf])
        g = _huber_grad(r.copy())
        assert np.isnan(g[0])
        assert np.array_equal(g[1:], np.array([0.5, -1.0, 1.0, -1.0]) / 5)

    def test_grad_bitwise_equals_clip(self):
        """psi is np.clip(r, -1, 1), bitwise, signed zeros and NaNs
        included."""
        rng = np.random.default_rng(5)
        r = np.concatenate([rng.standard_normal(200) * 3,
                            [0.0, -0.0, np.nan, np.inf, -np.inf]])
        ref = np.clip(r, -1.0, 1.0) / r.size
        assert np.array_equal(_huber_grad(r.copy()).view(np.int64),
                              ref.view(np.int64))

    @pytest.mark.parametrize("size", range(1, 9))
    def test_count_divisor_is_bitwise_the_int_size(self, size):
        """Both kernels divide psi = min(max(r, -1), 1) by a read-only 0-d
        float64 count made once per size: bitwise psi / r.size, the Python
        int, for random residuals and for each with a NaN, +inf or -inf
        entry (the loss of a NaN row left aside)."""
        rng = np.random.default_rng(size)
        for bad in (None, np.nan, np.inf, -np.inf):
            r = rng.standard_normal(size) * 3
            if bad is not None:
                r[rng.integers(size)] = bad
            want = np.minimum(np.maximum(r, -1.0), 1.0) / r.size
            assert np.array_equal(bits(_huber_grad(r.copy())), bits(want))
            _, grad = _huber_loss_grad(r.copy())
            assert np.array_equal(bits(grad), bits(want))
        count = optim._COUNTS[size]
        assert count is optim._COUNTS[size]
        assert (count.shape, count.dtype, count.flags.writeable) == (
            (), np.float64, False)
        assert count == size

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
        assert np.array_equal(bits(_huber_grad(r.copy())), bits(grad))
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
        bitwise huber(r) and _huber_grad(r) for each edge value alone (a
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
        want_loss, want_grad = huber(r), _huber_grad(r.copy())
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
        assert np.array_equal(_huber_grad(big.copy()), np.sign(big) / big.size)
        r = np.array([1e300, -1e300, np.inf, -np.inf])
        assert huber(r[:2]) == 1e300 - 0.5
        assert huber(r) == np.inf
        loss, grad = _huber_loss_grad(r.copy())
        assert loss == np.inf
        assert np.array_equal(grad, np.sign(r) / r.size)


class TestClip:
    def test_under_threshold_unchanged(self):
        g = np.array([0.1, 0.2])
        out = clipped(g, 1.0)
        assert out is g

    def test_known_scaling(self):
        g = np.array([3.0, 4.0])
        out = clipped(g, 0.5)
        assert np.allclose(out, [0.3, 0.4])

    def test_post_clip_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = rng.standard_normal(11)
            out = clipped(g, 0.7)
            assert (np.linalg.norm(out)
                    <= min(np.linalg.norm(g), 0.7) + 1e-12)

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, scale):
        rng = np.random.default_rng(7)
        g = rng.standard_normal(6) * scale
        once = clipped(g, 0.5)
        twice = clipped(once, 0.5)
        assert np.allclose(once, twice, rtol=1e-15)


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
                assert np.array_equal(clipped(g, max_norm), ref)

    def test_anchor_distance_and_gradient(self):
        rng = np.random.default_rng(12)
        for theta in _random_vectors():
            pre = theta + rng.standard_normal(theta.size) * 0.1
            norm = float(np.linalg.norm(theta - pre))
            assert _distance(theta, pre, np.empty_like(theta)) == norm
            ref = (theta - pre) * (0.03 / norm)
            assert np.array_equal(pull(theta, pre, 0.03), ref)


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
        g = pull(np.array([2.0]), np.array([2.0]), 0.5)
        assert np.all(g == 0.0)

    def test_unit_vector_scaling(self):
        g = pull(np.array([3.0, 4.0]), np.zeros(2), 0.1)
        assert np.allclose(g, [0.06, 0.08])

    def test_norm_equals_lambda(self):
        rng = np.random.default_rng(2)
        pre = rng.standard_normal(8)
        for lam in (0.001, 0.01, 0.1):
            theta = pre + rng.standard_normal(8)
            assert np.linalg.norm(pull(theta, pre, lam)) \
                == pytest.approx(lam)

    def test_fd_agreement(self):
        rng = np.random.default_rng(3)
        pre = rng.standard_normal(5)
        theta = rng.standard_normal(5)
        g = pull(theta, pre, 0.03)
        eps = 1e-7

        def penalty(th):
            return 0.03 * _distance(th, pre, np.empty_like(th))

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
        theta = pre + rng.standard_normal(6)
        ref = theta.copy()
        state, ref_state = AdamState.init(theta), AdamState.init(theta)
        pulled = grads + pull(ref, pre, 0.3)
        expect = clipped(pulled, 0.5)
        _Descent(ref, ref_state, None)(expect)
        _Descent(theta, state, 0.5, pre, 0.3)(grads)
        assert np.array_equal(theta, ref)
        assert np.array_equal(state.m, ref_state.m)
        assert np.array_equal(grads, before)

    @pytest.mark.parametrize("lambda_reg, clip", [
        (0.0, None), (0.0, 1e-3), (0.3, None), (0.3, 1e-3)])
    def test_never_writes_callers_gradient(self, lambda_reg, clip):
        rng = np.random.default_rng(6)
        pre = rng.standard_normal(6)
        theta = pre + rng.standard_normal(6)
        state = AdamState.init(theta)
        for _ in range(3):
            grads = rng.standard_normal(6)
            before = grads.copy()
            _Descent(theta, state, clip, pre, lambda_reg)(grads)
            assert np.array_equal(grads, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sq_is_the_pre_clip_squared_norm(self, bad):
        """sq is g @ g of the gradient plus the pull, taken before the
        clip scales it; after a TrainingError it is NaN, also when the
        bad entry is an inf (whose squares sum to inf, not NaN)."""
        rng = np.random.default_rng(8)
        pre = rng.standard_normal(6)
        theta = pre + rng.standard_normal(6)
        descend = _Descent(theta, AdamState.init(theta), 1e-3, pre, 0.3)
        assert math.isnan(descend.sq)
        grads = rng.standard_normal(6)
        total = grads + pull(theta, pre, 0.3)
        descend(grads)
        assert descend.sq == total @ total > 1e-3 ** 2
        grads[2] = bad
        with pytest.raises(TrainingError):
            descend(grads)
        assert math.isnan(descend.sq)

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
            anchor = () if lambda_reg is None else (pre, lambda_reg)
            sa, sb = AdamState.init(a, lr=0.02), AdamState.init(b, lr=0.02)
            descend = _Descent(b, sb, clip, *anchor)
            for _ in range(25):
                grads = rng.standard_normal(20)
                _Descent(a, sa, clip, *anchor)(grads)
                descend(grads)
                assert a.tobytes() == b.tobytes()
                assert sa.m.tobytes() == sb.m.tobytes()
                assert sa.v.tobytes() == sb.v.tobytes()
                assert sa.t == sb.t
                if anchor:
                    assert descend.distance == _distance(
                        a, pre, np.empty_like(a))

    @pytest.mark.parametrize("clip", [None, 0.5])
    def test_bitwise_the_python_float_form(self, clip):
        """The update with its 0-d scalar operands is bitwise the same
        formulas written with Python-float scalars: the pull diff *
        (lambda / distance), the clip g * (max_norm / |g|), the textbook m
        and v and theta -= m / (sqrt(v) + eps sqrt(c2)) * (lr sqrt(c2) /
        c1), over 30 updates of theta, m and v."""
        rng = np.random.default_rng(16)
        pre = rng.standard_normal(40)
        theta, ref = pre + 0.1, pre + 0.1
        state = AdamState.init(theta, lr=0.02)
        m, v = np.zeros(40), np.zeros(40)
        descend = _Descent(theta, state, clip, pre, 0.3)
        for t in range(1, 31):
            grads = rng.standard_normal(40)
            diff = ref - pre
            g = diff * (0.3 / math.sqrt(diff @ diff)) + grads
            norm = math.sqrt(g @ g)
            if clip is not None and norm > clip:
                g = g * (clip / norm)
            m = m * BETA1 + g * (1 - BETA1)
            v = v * BETA2 + g * (1 - BETA2) * g
            root_c2 = math.sqrt(1 - BETA2 ** t)
            ref -= m / (np.sqrt(v) + EPS * root_c2) * (
                0.02 * root_c2 / (1 - BETA1 ** t))
            descend(grads)
            assert theta.tobytes() == ref.tobytes()
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()

    def test_interleaved_updates_share_no_scratch(self):
        """Two _Descents with different clips and anchors, each on its own
        parameters and gradients, called in turn give byte for byte
        theta, Adam's m and v and the anchor distance of each run alone:
        every per-update factor lives in its own _Descent."""
        rng = np.random.default_rng(15)
        setups = [(0.5, 0.05), (None, 0.3)]   # (clip, lambda_reg)
        pres = [rng.standard_normal(20) for _ in setups]
        grads = [rng.standard_normal((25, 20)) for _ in setups]

        def run(which):
            runs = {}
            for k in which:
                theta = pres[k] + 0.1
                state = AdamState.init(theta, lr=0.02)
                clip, lambda_reg = setups[k]
                runs[k] = (theta, state, _Descent(theta, state, clip,
                                                  pres[k], lambda_reg))
            logs = {k: [] for k in which}
            for t in range(25):
                for k, (theta, state, descend) in runs.items():
                    descend(grads[k][t])
                    logs[k] += [theta.tobytes(), state.m.tobytes(),
                                state.v.tobytes(), descend.distance]
            return logs

        assert run([0, 1]) == {**run([0]), **run([1])}

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
            _Descent(ref, ref_state, None)(
                grads if clip is None else clipped(grads, clip))
        assert state.t == 1
        assert theta.tobytes() == ref.tobytes()
        assert state.m.tobytes() == ref_state.m.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()

    def test_overflowing_norm_clips_to_max_norm(self):
        """A finite gradient whose squared norm overflows is clipped to
        max_norm (its norm taken on the gradient scaled by its largest
        entry), not scaled by max_norm / inf to zero: by _clip, and by
        _Descent, whose first Adam moment is (1 - beta1) times the
        gradient it stepped on."""
        grads = np.array([3e154, 4e154, 1.0])
        want = [0.3, 0.4, 1e-155]
        with np.errstate(over="ignore"):
            assert not math.isfinite(grads @ grads)
            got = clipped(grads, 0.5)
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
        state = AdamState.init(theta, lr=0.05)
        for _ in range(3):
            _Descent(theta, state, clip, pre, lambda_reg)(
                rng.standard_normal(9))
        before = (theta.copy(), state.m.copy(), state.v.copy(), state.t)
        grads = rng.standard_normal(9)
        grads[5] = bad
        with pytest.raises(TrainingError):
            _Descent(theta, state, clip, pre, lambda_reg)(grads)
        assert theta.tobytes() == before[0].tobytes()
        assert state.m.tobytes() == before[1].tobytes()
        assert state.v.tobytes() == before[2].tobytes()
        assert state.t == before[3] == 3

    def test_nan_clip_rejected(self):
        """A NaN max_norm would turn the clipped gradient, and theta with
        it, into NaN: _Descent rejects it and theta is untouched."""
        theta = np.zeros(3)
        with pytest.raises(ConfigurationError, match="max_norm"):
            _Descent(theta, AdamState.init(theta), float("nan"))(np.ones(3))
        assert np.array_equal(theta, np.zeros(3))

    def test_invalid_clip_rejected(self):
        theta = np.zeros(3)
        for clip in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="max_norm"):
                _Descent(theta, AdamState.init(theta), clip)(np.ones(3))
