import numpy as np
import pytest

from conftest import finite_difference_grads, max_rel_error, random_batch, \
    small_random_net
from lru_online.bptt import (TrainConfig, _scan_sessions, _WindowSampler,
                             bptt_gradient, evaluate, sample_windows, train)
from lru_online.checkpoint import Checkpoint
from lru_online.datapipe import SequenceData
from lru_online.errors import (CompatibilityError, ConfigurationError,
                               ContractViolationError, TrainingError)
from lru_online import bptt, lru
from lru_online.harness import PretrainConfig, cmd_evaluate
from lru_online.lru import init_network
from lru_online.optim import huber
from lru_online.rtrl import window_gradient


def make_data(session_lengths, m=3, p=2, seed=0):
    rng = np.random.default_rng(seed)
    n = sum(session_lengths)
    sids = np.concatenate([np.full(L, i, dtype=np.int64)
                           for i, L in enumerate(session_lengths)])
    return SequenceData(features=rng.standard_normal((n, m)),
                        targets=rng.standard_normal((n, p)),
                        session_ids=sids,
                        timestamps=np.arange(n, dtype=np.float64))


def empty_data(m=3, p=2):
    return SequenceData(features=np.empty((0, m)), targets=np.empty((0, p)),
                        session_ids=np.empty(0, dtype=np.int64),
                        timestamps=np.empty(0))


def sample_windows_reference(data, T, batch, rng):
    """The per-window copy loop sample_windows replaced (same draws),
    time first."""
    sessions = list(dict.fromkeys(data.session_ids.tolist()))
    rows = [np.flatnonzero(data.session_ids == s) for s in sessions]
    spans = [(r[0], r.size - T + 1) for r in rows]
    cum = np.cumsum([c for _, c in spans])
    draws = rng.integers(0, cum[-1], size=batch)
    which = np.searchsorted(cum, draws, side="right")
    inputs = np.empty((T, batch, data.features.shape[1]))
    targets = np.empty((T, batch, data.targets.shape[1]))
    for b in range(batch):
        s = which[b]
        start = spans[s][0] + (draws[b] - (cum[s - 1] if s else 0))
        inputs[:, b] = data.features[start:start + T]
        targets[:, b] = data.targets[start:start + T]
    return inputs, targets


class TestSampleWindows:
    @pytest.mark.parametrize("lengths, T", [([10], 10), ([100, 50], 20),
                                            ([30, 7, 64, 12], 7)])
    def test_matches_per_window_loop(self, lengths, T):
        data = make_data(lengths, seed=len(lengths))
        got = sample_windows(data, T, 64, np.random.default_rng(5))
        want = sample_windows_reference(data, T, 64,
                                        np.random.default_rng(5))
        for a, b in zip(got, want, strict=True):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_batch_views_time_first_memory(self):
        """Sampled inputs and targets are C-contiguous float64 (T, batch,
        ·) arrays: the layout bptt_gradient runs on."""
        data = make_data([30, 7, 64, 12])
        inputs, targets = sample_windows(data, 7, 16, rng=2)
        for a, width in ((inputs, 3), (targets, 2)):
            assert a.shape == (7, 16, width)
            assert a.flags.c_contiguous and a.dtype == np.float64

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gather_is_fancy_index_and_not_copied_again(self, order,
                                                        monkeypatch):
        """Every draw of a seeded sampler run is the fancy-index gather
        data.features[rows] / data.targets[rows] of its (T, batch) window
        rows, whatever the layout of the data's arrays, in C-contiguous
        time-first memory, and is the very array bptt_gradient's forward
        scan receives."""
        data = make_data([30, 7, 64, 12], seed=3)
        data.features = np.asarray(data.features, order=order)
        data.targets = np.asarray(data.targets, order=order)
        T, B = 7, 16
        sample = _WindowSampler(data, T)
        rng, mirror = np.random.default_rng(8), np.random.default_rng(8)
        net = init_network(3, (4,), 2, seed=0)
        scanned = []
        original = lru.scan_forward

        def recording(params, h_0, u_seq):
            scanned.append(u_seq)
            return original(params, h_0, u_seq)

        monkeypatch.setattr(lru, "scan_forward", recording)
        for _ in range(5):
            inputs, targets = sample(B, rng)
            draws = mirror.integers(0, sample.cum[-1], size=B)
            which = np.searchsorted(sample.cum, draws, side="right")
            rows = np.arange(T)[:, None] + draws + sample.offset[which]
            for got, table in ((inputs, data.features),
                               (targets, data.targets)):
                assert np.array_equal(got, table[rows])
                assert got.flags.c_contiguous
            scanned.clear()
            bptt_gradient(net, inputs, targets)
            assert scanned[0] is inputs

    def test_train_draws_successive_sample_windows(self, monkeypatch):
        """train() samples through one sampler built per run; the windows
        its gradient gets are those of successive sample_windows calls on
        one generator seeded with cfg.seed, and no two steps' are equal."""
        data = make_data([30, 7, 64, 12])
        net = init_network(3, (4,), 2, seed=0)
        seen = []

        def gradient(net, inputs, targets):
            seen.append((inputs, targets))
            return 0.0, np.zeros_like(net.theta)

        monkeypatch.setattr(bptt, "bptt_gradient", gradient)
        cfg = TrainConfig(steps=6, batch=16, window=7, seed=11)
        train(net, data, None, cfg)
        rng = np.random.default_rng(cfg.seed)
        assert len(seen) == cfg.steps
        for got in seen:
            want = sample_windows(data, 7, 16, rng)
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape and np.array_equal(a, b)
        for i in range(1, cfg.steps):
            assert not np.array_equal(seen[i][0], seen[i - 1][0])

    def test_train_rejects_too_long_window_before_any_step(self,
                                                           monkeypatch):
        net = init_network(3, (4,), 2, seed=0)
        steps = []

        def gradient(*args):
            steps.append(args)
            return 0.0, np.zeros_like(net.theta)

        monkeypatch.setattr(bptt, "bptt_gradient", gradient)
        with pytest.raises(ConfigurationError, match="session 1"):
            train(net, make_data([100, 30]), None,
                  TrainConfig(steps=3, batch=2, window=50))
        assert steps == []

    def test_single_possible_window(self):
        data = make_data([10])
        inputs, targets = sample_windows(data, T=10, batch=4, rng=0)
        for b in range(4):
            assert np.array_equal(inputs[:, b], data.features)
            assert np.array_equal(targets[:, b], data.targets)

    def test_deterministic_given_seed(self):
        data = make_data([100, 50])
        a = sample_windows(data, 20, 8, rng=7)
        b = sample_windows(data, 20, 8, rng=7)
        for x, y in zip(a, b, strict=True):
            assert np.array_equal(x, y)

    def test_window_too_long_names_session(self):
        data = make_data([100, 30])
        with pytest.raises(ConfigurationError, match="session 1"):
            sample_windows(data, 50, 4, rng=0)

    def test_empty_data_rejected(self):
        with pytest.raises(ContractViolationError, match="no rows"):
            sample_windows(empty_data(), 1, 4, rng=0)

    @pytest.mark.parametrize("T", [0, -3])
    def test_window_length_below_one_rejected(self, T):
        """A window of no rows is a ConfigurationError when the run's
        sampler is built, not empty windows or an IndexError."""
        data = make_data([10])
        with pytest.raises(ConfigurationError, match="window length"):
            _WindowSampler(data, T)
        with pytest.raises(ConfigurationError, match="window length"):
            sample_windows(data, T, 4, rng=0)

    @pytest.mark.parametrize("batch", [0, -1])
    def test_batch_below_one_rejected(self, batch):
        with pytest.raises(ConfigurationError, match="batch"):
            sample_windows(make_data([10]), 5, batch, rng=0)

    def test_session_frequency_proportional_to_windows(self):
        """Feature 0 encodes the session id, so a window's first row names
        its session; 100 draws of 1000 windows on one generator."""
        data = make_data([1000, 3000])
        data.features[:, 0] = data.session_ids
        T = 200
        rng = np.random.default_rng(0)
        first_rows = [sample_windows(data, T, 1000, rng)[0][0, :, 0]
                      for _ in range(100)]
        frac = np.mean(np.concatenate(first_rows) == 1)
        expect = (3000 - 199) / ((1000 - 199) + (3000 - 199))
        assert abs(frac - expect) / expect < 0.02

    def test_windows_stay_in_session(self):
        data = make_data([60, 60], seed=1)
        # make the features encode the session id so crossings are visible
        data.features[:, 0] = data.session_ids
        inputs, _ = sample_windows(data, 30, 64, rng=3)
        for b in range(64):
            assert len(np.unique(inputs[:, b, 0])) == 1


class TestBpttGradient:
    def test_perfect_predictions_zero(self):
        net = init_network(2, (4,), 1, seed=0)
        inputs = np.zeros((10, 1, 2))
        targets = np.zeros((10, 1, 1))
        loss, grads = bptt_gradient(net, inputs, targets)
        assert loss == 0.0
        assert grads.shape == net.theta.shape and np.all(grads == 0)

    def test_sampled_layout_and_copy_agree_bitwise(self):
        """Sampled windows (C-contiguous, run as they are) and the same
        windows as time-first views of a (batch, T, ·) copy (copied once)
        give bitwise the same loss and gradient."""
        data = make_data([30, 7, 64, 12])
        net = init_network(3, (4, 3), 2, seed=1)
        inputs, targets = sample_windows(data, 7, 16, rng=4)
        views = [np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)
                 for a in (inputs, targets)]
        assert not views[0].flags.c_contiguous
        loss, grads = bptt_gradient(net, inputs, targets)
        loss_c, grads_c = bptt_gradient(net, *views)
        assert loss == loss_c
        assert np.array_equal(grads, grads_c)

    def test_forward_pass_is_scan_forward(self, monkeypatch):
        """The forward pass is network_scan: one lru.scan_forward per layer
        on the time-first (T, batch, m) windows, the call the benchmark's
        training-scan figures trace."""
        calls = []
        original = lru.scan_forward

        def counting(params, h_0, u_seq):
            calls.append(np.shape(u_seq))
            return original(params, h_0, u_seq)

        monkeypatch.setattr(lru, "scan_forward", counting)
        data = make_data([30, 7, 64, 12])
        net = init_network(3, (4, 3), 2, seed=1)
        bptt_gradient(net, *sample_windows(data, 7, 16, rng=4))
        assert calls == [(7, 16, 3), (7, 16, 4)]

    def test_nonfinite_loss_names_batch_entries(self, rng):
        net = init_network(3, (4,), 2, seed=0)
        inputs, targets = random_batch(rng, net, T=6, batch=4)
        targets[2, 1, 0] = np.nan
        targets[5, 3, 1] = -np.inf
        with pytest.raises(TrainingError, match=r"batch entries \[1, 3\]"):
            bptt_gradient(net, inputs, targets)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_residual_names_batch_entries(self, rng):
        """The error names the batch entries whose residual is not finite,
        whose memory the gradient has overwritten by then: a non-finite
        target (entry 0), a finite target that the prediction's
        difference overflows (entry 1: neither it nor the gradient, psi /
        count, is non-finite there) and a NaN input feature that makes
        the prediction non-finite from its step on (entry 3)."""
        net = init_network(3, (4, 3), 2, seed=0)
        inputs, targets = random_batch(rng, net, T=6, batch=5)
        inputs[4, 1] = 1e300
        pred = lru.network_scan(net, inputs)[2][4, 1, 0]
        assert 1e290 < abs(pred) < np.inf
        targets[4, 1, 0] = -np.copysign(np.finfo(np.float64).max, pred)
        targets[5, 0, 1] = np.nan
        inputs[2, 3, 1] = np.nan
        with pytest.raises(TrainingError,
                           match=r"batch entries \[0, 1, 3\]$"):
            bptt_gradient(net, inputs, targets)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_loss_with_finite_residuals(self, rng):
        """Two finite residuals of 1.7e308 overflow the Huber sum: the
        error says so instead of naming no batch entry."""
        net = init_network(3, (4,), 2, seed=0)
        inputs, targets = random_batch(rng, net, T=6, batch=4)
        targets[1, 0, 0] = targets[3, 2, 1] = 1.7e308
        with pytest.raises(TrainingError,
                           match="loss overflowed with every residual "
                                 "finite"):
            bptt_gradient(net, inputs, targets)

    @pytest.mark.parametrize("p", [1, 3])
    def test_target_width_mismatch_rejected(self, rng, p):
        """Targets that are not one row of the output width per input row
        would broadcast into the residual (1 column) or fail inside numpy
        (3 columns); both are a ContractViolationError."""
        net = init_network(3, (4,), 2, seed=0)
        with pytest.raises(ContractViolationError, match="target"):
            bptt_gradient(net, rng.standard_normal((10, 2, 3)),
                          rng.standard_normal((10, 2, p)))

    def test_input_width_mismatch_rejected(self, rng):
        net = init_network(3, (4,), 2, seed=0)
        with pytest.raises(ContractViolationError, match="input"):
            bptt_gradient(net, rng.standard_normal((10, 2, 4)),
                          rng.standard_normal((10, 2, 2)))

    def test_finite_differences_depth1(self, rng):
        net = small_random_net(rng, m=3, n=6, p=2)
        inputs, targets = random_batch(rng, net, T=50)
        _, grads = bptt_gradient(net, inputs, targets)
        fd = finite_difference_grads(net, inputs, targets)
        assert max_rel_error(grads, fd, floor=1e-6) < 1e-4

    def test_finite_differences_depth2(self, rng):
        net = small_random_net(rng, m=2, n=4, p=2, depth=2)
        inputs, targets = random_batch(rng, net, T=20)
        _, grads = bptt_gradient(net, inputs, targets)
        fd = finite_difference_grads(net, inputs, targets)
        assert max_rel_error(grads, fd, floor=1e-6) < 1e-4

    def test_finite_differences_depth2_ragged_chunks(self, rng):
        """T = 23 is 5 chunks of isqrt(23) = 4 steps plus a 3-step tail, in
        the forward scan and in the reversed adjoint."""
        net = small_random_net(rng, m=2, n=4, p=2, depth=2)
        inputs, targets = random_batch(rng, net, T=23, batch=2)
        _, grads = bptt_gradient(net, inputs, targets)
        fd = finite_difference_grads(net, inputs, targets)
        assert max_rel_error(grads, fd, floor=1e-6) < 1e-4

    @staticmethod
    def _assert_mean_of_singles(net, inputs, targets):
        loss, grads = bptt_gradient(net, inputs, targets)
        singles = [bptt_gradient(net, inputs[:, b:b + 1], targets[:, b:b + 1])
                   for b in range(inputs.shape[1])]
        assert loss == pytest.approx(np.mean([s[0] for s in singles]))
        mean = np.mean([s[1] for s in singles], axis=0)
        assert np.allclose(grads, mean, atol=1e-12)

    def test_batch_reduction_matches_mean_of_singles(self, rng):
        net = small_random_net(rng, m=3, n=5, p=2)
        self._assert_mean_of_singles(net, *random_batch(rng, net, T=16,
                                                        batch=4))

    def test_step_loop_batch_matches_mean_of_singles(self, rng):
        """A batch of 32 windows at n = 8 runs both recurrences of both
        layers as plain step loops over 256 entries per step, and each
        single window as a step loop over 8. The batch and its windows
        meet in the mean."""
        net = small_random_net(rng, m=3, n=8, p=2, depth=2)
        self._assert_mean_of_singles(net, *random_batch(
            rng, net, T=40, batch=32))

    def test_finite_differences_step_loop(self, rng):
        """The finite-difference check on a depth-2 batch of 32 windows,
        whose forward scans and adjoints run as plain step loops."""
        net = small_random_net(rng, m=2, n=8, p=2, depth=2)
        inputs, targets = random_batch(rng, net, T=20, batch=32)
        _, grads = bptt_gradient(net, inputs, targets)
        fd = finite_difference_grads(net, inputs, targets)
        assert max_rel_error(grads, fd, floor=1e-6) < 1e-4

    def test_depth2_rtrl_gap_pinned(self):
        """Depth-2 RTRL drops the cross-layer temporal terms, so on the
        lower layer it only approximates BPTT. Pin the per-block cosine
        just below its current value on a fixed 200-step window so that
        the gap cannot silently widen; the top layer is exact."""
        net = init_network(4, (8, 8), 3, r_min=0.4, r_max=0.95, seed=0)
        inputs, targets = random_batch(np.random.default_rng(0), net, T=200)
        _, g_bptt = bptt_gradient(net, inputs, targets)
        _, g_rtrl = window_gradient(net, inputs[:, 0], targets[:, 0])
        lower_b, top_b = [v.blocks() for v in net.paired(g_bptt)]
        lower_r, top_r = [v.blocks() for v in net.paired(g_rtrl)]
        floor = {"nu": 0.90, "theta_phase": 0.98, "gamma_log": 0.82,
                 "b_re": 0.90, "b_im": 0.64, "c_re": 0.82, "c_im": 0.83,
                 "d": 0.70}
        for name, bound in floor.items():
            a, b = lower_b[name].ravel(), lower_r[name].ravel()
            cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cos > bound, (name, cos)
            assert max_rel_error(top_r[name], top_b[name], floor=1e-6) < 1e-8


class TestTrain:
    @pytest.mark.parametrize("field", ["steps", "batch", "window",
                                       "eval_every"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_sizes_rejected(self, field, value):
        for cls in (TrainConfig, PretrainConfig):
            with pytest.raises(ConfigurationError, match=field):
                cls(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("lr", -0.01), ("lr", float("nan")), ("lr", float("inf")),
        ("clip", 0.0), ("clip", -1.0), ("clip", float("nan")),
        ("seed", -1)])
    def test_invalid_lr_and_clip_rejected(self, field, value):
        """A negative, NaN or infinite lr and a clip that is not > 0 are
        rejected, as FinetuneConfig rejects them, and so is a negative
        seed, before any step can run."""
        for cls in (TrainConfig, PretrainConfig):
            with pytest.raises(ConfigurationError, match=field):
                cls(**{field: value})

    @pytest.mark.parametrize("field", ["steps", "batch", "window",
                                       "eval_every", "seed"])
    def test_non_integer_counts_rejected(self, field):
        """A count or seed that is a float (integral or not), a bool or a
        string is a ConfigurationError naming the field when the config
        is built, by the integer rule of layer widths; a numpy integer
        is valid."""
        for cls in (TrainConfig, PretrainConfig):
            for value in (2.5, 8.0, True, np.True_, "3"):
                with pytest.raises(ConfigurationError, match=field):
                    cls(**{field: value})
            assert getattr(cls(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("layers", [(), (0,), (-1,), (4, 0)])
    def test_bad_layer_widths_rejected(self, layers):
        """No width, or a width below 1, is a ConfigurationError naming
        layers when the config is built, before any data is touched."""
        with pytest.raises(ConfigurationError, match="layers"):
            PretrainConfig(layers=layers)

    def test_stop_before_first_validation_reports_nan(self):
        """Training that stops before its first validation (all-NaN
        features diverge on step 1, validation every 3 steps) reports
        best_val_loss NaN, as it does without validation data, and keeps
        the initial parameters."""
        net = init_network(3, (4,), 2, seed=0)
        data = make_data([60])
        data.features[...] = np.nan
        cfg = TrainConfig(steps=6, batch=2, window=10, eval_every=3)
        result = train(net, data, make_data([40], seed=1), cfg)
        assert result.diverged and result.loss_curve == []
        assert np.isnan(result.best_val_loss)
        assert np.array_equal(result.net.theta, net.theta)

    def test_lr_zero_leaves_params_bitwise(self):
        net = init_network(3, (4,), 2, seed=0)
        data = make_data([80])
        result = train(net, data, None, TrainConfig(steps=5, batch=2,
                                                    window=10, lr=0.0))
        assert np.array_equal(result.net.theta, net.theta)

    def test_learnable_task_improves(self):
        # constant-target task: loss must drop
        rng = np.random.default_rng(0)
        n = 400
        data = SequenceData(features=rng.standard_normal((n, 2)),
                            targets=np.full((n, 1), 0.7),
                            session_ids=np.zeros(n, dtype=np.int64),
                            timestamps=np.arange(n, dtype=np.float64))
        net = init_network(2, (4,), 1, seed=1)
        cfg = TrainConfig(steps=500, batch=8, window=20, lr=1e-2,
                          eval_every=100)
        result = train(net, data, data, cfg)
        first = result.loss_curve[0][1]
        last = result.loss_curve[-1][1]
        assert last < first

    def test_reproducible_loss_curve(self):
        net = init_network(3, (4,), 2, seed=3)
        data = make_data([120])
        cfg = TrainConfig(steps=20, batch=4, window=16, seed=9, eval_every=5)
        a = train(net.copy(), data, data, cfg)
        b = train(net.copy(), data, data, cfg)
        assert np.allclose(a.loss_curve, b.loss_curve, rtol=0, atol=0,
                           equal_nan=True)
        assert np.array_equal(a.net.theta, b.net.theta)


class TestEvaluate:
    def test_zero_error(self):
        net = init_network(2, (4,), 1, seed=0)
        data = make_data([30], m=2, p=1)
        from lru_online.lru import network_scan
        _, _, preds = network_scan(net, data.features)
        data.targets = preds
        assert evaluate(net, data) == 0.0

    def test_empty_data_rejected(self):
        net = init_network(2, (4,), 1, seed=0)
        with pytest.raises(ContractViolationError, match="no rows"):
            evaluate(net, empty_data(m=2, p=1))

    def test_clean_data_is_one_huber_mean(self):
        """On finite data, bitwise huber of every row's residual in one
        pass, across sessions."""
        net = init_network(3, (4,), 2, seed=2)
        data = make_data([60, 40, 25], seed=4)
        preds = _scan_sessions(net, data)
        assert evaluate(net, data) == huber(preds - data.targets)

    @pytest.mark.parametrize("seed", range(20))
    def test_is_cmd_evaluates_huber_mean(self, seed):
        """Validation and cmd_evaluate are one score: bitwise equal, a
        Python float, on three sessions, with a NaN feature row on odd
        seeds."""
        net = init_network(3, (4,), 2, seed=2)
        data = make_data([60, 40, 25], seed=seed)
        if seed % 2:
            data.features[70, 0] = np.nan
        loss = evaluate(net, data)
        assert type(loss) is float
        assert loss == cmd_evaluate(Checkpoint(net=net), data)["huber_mean"]

    @pytest.mark.parametrize("where", ["feature", "target"])
    def test_nonfinite_row_left_out(self, where):
        """2 sessions, 100 rows, one NaN feature or target: evaluate is
        the mean Huber loss of the other rows, and train's best
        validation loss is finite."""
        net = init_network(3, (4,), 2, seed=0)
        data = make_data([60, 40])
        getattr(data, where + "s")[70, 1] = np.nan
        keep = np.arange(100) != 70
        preds = _scan_sessions(net, data)
        loss = evaluate(net, data)
        assert loss == huber(preds[keep] - data.targets[keep])
        result = train(net, make_data([80], seed=1), data,
                       TrainConfig(steps=20, batch=2, window=10,
                                   eval_every=5))
        assert np.isfinite(result.best_val_loss)
        assert result.best_val_loss == np.nanmin(
            [v for _, _, v in result.loss_curve])

    def test_no_finite_row_is_nan(self):
        net = init_network(3, (4,), 2, seed=0)
        data = make_data([10, 5])
        data.targets[:] = np.nan
        assert np.isnan(evaluate(net, data))


class TestWidths:
    """A data set whose feature or target width is not the network's is a
    CompatibilityError, not a broadcast loss or an unnamed matmul error."""

    @pytest.mark.parametrize("m, p, name", [(3, 3, "targets"),
                                            (2, 1, "features")])
    def test_evaluate_rejects(self, m, p, name):
        net = init_network(3, (4,), 1, seed=0)
        with pytest.raises(CompatibilityError, match=name):
            evaluate(net, make_data([20], m=m, p=p))

    @pytest.mark.parametrize("which", ["training", "validation"])
    def test_train_rejects_before_any_step(self, monkeypatch, which):
        net = init_network(3, (4,), 1, seed=0)
        good, bad = make_data([40], p=1), make_data([40], p=3)
        data = (bad, good) if which == "training" else (good, bad)
        steps = []

        def gradient(*args):
            steps.append(args)
            return 0.0, np.zeros_like(net.theta)

        monkeypatch.setattr(bptt, "bptt_gradient", gradient)
        cfg = TrainConfig(steps=3, batch=2, window=10, eval_every=1)
        with pytest.raises(CompatibilityError, match=f"{which} data"):
            train(net, *data, cfg)
        assert steps == []

    def test_train_rejects_empty_validation_before_any_step(self,
                                                            monkeypatch):
        """Validation data with no rows is rejected with the width checks,
        as empty training data is, not by evaluate after eval_every
        steps."""
        net = init_network(3, (4,), 2, seed=0)
        steps = []

        def gradient(*args):
            steps.append(args)
            return 0.0, np.zeros_like(net.theta)

        monkeypatch.setattr(bptt, "bptt_gradient", gradient)
        cfg = TrainConfig(steps=30, batch=2, window=10, eval_every=25)
        with pytest.raises(ContractViolationError, match="no rows"):
            train(net, make_data([40]), empty_data(), cfg)
        assert steps == []
