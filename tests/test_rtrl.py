from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import (constants, finite_difference_grads, forward_row,
                      max_rel_error, paired_order, random_batch,
                      small_random_net)
from lru_online.bptt import bptt_gradient
from lru_online.errors import ContractViolationError
from lru_online.harness import FinetuneConfig, OnlineLearner
from lru_online.lru import LruNetwork, init_network, layer_constants
from lru_online.optim import huber
from lru_online.rtrl import (B_RE, H, NU, PHASE, _StreamPlan, _trace_step,
                             reset_trace, window_gradient)


def trace_update(layer, u, z_prev):
    """One layer's trace update, its state in the H column, on a fresh
    plan."""
    plan = _StreamPlan(LruNetwork([layer]))
    layer_constants(plan.kernels[0])
    return _trace_step(plan.kernels[0], u, z_prev, plan.imm[0])


def stream(net, inputs):
    """The predict half of the RTRL step over the input rows from zero
    traces; yields the pre-step states and the post-step states and
    traces of every row (the states are the traces' H columns)."""
    plan = _StreamPlan(net)
    traces = reset_trace(net)
    for u in inputs:
        states = [z[:, H] for z in traces]
        traces, _, _ = plan.predict(traces, u)
        yield states, [z[:, H] for z in traces], traces


class TestResetTrace:
    def test_zero_and_shapes(self):
        net = init_network(20, (16, 16), 5, seed=0)
        traces = reset_trace(net)
        assert traces[0].shape == (16, 3 + 20)
        assert traces[1].shape == (16, 3 + 16)
        for z in traces:
            assert z.dtype == np.complex128
            assert np.all(z == 0)

    def test_trace_memory_is_linear_in_nodes(self):
        net = init_network(20, (16,), 5, seed=0)
        traces = reset_trace(net)
        assert len(traces) == 1
        # 3n + n*m, not n^2*m: the H column is the state, kept nowhere else
        assert traces[0].size == 3 * 16 + 16 * 20


class TestTraceStep:
    def test_first_step_is_immediate_jacobian(self, rng):
        net = init_network(3, (5,), 2, seed=1)
        layer = net.layers[0]
        u = rng.standard_normal(3)
        (z,), _, _ = _StreamPlan(net).predict(reset_trace(net), u)
        gamma = constants(layer)[1]
        assert np.allclose(z[:, B_RE], gamma[:, None] * u[None, :])
        assert np.allclose(z[:, H], gamma * (layer.b_complex @ u))
        assert np.all(z[:, NU] == 0)  # zero previous state
        assert np.all(z[:, PHASE] == 0)

    def test_no_recurrence_when_lambda_zero(self, rng):
        from test_lru import diagonal_layer
        layer = diagonal_layer(4, lam=0.0, gamma=2.0)
        net = LruNetwork([layer])
        z = reset_trace(net)[0]
        for t in range(5):
            u = rng.standard_normal(4)
            z = trace_update(layer, u, z)
            # with lam = 0 the trace is exactly this step's immediate
            # Jacobian, and the state gamma * (B u) with B = identity
            assert np.allclose(z[:, B_RE], 2.0 * np.ones((4, 1)) * u[None, :])
            assert np.allclose(z[:, H], 2.0 * u)

    def test_matches_finite_differences(self, rng):
        net = small_random_net(rng)
        layer = net.layers[0]
        T = 50
        u = rng.standard_normal((T, layer.m))

        def final_state(params_layer):
            one = LruNetwork([params_layer])
            states = one.zero_states()
            for t in range(T):
                states, _, _ = forward_row(one, states, u[t])
            return states[0]

        for _, (h,), (z,) in stream(net, u):
            pass

        eps = 1e-5
        # the gamma_log trace is the final state itself, and the b_im trace
        # is 1j times the b_re trace
        assert np.shares_memory(h, z)
        blocks = {"nu": z[:, NU], "theta_phase": z[:, PHASE],
                  "gamma_log": z[:, H], "b_re": z[:, B_RE],
                  "b_im": 1j * z[:, B_RE]}
        for name, trace in blocks.items():
            arr = getattr(layer, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                arr[i] += eps
                hp = final_state(layer)
                arr[i] -= 2 * eps
                hm = final_state(layer)
                arr[i] += eps
                fd = (hp - hm) / (2 * eps)
                j = i[0]  # row j of B only affects node j
                analytic = trace[i] if arr.ndim == 2 else trace[j]
                scale = max(abs(fd[j]), 1e-7)
                assert abs(analytic - fd[j]) / scale < 1e-6
                other = np.abs(np.delete(fd, j)).max() if layer.n > 1 else 0.0
                assert other < 1e-7  # diagonal structure: no cross-node effect

    def test_zero_input_geometric_decay(self, rng):
        net = small_random_net(rng)
        layer = net.layers[0]
        lam = constants(layer)[0]
        u = np.zeros((101, layer.m))
        u[0] = rng.standard_normal(layer.m)
        for t, (_, _, (z,)) in enumerate(stream(net, u)):
            if t == 0:
                base = z[:, B_RE].copy()
            expect = lam[:, None] ** t * base
            assert np.allclose(z[:, B_RE], expect, atol=1e-12)

    def test_bitwise_equals_out_of_place_formula(self, rng):
        """The predict half's trace update is bitwise lambda * Z + imm with the
        immediate Jacobian imm built from exp(nu) and exp(theta_phase)
        afresh: its H column gamma * (B u) makes the state column
        lambda * h_prev + gamma * (B u)."""
        net = init_network(6, (9,), 2, seed=4)
        layer = net.layers[0]
        lam = constants(layer)[0]
        z = reset_trace(net)[0]
        u = rng.standard_normal((30, 6))
        for u_t, ((h_prev,), _, (z_new,)) in zip(u, stream(net, u)):
            imm = np.empty_like(z)
            imm[:, NU] = -np.exp(layer.nu) * lam * h_prev
            imm[:, PHASE] = 1j * np.exp(layer.theta_phase) * lam * h_prev
            gamma = constants(layer)[1]
            imm[:, H] = gamma * (layer.b_complex @ u_t)
            imm[:, B_RE] = gamma[:, None] * u_t[None, :]
            ref = lam[:, None] * z + imm
            assert np.array_equal(z_new, ref)
            z = z_new

    def test_constants_carry_the_lambda_derivatives(self):
        """layer_constants on a network's kernels, whose heads are views of
        theta, gives lambda, gamma and the columns dlambda/dnu and
        dlambda/dtheta_phase bitwise exp(-exp(nu)) (cos + i sin)(exp(
        theta_phase)), exp(gamma_log), -exp(nu) * lambda and
        1j * exp(theta_phase) * lambda."""
        net = init_network(3, (7, 4), 2, seed=5)
        for layer, k in zip(net.layers, _StreamPlan(net).kernels):
            lam, gamma, dlam = layer_constants(k)
            assert np.shares_memory(k.head, net.theta)
            phase = np.exp(layer.theta_phase)
            assert np.array_equal(lam, np.exp(-np.exp(layer.nu))
                                  * (np.cos(phase) + 1j * np.sin(phase)))
            assert np.array_equal(gamma, np.exp(layer.gamma_log))
            assert np.array_equal(dlam[:, 0], -np.exp(layer.nu) * lam)
            assert np.array_equal(dlam[:, 1],
                                  1j * np.exp(layer.theta_phase) * lam)


class TestOnlineGradient:
    def test_blocks_land_at_their_offsets(self, rng):
        """_StreamPlan.gradient's writes through the paired views are
        bitwise the per-block formulas written through the named blocks
        of net.paired, with the adjoint a from g and a fresh (p, 2n) copy
        of the (c_re, c_im) pairs (a real product over p, as the kernel
        takes it)."""
        net = init_network(4, (6, 5, 3), 2, seed=9)
        net.theta += 0.1 * rng.standard_normal(net.theta.size)  # D != 0
        plan = _StreamPlan(net)
        traces = reset_trace(net)
        for _ in range(6):
            traces, _, li = plan.predict(traces, rng.standard_normal(4))
            dL_dy = rng.standard_normal(2)
            got = plan.gradient(traces, li, dL_dy)
            ref = np.full_like(net.theta, np.nan)
            blocks = [v.blocks() for v in net.paired(ref)]
            g = dL_dy
            for k in range(net.depth - 1, -1, -1):
                layer, z = net.layers[k], traces[k]
                h = z[:, H]
                c2 = np.stack((layer.c_re, layer.c_im), axis=-1)
                a = (g @ c2.reshape(layer.p, -1)).view(np.complex128)
                at = a[:, None] * z
                out = blocks[k]
                out["nu"][...] = at[:, NU].real
                out["theta_phase"][...] = at[:, PHASE].real
                out["gamma_log"][...] = np.real(a * h)
                out["b_re"][...] = at[:, B_RE].real
                out["b_im"][...] = -at[:, B_RE].imag
                out["c_re"][...] = g[:, None] * h.real
                out["c_im"][...] = g[:, None] * -h.imag
                out["d"][...] = g[:, None] * li[k]
                g = (np.real((constants(layer)[1] * a)
                             @ (layer.b_re + 1j * layer.b_im))
                     + g @ layer.d)
            assert np.array_equal(got, ref)

    def test_zero_output_gradient(self, rng):
        net = init_network(3, (5,), 2, seed=2)
        plan = _StreamPlan(net)
        traces, _, li = plan.predict(reset_trace(net), rng.standard_normal(3))
        g = plan.gradient(traces, li, np.zeros(2))
        assert g.shape == net.theta.shape and np.all(g == 0)

    def test_sum_equals_bptt_depth1(self, rng):
        for trial in range(5):
            net = small_random_net(rng)
            T = int(rng.integers(10, 120))
            inputs, targets = random_batch(rng, net, T)
            loss_b, g_b = bptt_gradient(net, inputs, targets)
            loss_r, g_r = window_gradient(net, inputs[:, 0], targets[:, 0])
            assert abs(loss_b - loss_r) < 1e-12 * max(1.0, abs(loss_b))
            assert max_rel_error(g_r, g_b) < 1e-8

    def test_depth2_cd_blocks_exact(self, rng):
        net = small_random_net(rng, depth=2)
        T = 30
        inputs, targets = random_batch(rng, net, T)
        _, g_r = window_gradient(net, inputs[:, 0], targets[:, 0])
        fd = [v.blocks() for v in net.paired(
            finite_difference_grads(net, inputs, targets))]
        g_r = [v.blocks() for v in net.paired(g_r)]
        # top layer C and D depend only instantaneously on the state: exact
        for name in ("c_re", "c_im", "d"):
            denom = np.maximum(np.abs(fd[1][name]), 1e-6)
            assert np.max(np.abs(g_r[1][name] - fd[1][name]) / denom) < 1e-4

    def test_empty_window_rejected(self):
        with pytest.raises(ContractViolationError, match="at least one row"):
            window_gradient(init_network(3, (4,), 2), np.zeros((0, 3)),
                            np.zeros((0, 2)))

    def test_constant_memory_over_stream(self, rng):
        net = init_network(4, (8,), 2, seed=0)
        shapes = [z.shape for z in reset_trace(net)]
        for _, _, traces in stream(net, rng.standard_normal((200, 4))):
            assert [z.shape for z in traces] == shapes


def warm_learner(rng, rows=4):
    """An OnlineLearner on a depth-(5, 4) net after `rows` rows, so its
    states, traces and Adam moments are not zero."""
    learner = OnlineLearner(init_network(3, (5, 4), 2, seed=8),
                            FinetuneConfig(lambda_reg=0.01, lr=1e-2))
    for _ in range(rows):
        learner.predict(rng.standard_normal(3))
        learner.observe(rng.standard_normal(2))
    return learner


def snapshot(learner):
    """The bytes of theta, the Adam moments and step count, the states and
    the traces."""
    a = learner.adam
    return ([learner.net.theta.tobytes(), a.m.tobytes(), a.v.tobytes(), a.t]
            + [h.tobytes() for h in learner.states]
            + [z.tobytes() for z in learner.traces])


class TestOnlineStep:
    """The online step is OnlineLearner.predict then .observe: a call out
    of that order, or with a row of the wrong width, raises and changes
    nothing, and the learner takes the next call as if it had not been
    made."""

    @pytest.mark.parametrize("what", ["target1", "target3", "input"])
    def test_shape_mismatch_rejected(self, rng, what):
        learner = warm_learner(rng)
        u, y = rng.standard_normal(3), rng.standard_normal(2)
        if what == "input":
            before = snapshot(learner)
            with pytest.raises(ContractViolationError, match="input shape"):
                learner.predict(np.zeros(4))
        else:
            learner.predict(u)
            before = snapshot(learner)
            with pytest.raises(ContractViolationError, match="output shape"):
                # a 1-wide label would broadcast into the prediction
                learner.observe(np.zeros(1 if what == "target1" else 3))
        assert snapshot(learner) == before
        if what == "input":
            learner.predict(u)
        learner.observe(y)
        assert learner.adam.t == 5

    def test_observe_before_predict_rejected(self, rng):
        learner = OnlineLearner(init_network(3, (5, 4), 2, seed=8),
                                FinetuneConfig())
        for _ in range(2):   # a fresh learner, then one after a full row
            before = snapshot(learner)
            with pytest.raises(ContractViolationError, match="before predict"):
                learner.observe(rng.standard_normal(2))
            assert snapshot(learner) == before
            learner.predict(rng.standard_normal(3))
            learner.observe(rng.standard_normal(2))

    def test_predict_twice_rejected(self, rng):
        learner = warm_learner(rng)
        y_hat = learner.predict(rng.standard_normal(3))
        kept = y_hat.copy()
        before = snapshot(learner)
        with pytest.raises(ContractViolationError, match="twice"):
            learner.predict(rng.standard_normal(3))
        assert snapshot(learner) == before
        assert y_hat.tobytes() == kept.tobytes()
        learner.observe(rng.standard_normal(2))
        assert learner.adam.t == 5

    def test_end_session_zeroes_states_and_traces(self, rng):
        """end_session zeroes the states and traces, shaped for the
        network, and leaves theta and the Adam state as they were."""
        learner = warm_learner(rng)
        kept = snapshot(learner)[:4]   # theta, m, v and t
        learner.end_session()
        assert snapshot(learner)[:4] == kept and learner.adam.t == 4
        net = learner.net
        for got, zero in ((learner.states, net.zero_states()),
                          (learner.traces, reset_trace(net))):
            assert [(a.shape, a.dtype) for a in got] == [
                (a.shape, a.dtype) for a in zero]
            assert all(not a.any() for a in got)

    def test_observe_after_end_session(self):
        """A prediction's label may arrive after end_session: predict,
        end_session, observe is bitwise predict, observe, end_session."""
        sides = []
        for late in (False, True):
            learner = warm_learner(np.random.default_rng(3))
            learner.predict(np.arange(3.0))
            if late:
                learner.end_session()
            learner.observe(np.ones(2))
            if not late:
                learner.end_session()
            sides.append(snapshot(learner))
        assert sides[0] == sides[1]

    def test_nan_label_skips_the_update_only(self, rng):
        """A NaN label reports a row without one: observe counts a skipped
        update and leaves theta and the Adam state as they were, while
        predict advanced the states and traces past the row."""
        learner = warm_learner(rng)
        before = snapshot(learner)
        learner.predict(rng.standard_normal(3))
        advanced = snapshot(learner)
        learner.observe(np.full(2, np.nan))
        assert learner.skipped == 1
        assert snapshot(learner) == advanced
        assert advanced[:4] == before[:4] and advanced[4:] != before[4:]

    @pytest.mark.parametrize("row", ["nan", "inf", "overflow"])
    def test_nonfinite_row_holds_states_and_traces(self, rng, row):
        """A feature row with a NaN or inf entry leaves the states and
        traces as they were; a finite row whose squared norm overflows
        advances them, as every finite row does."""
        learner = warm_learner(rng)
        u = rng.standard_normal(3)
        u[1] = {"nan": np.nan, "inf": -np.inf, "overflow": 1e200}[row]
        before = snapshot(learner)
        with np.errstate(over="ignore", invalid="ignore"):
            learner.predict(u)
            held = snapshot(learner)[4:] == before[4:]
            learner.observe(rng.standard_normal(2))
        assert held == (row != "overflow")

    def test_states_are_views_of_the_traces(self, rng):
        """Each learner.states[k] is the H column of learner.traces[k], not
        a copy; a non-finite feature row leaves both as they were."""
        learner = warm_learner(rng)
        for h, z in zip(learner.states, learner.traces):
            assert np.shares_memory(h, z[:, H])
            assert h.tobytes() == z[:, H].tobytes()
        before = snapshot(learner)[4:]
        u = rng.standard_normal(3)
        u[2] = np.nan
        with np.errstate(invalid="ignore"):
            learner.predict(u)
            learner.observe(rng.standard_normal(2))
        assert learner.skipped == 1
        assert snapshot(learner)[4:] == before

    def test_learner_owns_its_parameters(self, rng):
        """The learner adapts a copy of the network and anchors at a copy
        of its theta: the caller's network is never written, and writing
        to it changes nothing the learner does."""
        net = init_network(3, (5, 4), 2, seed=8)
        kept = net.theta.copy()
        sides = []
        for touch in (False, True):
            learner = OnlineLearner(net, FinetuneConfig(lambda_reg=0.01))
            if touch:
                net.theta += 1.0
            for u, y in zip(np.arange(12.0).reshape(4, 3),
                            np.ones((4, 2))):
                learner.predict(u)
                learner.observe(y)
            assert touch or net.theta.tobytes() == kept.tobytes()
            sides.append(snapshot(learner) + [learner.distance])
        assert sides[0] == sides[1]

    @pytest.mark.parametrize("widths", [(5,), (4, 3)])
    def test_step_outputs_outlive_the_next_step(self, rng, widths):
        """The traces (the states with them) and prediction that
        _StreamPlan.predict returns for a row are its own arrays: the next
        row, which writes into the plan's buffers, leaves them byte for
        byte as they were."""
        net = init_network(3, widths, 2, seed=8)
        plan = _StreamPlan(net)
        traces = reset_trace(net)
        kept = None
        for _ in range(5):
            traces, y_hat, inputs = plan.predict(traces,
                                                 rng.standard_normal(3))
            plan.gradient(traces, inputs, rng.standard_normal(2))
            if kept is not None:
                assert [a.tobytes() for a in held] == kept
            held = [*traces, y_hat]
            kept = [a.tobytes() for a in held]


ONLINE_REF = Path(__file__).parent / "data" / "online_step_depth2.npz"


def reference_stream(steps=40):
    """The depth-(5, 4) net, inputs and targets of run_reference_stream."""
    rng = np.random.default_rng(2024)
    return (init_network(3, (5, 4), 2, seed=6),
            rng.standard_normal((steps, 3)), rng.standard_normal((steps, 2)))


def run_reference_stream(steps=40):
    """A fixed depth-2 stream through an OnlineLearner (lr 1e-2, clip 0.5,
    lambda_reg 0); returns every step's prediction, loss
    (huber(y_hat - y_t)) and gradient (read from the RTRL step's gradient
    buffer), the final states and traces, and the final parameters.
    The traces are returned under the names of the reference file's
    per-parameter fields: the gamma_log trace is the state, and the b_im
    trace is 1j times the b_re trace."""
    net, inputs, targets = reference_stream(steps)
    learner = OnlineLearner(net, FinetuneConfig(lr=1e-2, clip=0.5))
    out = {"preds": [], "losses": [], "grads": []}
    for u_t, y_t in zip(inputs, targets):
        y_hat = learner.predict(u_t)
        learner.observe(y_t)
        out["preds"].append(y_hat)
        out["losses"].append(huber(y_hat - y_t))
        out["grads"].append(learner._plan.grads.copy())
    out = {k: np.asarray(v) for k, v in out.items()}
    for k, (h, z) in enumerate(zip(learner.states, learner.traces)):
        out[f"state_{k}"] = h
        out[f"trace_nu_{k}"] = z[:, NU]
        out[f"trace_phase_{k}"] = z[:, PHASE]
        out[f"trace_gamma_{k}"] = z[:, H]
        out[f"trace_b_re_{k}"] = z[:, B_RE]
        out[f"trace_b_im_{k}"] = 1j * z[:, B_RE]
    out["theta"] = learner.net.theta
    return out


def test_online_step_matches_reference_stream():
    """The online learner is what its checked per-row predecessors,
    online_step + apply_update, were before the forward pass handed
    lambda, gamma and B u to the trace update, while lambda was
    exp(-exp(nu)) (cos + i sin)(exp(theta_phase)), Adam divided by
    its bias corrections and theta stored b and c as separate re and im
    blocks (reference written by run_reference_stream with that code;
    its flat theta and gradients are read through conftest's
    paired_order): every array within tests/oracle.py's STREAM_BOUNDS."""
    ref = np.load(ONLINE_REF)
    got = run_reference_stream()
    assert sorted(got) == sorted(ref.files)
    order = paired_order(3, (5, 4), 2)
    bound = {"preds": "predictions", "losses": "loss", "grads": "gradients",
             "theta": "theta", "state": "state", "trace": "trace"}
    for key in ref.files:
        limit = oracle.STREAM_BOUNDS[bound[key.split("_")[0]]]
        want = ref[key][..., order] if key in ("grads", "theta") else ref[key]
        assert oracle.relative_error(got[key], want) <= limit, key
