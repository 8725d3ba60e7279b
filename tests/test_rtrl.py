from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import (constants, finite_difference_grads, max_rel_error,
                      paired_order, random_batch, small_random_net)
from lru_online.bptt import bptt_gradient
from lru_online.errors import ContractViolationError
from lru_online.lru import (LruNetwork, _forward, init_network,
                            layer_constants, network_step)
from lru_online.optim import AdamState, apply_update, huber
from lru_online.rtrl import (B_RE, NU, PHASE, _StreamPlan, _trace_step,
                             online_step, reset_trace, window_gradient)


def trace_update(layer, h_prev, u, z_prev):
    """One layer's trace update from a pre-step state h_prev the caller
    keeps itself."""
    plan = _StreamPlan(LruNetwork([layer]))
    layer_constants(plan.kernels[0])
    return _trace_step(plan.kernels[0], h_prev, u, z_prev, plan.traces[0])


def stream(net, inputs):
    """online_step over the input rows from zero states and traces (zero
    targets); yields the pre-step states and the post-step states and
    traces of every row."""
    states, traces = net.zero_states(), reset_trace(net)
    zero = np.zeros(net.output_dim)
    for u in inputs:
        new_states, traces, _, _ = online_step(net, states, traces, u, zero)
        yield states, new_states, traces
        states = new_states


class TestResetTrace:
    def test_zero_and_shapes(self):
        net = init_network(20, (16, 16), 5, seed=0)
        traces = reset_trace(net)
        assert traces[0].shape == (16, 2 + 20)
        assert traces[1].shape == (16, 2 + 16)
        for z in traces:
            assert z.dtype == np.complex128
            assert np.all(z == 0)

    def test_trace_memory_is_linear_in_nodes(self):
        net = init_network(20, (16,), 5, seed=0)
        traces = reset_trace(net)
        assert len(traces) == 1
        assert traces[0].size == 2 * 16 + 16 * 20  # 2n + n*m, not n^2*m


class TestTraceStep:
    def test_first_step_is_immediate_jacobian(self, rng):
        net = init_network(3, (5,), 2, seed=1)
        layer = net.layers[0]
        u = rng.standard_normal(3)
        _, (z,), _, _ = online_step(net, net.zero_states(), reset_trace(net),
                                    u, np.zeros(2))
        gamma = constants(layer)[1]
        assert np.allclose(z[:, B_RE], gamma[:, None] * u[None, :])
        assert np.all(z[:, NU] == 0)  # zero previous state
        assert np.all(z[:, PHASE] == 0)

    def test_no_recurrence_when_lambda_zero(self, rng):
        from test_lru import diagonal_layer
        layer = diagonal_layer(4, lam=0.0, gamma=2.0)
        net = LruNetwork([layer])
        z = reset_trace(net)[0]
        h = np.zeros(4, complex)
        for t in range(5):
            u = rng.standard_normal(4)
            z = trace_update(layer, h, u, z)
            h = 2.0 * u.astype(complex)
            # with lam = 0 the trace is exactly this step's immediate Jacobian
            assert np.allclose(z[:, B_RE], 2.0 * np.ones((4, 1)) * u[None, :])

    def test_matches_finite_differences(self, rng):
        net = small_random_net(rng)
        layer = net.layers[0]
        T = 50
        u = rng.standard_normal((T, layer.m))

        def final_state(params_layer):
            one = LruNetwork([params_layer])
            states = one.zero_states()
            for t in range(T):
                states, _, _ = network_step(one, states, u[t])
            return states[0]

        for _, (h,), (z,) in stream(net, u):
            pass

        eps = 1e-5
        # the gamma_log trace is the final state itself, and the b_im trace
        # is 1j times the b_re trace
        blocks = {"nu": z[:, NU], "theta_phase": z[:, PHASE],
                  "gamma_log": h, "b_re": z[:, B_RE],
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

    def test_shape_mismatch(self):
        net = init_network(3, (5,), 2, seed=0)
        bad = np.zeros((5, 2 + 4), complex)
        with pytest.raises(ContractViolationError):
            online_step(net, net.zero_states(), [bad], np.zeros(3),
                        np.zeros(2))

    def test_bitwise_equals_out_of_place_formula(self, rng):
        """online_step's trace update is bitwise lambda * Z + imm with the
        immediate Jacobian imm built from exp(nu) and exp(theta_phase)
        afresh."""
        net = init_network(6, (9,), 2, seed=4)
        layer = net.layers[0]
        lam = constants(layer)[0]
        z = reset_trace(net)[0]
        u = rng.standard_normal((30, 6))
        for u_t, ((h_prev,), _, (z_new,)) in zip(u, stream(net, u)):
            imm = np.empty_like(z)
            imm[:, NU] = -np.exp(layer.nu) * lam * h_prev
            imm[:, PHASE] = 1j * np.exp(layer.theta_phase) * lam * h_prev
            imm[:, B_RE] = constants(layer)[1][:, None] * u_t[None, :]
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
        states, traces = net.zero_states(), reset_trace(net)
        for _ in range(6):
            u = rng.standard_normal(4)
            for k in plan.kernels:
                layer_constants(k)
            new_states, y, li = _forward(plan.kernels, states, u)
            traces = [trace_update(layer, h, x, z) for layer, h, x, z
                      in zip(net.layers, states, li, traces)]
            states = new_states
            dL_dy = rng.standard_normal(2)
            got = plan.gradient(traces, states, li, dL_dy)
            ref = np.full_like(net.theta, np.nan)
            blocks = [v.blocks() for v in net.paired(ref)]
            g = dL_dy
            for k in range(net.depth - 1, -1, -1):
                layer, h, z = net.layers[k], states[k], traces[k]
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
        for k in plan.kernels:
            layer_constants(k)
        states, y, li = _forward(plan.kernels, net.zero_states(),
                                 rng.standard_normal(3))
        traces = [trace_update(layer, h, x, z) for layer, h, x, z
                  in zip(net.layers, net.zero_states(), li, reset_trace(net))]
        g = plan.gradient(traces, states, li, np.zeros(2))
        assert g.shape == net.theta.shape and np.all(g == 0)

    def test_sum_equals_bptt_depth1(self, rng):
        for trial in range(5):
            net = small_random_net(rng)
            T = int(rng.integers(10, 120))
            batch = random_batch(rng, net, T)
            loss_b, g_b = bptt_gradient(net, batch)
            loss_r, g_r = window_gradient(net, batch.inputs[0],
                                          batch.targets[0])
            assert abs(loss_b - loss_r) < 1e-12 * max(1.0, abs(loss_b))
            assert max_rel_error(g_r, g_b) < 1e-8

    def test_depth2_cd_blocks_exact(self, rng):
        net = small_random_net(rng, depth=2)
        T = 30
        batch = random_batch(rng, net, T)
        _, g_r = window_gradient(net, batch.inputs[0], batch.targets[0])
        fd = [v.blocks()
              for v in net.paired(finite_difference_grads(net, batch))]
        g_r = [v.blocks() for v in net.paired(g_r)]
        # top layer C and D depend only instantaneously on the state: exact
        for name in ("c_re", "c_im", "d"):
            denom = np.maximum(np.abs(fd[1][name]), 1e-6)
            assert np.max(np.abs(g_r[1][name] - fd[1][name]) / denom) < 1e-4

    def test_empty_window_rejected(self):
        with pytest.raises(ContractViolationError, match="at least one row"):
            window_gradient(init_network(3, (4,), 2), np.zeros((0, 3)),
                            np.zeros((0, 2)))

    def test_missing_traces_rejected(self, rng):
        net = init_network(3, (5, 4), 2, seed=3)
        with pytest.raises(ContractViolationError):
            online_step(net, net.zero_states(), reset_trace(net)[:1],
                        rng.standard_normal(3), np.zeros(2))

    def test_constant_memory_over_stream(self, rng):
        net = init_network(4, (8,), 2, seed=0)
        shapes = [z.shape for z in reset_trace(net)]
        for _, _, traces in stream(net, rng.standard_normal((200, 4))):
            assert [z.shape for z in traces] == shapes


class TestOnlineStep:
    @pytest.mark.parametrize("what", [
        "target1", "target3", "input", "state", "trace", "states", "traces"])
    def test_shape_mismatch_rejected(self, what):
        """online_step checks the target width as well as the shapes of
        the input, the states and the traces, before it runs anything."""
        net = init_network(3, (5, 4), 2, seed=8)
        states, traces = net.zero_states(), reset_trace(net)
        u, y = np.zeros(3), np.zeros(2)
        if what == "target1":
            y = np.zeros(1)          # would broadcast into the prediction
        elif what == "target3":
            y = np.zeros(3)
        elif what == "input":
            u = np.zeros(4)
        elif what == "state":
            states[1] = np.zeros(5, complex)
        elif what == "trace":
            traces[0] = np.zeros((5, 2 + 4), complex)
        elif what == "states":
            states = states[:1]
        else:
            traces = traces + traces[:1]
        with pytest.raises(ContractViolationError):
            online_step(net, states, traces, u, y)

    def test_gradient_is_fresh_per_call(self, rng):
        """Each online_step returns its own gradient array, although the
        per-stream kernels reuse one buffer."""
        net = init_network(3, (5,), 2, seed=8)
        states, traces = net.zero_states(), reset_trace(net)
        states, traces, _, g1 = online_step(net, states, traces,
                                            rng.standard_normal(3),
                                            rng.standard_normal(2))
        kept = g1.copy()
        online_step(net, states, traces, rng.standard_normal(3),
                    rng.standard_normal(2))
        assert np.array_equal(g1, kept)

    @pytest.mark.parametrize("widths", [(5,), (4, 3)])
    def test_step_outputs_outlive_the_next_step(self, rng, widths):
        """The states, traces and prediction that _StreamPlan.step returns
        for a row are its own arrays: the next row, which writes into the
        plan's buffers, leaves them byte for byte as they were."""
        net = init_network(3, widths, 2, seed=8)
        step = _StreamPlan(net).step
        states, traces = net.zero_states(), reset_trace(net)
        kept = None
        for _ in range(5):
            states, traces, y_hat, _ = step(states, traces,
                                            rng.standard_normal(3),
                                            rng.standard_normal(2))
            if kept is not None:
                assert [a.tobytes() for a in held] == kept
            held = [*states, *traces, y_hat]
            kept = [a.tobytes() for a in held]


ONLINE_REF = Path(__file__).parent / "data" / "online_step_depth2.npz"


def reference_stream(steps=40):
    """The depth-(5, 4) net, inputs and targets of run_reference_stream."""
    rng = np.random.default_rng(2024)
    return (init_network(3, (5, 4), 2, seed=6),
            rng.standard_normal((steps, 3)), rng.standard_normal((steps, 2)))


def run_reference_stream(steps=40):
    """A fixed depth-2 stream through online_step + apply_update (lr 1e-2,
    clip 0.5); returns every step's prediction, loss (huber(y_hat - y_t))
    and gradient, the final states and traces, and the final parameters.
    The traces are returned under the names of the reference file's
    per-parameter fields: the gamma_log trace is the state, and the b_im
    trace is 1j times the b_re trace."""
    net, inputs, targets = reference_stream(steps)
    adam = AdamState.init(net.theta, lr=1e-2)
    states, traces = net.zero_states(), reset_trace(net)
    out = {"preds": [], "losses": [], "grads": []}
    for u_t, y_t in zip(inputs, targets):
        states, traces, y_hat, grads = online_step(net, states, traces,
                                                   u_t, y_t)
        apply_update(net.theta, grads, adam, 0.5)
        out["preds"].append(y_hat)
        out["losses"].append(huber(y_hat - y_t))
        out["grads"].append(grads)
    out = {k: np.asarray(v) for k, v in out.items()}
    for k, (h, z) in enumerate(zip(states, traces)):
        out[f"state_{k}"] = h
        out[f"trace_nu_{k}"] = z[:, NU]
        out[f"trace_phase_{k}"] = z[:, PHASE]
        out[f"trace_gamma_{k}"] = h
        out[f"trace_b_re_{k}"] = z[:, B_RE]
        out[f"trace_b_im_{k}"] = 1j * z[:, B_RE]
    out["theta"] = net.theta
    return out


def test_online_step_matches_reference_stream():
    """online_step + apply_update are what they were before the forward
    pass handed lambda, gamma and B u to the trace update, while lambda
    was exp(-exp(nu)) (cos + i sin)(exp(theta_phase)), Adam divided by
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
