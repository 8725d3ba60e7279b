from pathlib import Path

import numpy as np
import pytest

from conftest import (finite_difference_grads, max_rel_error, random_batch,
                      small_random_net)
from lru_online.bptt import bptt_gradient
from lru_online.errors import ContractViolationError
from lru_online.lru import (LruNetwork, derive_gamma, derive_lambda,
                            init_network, network_step)
from lru_online.optim import AdamState, apply_update, huber_grad
from lru_online.rtrl import (EligibilityTrace, online_gradient, online_step,
                             reset_trace, step_traces, trace_step,
                             window_gradient)


class TestResetTrace:
    def test_zero_and_shapes(self):
        net = init_network(20, (16, 16), 5, seed=0)
        traces = reset_trace(net)
        assert traces[0].trace_b_re.shape == (16, 20)
        assert traces[1].trace_b_re.shape == (16, 16)
        for tr in traces:
            for arr in (tr.trace_nu, tr.trace_phase, tr.trace_gamma,
                        tr.trace_b_re):
                assert np.all(arr == 0)

    def test_trace_memory_is_linear_in_nodes(self):
        net = init_network(20, (16,), 5, seed=0)
        tr = reset_trace(net)[0]
        total = sum(a.size for a in vars(tr).values())
        assert total == 3 * 16 + 16 * 20  # 3n + n*m, not n^2*m


class TestTraceStep:
    def test_first_step_is_immediate_jacobian(self, rng):
        net = init_network(3, (5,), 2, seed=1)
        layer = net.layers[0]
        u = rng.standard_normal(3)
        tr = trace_step(layer, np.zeros(5, complex), u, reset_trace(net)[0])
        gamma = derive_gamma(layer)
        assert np.allclose(tr.trace_b_re, gamma[:, None] * u[None, :])
        assert np.all(tr.trace_nu == 0)  # zero previous state
        assert np.all(tr.trace_phase == 0)

    def test_no_recurrence_when_lambda_zero(self, rng):
        from test_lru import diagonal_layer
        layer = diagonal_layer(4, lam=0.0, gamma=2.0)
        net = LruNetwork([layer])
        tr = reset_trace(net)[0]
        h = np.zeros(4, complex)
        for t in range(5):
            u = rng.standard_normal(4)
            tr = trace_step(layer, h, u, tr)
            h = 2.0 * u.astype(complex)
            # with lam = 0 the trace is exactly this step's immediate Jacobian
            assert np.allclose(tr.trace_b_re, 2.0 * np.ones((4, 1)) * u[None, :])

    def test_matches_finite_differences(self, rng):
        net = small_random_net(rng)
        layer = net.layers[0]
        T = 50
        u = rng.standard_normal((T, layer.m))

        def final_state(params_layer):
            h = np.zeros(params_layer.n, complex)
            from lru_online.lru import layer_step
            for t in range(T):
                h, _ = layer_step(params_layer, h, u[t])
            return h

        tr = reset_trace(net)[0]
        h = np.zeros(layer.n, complex)
        from lru_online.lru import layer_step
        for t in range(T):
            tr = trace_step(layer, h, u[t], tr)
            h, _ = layer_step(layer, h, u[t])

        eps = 1e-5
        # the b_im trace is 1j times the b_re trace
        blocks = {"nu": tr.trace_nu, "theta_phase": tr.trace_phase,
                  "gamma_log": tr.trace_gamma, "b_re": tr.trace_b_re,
                  "b_im": 1j * tr.trace_b_re}
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
        lam = derive_lambda(layer)
        tr = reset_trace(net)[0]
        h = np.zeros(layer.n, complex)
        from lru_online.lru import layer_step
        u = rng.standard_normal(layer.m)
        tr = trace_step(layer, h, u, tr)
        h, _ = layer_step(layer, h, u)
        base = tr.trace_b_re.copy()
        zero = np.zeros(layer.m)
        for t in range(100):
            tr = trace_step(layer, h, zero, tr)
            h, _ = layer_step(layer, h, zero)
            expect = lam[:, None] ** (t + 1) * base
            assert np.allclose(tr.trace_b_re, expect, atol=1e-12)

    def test_shape_mismatch(self):
        net = init_network(3, (5,), 2, seed=0)
        bad = EligibilityTrace.zeros(5, 4)
        with pytest.raises(ContractViolationError):
            trace_step(net.layers[0], np.zeros(5, complex), np.zeros(3), bad)


class TestOnlineGradient:
    def test_zero_output_gradient(self, rng):
        net = init_network(3, (5,), 2, seed=2)
        states, y, li = network_step(net, net.zero_states(),
                                     rng.standard_normal(3))
        traces = step_traces(net, net.zero_states(), li, reset_trace(net))
        g = online_gradient(net, traces, states, li, np.zeros(2))
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
        fd = net.unflatten(finite_difference_grads(net, batch))
        g_r = net.unflatten(g_r)
        # top layer C and D depend only instantaneously on the state: exact
        for name in ("c_re", "c_im", "d"):
            denom = np.maximum(np.abs(fd[1][name]), 1e-6)
            assert np.max(np.abs(g_r[1][name] - fd[1][name]) / denom) < 1e-4

    def test_missing_traces_rejected(self, rng):
        net = init_network(3, (5, 4), 2, seed=3)
        states, y, li = network_step(net, net.zero_states(),
                                     rng.standard_normal(3))
        with pytest.raises(ContractViolationError):
            online_gradient(net, reset_trace(net)[:1], states, li, np.zeros(2))

    def test_constant_memory_over_stream(self, rng):
        net = init_network(4, (8,), 2, seed=0)
        traces = reset_trace(net)
        states = net.zero_states()
        shapes = [tr.trace_b_re.shape for tr in traces]
        for t in range(200):
            u = rng.standard_normal(4)
            new_states, y, li = network_step(net, states, u)
            traces = step_traces(net, states, li, traces)
            states = new_states
            assert [tr.trace_b_re.shape for tr in traces] == shapes


ONLINE_REF = Path(__file__).parent / "data" / "online_step_depth2.npz"


def run_reference_stream(steps=40):
    """A fixed depth-2 stream through online_step + apply_update; returns
    every step's prediction, loss and gradient, the final states and
    traces, and the final parameters."""
    net = init_network(3, (5, 4), 2, seed=6)
    rng = np.random.default_rng(2024)
    inputs = rng.standard_normal((steps, 3))
    targets = rng.standard_normal((steps, 2))
    adam = AdamState.init(net.theta, lr=1e-2)
    states, traces = net.zero_states(), reset_trace(net)
    out = {"preds": [], "losses": [], "grads": []}
    for u_t, y_t in zip(inputs, targets):
        states, traces, y_hat, loss, grads = online_step(net, states, traces,
                                                         u_t, y_t)
        apply_update(net.theta, grads, adam, 0.5)
        out["preds"].append(y_hat)
        out["losses"].append(loss)
        out["grads"].append(grads)
    out = {k: np.asarray(v) for k, v in out.items()}
    for k, (h, tr) in enumerate(zip(states, traces)):
        out[f"state_{k}"] = h
        for name, arr in vars(tr).items():
            out[f"{name}_{k}"] = arr
        out[f"trace_b_im_{k}"] = 1j * tr.trace_b_re
    out["theta"] = net.theta
    return out


def test_online_step_matches_reference_stream():
    """online_step is bitwise what it was before the forward pass handed
    lambda, gamma and B u to the trace update (reference written by
    run_reference_stream with the earlier code)."""
    ref = np.load(ONLINE_REF)
    got = run_reference_stream()
    assert sorted(got) == sorted(ref.files)
    for key in ref.files:
        assert np.array_equal(got[key], ref[key]), key
