"""End-to-end acceptance gate.

Each test prints one pass/fail line for its criterion. Criteria 5, 6 and 8
share a module-scoped synthetic scenario and pretrained checkpoint; the
whole file is sized to finish in a few minutes on one core.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (constants, finite_difference_grads, forward_row,
                      max_rel_error, random_batch)
from lru_online.bptt import bptt_gradient
from lru_online.checkpoint import save_checkpoint, load_checkpoint
from lru_online.harness import (FinetuneConfig, OnlineLearner,
                                PretrainConfig, cmd_finetune, cmd_pretrain,
                                impute_benchmark, prepare_tables)
from lru_online.lru import (LruLayerParams, LruNetwork, init_layer,
                            init_network, network_scan, scan_forward)
from lru_online.optim import AdamState, _Descent
from lru_online.rtrl import window_gradient
from lru_online.synth import GeneratorConfig, generate_dataset, write_dataset

GEN = GeneratorConfig(seed=0)  # 5 sessions x 3600 s, shift on the last
PRETRAIN = PretrainConfig(layers=(16,), steps=1000, batch=32, window=128,
                          eval_every=100, seed=0)
LAMBDA_GRID = (0.0, 0.001, 0.01, 0.1)


def report(cap, num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with cap.disabled():
        print(line, flush=True)
    assert ok, line


def random_instance(rng, n_max=16, m_max=8, p_max=5):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    p = int(rng.integers(1, p_max + 1))
    return init_network(m, (n,), p, r_min=0.4, r_max=0.95,
                        seed=int(rng.integers(0, 2 ** 31)))


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    d = tmp_path_factory.mktemp("acceptance-data")
    write_dataset(generate_dataset(GEN), d)
    return prepare_tables(d / "emission.csv", d / "weather.csv")


@pytest.fixture(scope="module")
def checkpoint(scenario):
    pipe, train, val = scenario
    ckpt, result = cmd_pretrain(train, val, pipe, PRETRAIN)
    assert np.isfinite(result.best_val_loss)
    return ckpt


@pytest.fixture(scope="module")
def lambda_runs(checkpoint, scenario):
    stream = scenario[2]
    return {lam: cmd_finetune(checkpoint, stream,
                              FinetuneConfig(lambda_reg=lam, lr=1e-3))
            for lam in LAMBDA_GRID}


def test_criterion_01_rtrl_equals_bptt_depth1(capfd):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        net = random_instance(rng)
        T = int(rng.integers(1, 201))
        inputs, targets = random_batch(rng, net, T)
        _, g_bptt = bptt_gradient(net, inputs, targets)
        _, g_rtrl = window_gradient(net, inputs[:, 0], targets[:, 0])
        worst = max(worst, max_rel_error(g_rtrl, g_bptt))
    report(capfd, 1, "RTRL equals BPTT at depth 1", worst < 1e-8,
           f"max rel err {worst:.3e} over 20 instances")


def test_criterion_02_finite_difference_oracle(capfd):
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10):
        net = random_instance(rng, n_max=6, m_max=4, p_max=3)
        inputs, targets = random_batch(rng, net, T=int(rng.integers(5, 40)))
        fd = finite_difference_grads(net, inputs, targets, eps=1e-5)
        _, g_bptt = bptt_gradient(net, inputs, targets)
        _, g_rtrl = window_gradient(net, inputs[:, 0], targets[:, 0])
        worst = max(worst, max_rel_error(g_bptt, fd, floor=1e-6),
                    max_rel_error(g_rtrl, fd, floor=1e-6))
    report(capfd, 2, "central-difference gradient oracle", worst < 1e-4,
           f"max rel err {worst:.3e} over 10 instances, both paths")


def test_criterion_03_scan_equals_sequential(capfd):
    rng = np.random.default_rng(303)
    worst = 0.0
    for T in (1, 2, 64, 1024):
        layer = init_layer(4, 8, 3, seed=T)
        u = rng.standard_normal((T, 4))
        h0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        h_scan, y_scan = scan_forward(layer, h0, u)
        net, states = LruNetwork([layer]), [h0]
        for t in range(T):
            states, y, _ = forward_row(net, states, u[t])
            h = states[0]
            sh = max(np.abs(h).max(), 1.0)
            sy = max(np.abs(y).max(), 1.0)
            worst = max(worst, np.abs(h_scan[t] - h).max() / sh,
                        np.abs(y_scan[t] - y).max() / sy)
    report(capfd, 3, "parallel scan equals sequential stepping", worst < 1e-10,
           f"max rel err {worst:.3e} for T in {{1, 2, 64, 1024}}")


def test_criterion_04_stability_invariant(capfd):
    rng = np.random.default_rng(404)
    worst = 0.0
    # 1e5 random parameter draws
    for _ in range(100):
        n = 1000
        layer = LruLayerParams.from_blocks(
            nu=rng.uniform(-12.0, 12.0, n),
            theta_phase=rng.uniform(-12.0, 5.0, n),
            gamma_log=np.zeros(n), b_re=np.zeros((n, 1)),
            b_im=np.zeros((n, 1)), c_re=np.zeros((1, n)),
            c_im=np.zeros((1, n)), d=np.zeros((1, 1)))
        lam = constants(layer)[0]
        worst = max(worst, float(np.abs(lam).max()))
    # 1e3 Adam-perturbed configurations
    for i in range(1000):
        net = init_network(2, (8,), 2, seed=i)
        state = AdamState.init(net.theta, lr=0.1)
        for _ in range(5):
            _Descent(net.theta, state, None)(
                rng.standard_normal(net.theta.shape))
        for layer in net.layers:
            lam = constants(layer)[0]
            worst = max(worst, float(np.abs(lam).max()))
    report(capfd, 4, "eigenvalues stay strictly inside the unit circle",
           worst < 1.0, f"max |lambda| {worst:.15f} over 1e5 + 1e3 configs")


def test_criterion_05_finetune_beats_frozen(lambda_runs, capfd):
    m = lambda_runs[0.01]
    ratio = m.total_loss / m.total_loss_frozen
    report(capfd, 5, "online fine-tuning cuts cumulative loss", ratio <= 0.8,
           f"fine-tuned/frozen total loss ratio {ratio:.3f} <= 0.8")


def test_criterion_06_longer_adaptation_wins(checkpoint, scenario, capfd):
    stream = scenario[2]
    totals = {}
    for freeze in (1000, 2000):
        m = cmd_finetune(checkpoint, stream,
                         FinetuneConfig(lambda_reg=0.01, lr=1e-3,
                                        freeze_after=freeze))
        totals[freeze] = m.total_loss
    report(capfd, 6, "freeze-after-2000 beats freeze-after-1000",
           totals[2000] < totals[1000],
           f"total loss {totals[2000]:.1f} < {totals[1000]:.1f}")


def test_criterion_07_rolling_median_beats_knn(capfd):
    out = impute_benchmark(GEN, mask_rate=0.2, window=5, k=20, seed=0)
    report(capfd, 7, "rolling-median imputation beats KNN",
           out["rolling_mse"] < out["knn_mse"],
           f"MSE {out['rolling_mse']:.3f} < {out['knn_mse']:.3f} "
           f"on {out['masked_cells']} masked cells")


def test_criterion_08_anchor_distance_monotone(lambda_runs, capfd):
    dist = [float(lambda_runs[lam].anchor_distance[-1])
            for lam in LAMBDA_GRID]
    monotone = all(dist[i + 1] <= dist[i] + 1e-12
                   for i in range(len(dist) - 1))
    # at lambda = 0 the anchor contributes exactly nothing: from a theta
    # displaced off theta_pre, an anchored update leaves theta and Adam's
    # m, v and t bitwise those of an unanchored one, clipped or not
    rng = np.random.default_rng(808)
    theta_pre = init_network(3, (6,), 2, seed=0).theta
    moved = theta_pre + rng.standard_normal(theta_pre.shape)
    zero = True
    for clip in (0.5, None):
        runs = []
        for anchor in ((theta_pre, 0.0), ()):
            theta = moved.copy()
            state = AdamState.init(theta, lr=1e-2)
            runs.append((theta, state, _Descent(theta, state, clip, *anchor)))
        for _ in range(20):
            g = rng.standard_normal(theta_pre.shape)
            for _, _, descend in runs:
                descend(g)
        (ta, sa, _), (tb, sb, _) = runs
        zero &= (ta.tobytes() == tb.tobytes() and sa.m.tobytes()
                 == sb.m.tobytes() and sa.v.tobytes() == sb.v.tobytes()
                 and sa.t == sb.t == 20)
    report(capfd, 8, "anchor pull strengthens with lambda", monotone and zero,
           "distances " + ", ".join(f"{d:.3f}" for d in dist)
           + "; lambda=0 update bitwise the unanchored one: " + str(zero))


def test_criterion_09_determinism_and_persistence(scenario, tmp_path, capfd):
    pipe, train, val = scenario
    cfg = replace(PRETRAIN, steps=100, batch=8, window=64)
    ckpt_a, res_a = cmd_pretrain(train, val, pipe, cfg)
    ckpt_b, res_b = cmd_pretrain(train, val, pipe, cfg)
    curves_equal = np.allclose(res_a.loss_curve, res_b.loss_curve,
                               rtol=0, atol=0, equal_nan=True)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(ckpt_a, pa)
    save_checkpoint(ckpt_b, pb)
    bytes_equal = pa.read_bytes() == pb.read_bytes()
    reloaded = load_checkpoint(pa)
    _, _, pred_orig = network_scan(ckpt_a.net, val.features)
    _, _, pred_load = network_scan(reloaded.net, val.features)
    preds_equal = np.array_equal(pred_orig, pred_load)
    ok = curves_equal and bytes_equal and preds_equal
    report(capfd, 9, "determinism and checkpoint persistence", ok,
           f"curves {curves_equal}, bytes {bytes_equal}, preds {preds_equal}")


def current_rss_bytes() -> int:
    """Resident set size now (not the peak, which an earlier test in the
    same process may have pushed above anything this test allocates)."""
    try:
        import psutil
    except ImportError:
        try:
            with open("/proc/self/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) * 1024
        except OSError:
            pass
        pytest.skip("needs psutil or /proc/self/status to read the RSS")
    return psutil.Process().memory_info().rss


def test_criterion_10_flat_memory_over_long_stream(capfd):
    """The row loop of cmd_finetune's adaptive pass and of a deployed
    model: OnlineLearner.predict then .observe on every row."""
    import gc
    learner = OnlineLearner(init_network(4, (8,), 2, seed=0),
                            FinetuneConfig(lambda_reg=0.01, lr=1e-4))
    rng = np.random.default_rng(0)
    buf_x = rng.standard_normal((256, 4))
    buf_y = rng.standard_normal((256, 2))
    total_steps = 1_000_000
    warmup = 50_000
    rss_warm = None
    start = time.perf_counter()
    for t in range(total_steps):
        learner.predict(buf_x[t % 256])
        learner.observe(buf_y[t % 256])
        if t == warmup:
            gc.collect()
            rss_warm = current_rss_bytes()
    us_per_row = (time.perf_counter() - start) / total_steps * 1e6
    gc.collect()
    rss_end = current_rss_bytes()
    growth_mb = (rss_end - rss_warm) / 2 ** 20
    # O(T) history for this model would cost hundreds of MB; the trace
    # footprint is fixed, so allow only allocator-level jitter
    report(capfd, 10, "constant memory over a 1e6-step stream", growth_mb < 64.0,
           f"RSS growth {growth_mb:.1f} MB between step {warmup} and the "
           f"end; {us_per_row:.1f} us per row (step and update, depth (8,), "
           f"uncalibrated)")
