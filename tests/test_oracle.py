"""The float64 code against the extended-precision oracle
(tests/oracle.py): the fixed-theta predictor (bptt._scan_sessions, and
through it cmd_finetune's fixed-theta arrays), the adaptive loop of
online fine-tuning, row by row in shadow mode and free-running where that
is stable, and pretraining. Each array is within its bound of the oracle,
relative to max(1, max |oracle|), with the oracle's NaN and infinite
entries. Every comparison prints one line: the array, its error, its
bound and the margin between them."""

from collections import defaultdict

import numpy as np
import pytest

import oracle
from test_harness import (FINETUNE_CONFIGS, finetune_reference_runs,
                          pretrain_bptt_reference_runs,
                          pretrain_rtrl_reference_runs)
from test_rtrl import reference_stream, run_reference_stream
from lru_online.bptt import _scan_sessions
from lru_online.checkpoint import Checkpoint
from lru_online.datapipe import SequenceData
from lru_online.harness import (FinetuneConfig, PretrainConfig, _adapt,
                                cmd_finetune, cmd_pretrain, prepare_tables)
from lru_online.lru import init_network
from lru_online.optim import AdamState, AnchorConfig, _Descent, apply_update
from lru_online.rtrl import B_RE, NU, PHASE, _StreamPlan
from lru_online.synth import GeneratorConfig, generate_dataset, write_dataset

TINY = np.finfo(np.float64).tiny    # a floor that makes an error relative


@pytest.fixture
def report(capfd, request):
    """report(array, error, bound): print '[oracle] <test> <array>: error
    E, bound B, margin B/E' and assert E <= B."""
    def report(array, error, bound):
        margin = f"{bound / error:.0f}x" if error else "inf"
        line = (f"[oracle] {request.node.name} {array}: error {error:.2e}, "
                f"bound {bound:.0e}, margin {margin}")
        with capfd.disabled():
            print(line, flush=True)
        assert error <= bound, line
    return report


@pytest.fixture
def check(report):
    """check(array, got, ref, bound, floor): report the relative error of
    got against the oracle's ref."""
    def check(array, got, ref, bound=oracle.BOUND, floor=1.0):
        report(array, oracle.relative_error(got, ref, floor), bound)
    return check


def dims(net):
    return [(layer.n, layer.m, layer.p) for layer in net.layers]


def adapted_at(ckpt, stream, cfg, freeze):
    """The network and states that cmd_finetune's adaptive pass leaves
    after row freeze - 1."""
    net = ckpt.net.copy()
    adam = AdamState.init(net.theta, lr=cfg.lr)
    anchor = AnchorConfig(theta_pre=ckpt.net.theta,
                          lambda_reg=cfg.lambda_reg)
    preds, dist = np.empty_like(stream.targets), np.empty(stream.n_rows)
    states, _, _ = _adapt(net, stream, freeze, adam, cfg.clip, anchor,
                          preds, dist)
    return net, states


def check_finetune(check, ckpt, stream, cfg):
    """Every array of cmd_finetune(ckpt, stream, cfg) against the oracle.
    Within BOUND: the frozen predictions and losses, and the predictions
    and losses of the rows from the freeze on, predicted from the float64
    run's adapted parameters and states. Within STREAM_BOUNDS: the
    predictions, losses and anchor distances of the oracle's free-running
    fine-tuning; the skipped updates are equal."""
    metrics = cmd_finetune(ckpt, stream, cfg)
    ids, targets = stream.session_ids, stream.targets
    frozen = oracle.predict(ckpt.net.layers, stream.features, ids)
    check("predictions_frozen", metrics.predictions_frozen, frozen)
    check("loss_frozen", metrics.loss_frozen,
          oracle.huber_rows(frozen, targets))
    freeze = 0 if cfg.lr == 0 else stream.n_rows
    if cfg.freeze_after is not None:
        freeze = min(freeze, cfg.freeze_after)
    if freeze < stream.n_rows:
        net, states = ckpt.net, None
        if freeze:
            net, states = adapted_at(ckpt, stream, cfg, freeze)
        tail = oracle.predict(net.layers, stream.features, ids, freeze,
                              states)
        check("tail predictions", metrics.predictions[freeze:], tail)
        check("tail loss", metrics.loss[freeze:],
              oracle.huber_rows(tail, targets[freeze:]))
    if freeze:
        ref = oracle.finetune(ckpt.net.theta, dims(ckpt.net), stream.features,
                              targets, ids, freeze, cfg.lr, cfg.clip,
                              cfg.lambda_reg)
        for name in ("predictions", "loss", "anchor_distance"):
            check(name, getattr(metrics, name), ref[name],
                  oracle.STREAM_BOUNDS[name])
        assert metrics.skipped_updates == ref["skipped_updates"]
    return metrics


@pytest.mark.parametrize("config", list(FINETUNE_CONFIGS))
@pytest.mark.parametrize("name", ["depth1", "depth4x3"])
def test_finetune_reference_runs_within_bound(check, name, config):
    """The streams and configs of finetune_reference.npz: depth 1 and
    (4, 3), NaN feature rows 10, 35 and 50."""
    ckpt, stream = finetune_reference_runs()[name]
    check_finetune(check, ckpt, stream, FINETUNE_CONFIGS[config])


@pytest.mark.parametrize("widths", [(16,), (8, 8)])
def test_long_stream_within_bound(check, widths):
    """One 3601-row session (the length of the benchmark's online
    stream) at 9 inputs and 5 outputs, the ring [0.9, 0.999] and a
    nonzero D."""
    check_finetune(check, *long_stream(widths), FinetuneConfig(lr=0.0))


def long_stream(widths):
    """(checkpoint, stream) of test_long_stream_within_bound."""
    rng = np.random.default_rng(len(widths))
    net = init_network(9, widths, 5, seed=3)
    net.theta += 0.05 * rng.standard_normal(net.theta.size)
    rows = 3601
    return Checkpoint(net=net), SequenceData(
        features=rng.standard_normal((rows, 9)),
        targets=rng.standard_normal((rows, 5)),
        session_ids=np.zeros(rows, dtype=np.int64),
        timestamps=np.arange(float(rows)))


def test_long_adaptive_stream_within_bound(check):
    """test_long_stream_within_bound's depth-(16,) stream, free-running
    under the benchmark's online config (lambda_reg 0.01, lr 1e-3, clip
    0.5), frozen at row 3000. Not every long stream allows this: on the
    benchmark's own stream a depth-(16,) net pretrained as the benchmark
    does amplifies a rounding difference about tenfold every 300 rows
    (4.5e-4 apart from the oracle at the end), so there only the shadow
    mode is tight."""
    check_finetune(check, *long_stream((16,)),
                   FinetuneConfig(lambda_reg=0.01, freeze_after=3000))


# ---------------------------------------------- cutting a scan at a bad row

SESSIONS = [12, 1, 9, 15]          # rows 0-11, 12, 13-21 and 22-36
CUTS = {"session_first_row": [13], "session_last_row": [11],
        "adjacent_rows": [25, 26], "one_row_session": [12],
        "all_of_these": [11, 12, 13, 25, 26]}
BAD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
WIDTHS = {"depth1": (6,), "depth4x3": (4, 3)}


def cut_net(widths):
    """A 5-input, 2-output net with a nonzero D."""
    net = init_network(5, widths, 2, seed=len(widths))
    net.theta += 0.1 * np.random.default_rng(1).standard_normal(
        net.theta.size)
    return net


def cut_stream(bad_rows=(), value=np.nan):
    rng = np.random.default_rng(2)
    rows = sum(SESSIONS)
    features = rng.standard_normal((rows, 5))
    features[list(bad_rows), 0] = value
    return SequenceData(features=features,
                        targets=rng.standard_normal((rows, 2)),
                        session_ids=np.repeat(np.arange(len(SESSIONS)),
                                              SESSIONS),
                        timestamps=np.arange(float(rows)))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", list(BAD))
@pytest.mark.parametrize("case", list(CUTS))
@pytest.mark.parametrize("depth", list(WIDTHS))
def test_nonfinite_rows_within_bound(check, depth, case, value):
    """Every session scanned from zero states: a non-finite feature row
    (NaN, +inf or -inf) is predicted and holds the states, at a session's
    first or last row, twice in a row and as a one-row session."""
    net, data = cut_net(WIDTHS[depth]), cut_stream(CUTS[case], BAD[value])
    preds = _scan_sessions(net, data)
    assert not np.isfinite(preds[CUTS[case]]).any()
    check("predictions", preds, oracle.predict(net.layers, data.features,
                                               data.session_ids))


@pytest.mark.parametrize("bad_start", [False, True],
                         ids=["finite", "nonfinite"])
@pytest.mark.parametrize("start", [17, 13, 0], ids=["mid", "first", "zero"])
@pytest.mark.parametrize("depth", list(WIDTHS))
def test_tail_from_carried_states_within_bound(check, depth, start,
                                               bad_start):
    """Rows [start, N) from given states: mid-session they carry on, at a
    session's first row they are not used; the start row itself may be
    non-finite."""
    net = cut_net(WIDTHS[depth])
    data = cut_stream([start, 25] if bad_start else [25])
    rng = np.random.default_rng(3)
    states = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
              for n in WIDTHS[depth]]
    preds = _scan_sessions(net, data, start, states)
    check("predictions", preds, oracle.predict(
        net.layers, data.features, data.session_ids, start, states))


@pytest.mark.parametrize("freeze", [17, 13, 12],
                         ids=["mid", "session_first_row", "one_row_session"])
@pytest.mark.parametrize("depth", list(WIDTHS))
def test_nonfinite_freeze_row_within_bound(check, depth, freeze):
    """cmd_finetune whose freeze row has a NaN feature: the tail scan
    starts from the adapted states with a held row."""
    ckpt = Checkpoint(net=cut_net(WIDTHS[depth]))
    check_finetune(check, ckpt, cut_stream([5, freeze, 30]),
                   FinetuneConfig(lambda_reg=0.01, lr=1e-2,
                                  freeze_after=freeze))


# ------------------------------------------------------------ adaptive loop

@pytest.fixture(scope="module")
def generator_stream(tmp_path_factory):
    """The benchmark's online stream: (training data, the shifted
    validation session of the generator's default scenario, 3601 rows of
    8 features and 5 targets)."""
    d = tmp_path_factory.mktemp("oracle-data")
    write_dataset(generate_dataset(GeneratorConfig(seed=0)), d)
    _, train, val = prepare_tables(d / "emission.csv", d / "weather.csv")
    return train, val


@pytest.fixture(scope="module")
def pretrained(generator_stream):
    """{widths: a net pretrained as the benchmark's online set-up does:
    40 BPTT steps of 32 windows of 128 rows}."""
    train, val = generator_stream
    return {widths: cmd_pretrain(train, val, None, PretrainConfig(
                layers=widths, steps=40, batch=32, window=128,
                eval_every=20, seed=0))[0].net
            for widths in ((16,), (8, 8))}


def shadow(monkeypatch, net, stream, freeze, adam, clip, anchor):
    """harness._adapt(net, stream, freeze, adam, clip, anchor), every row
    replayed by oracle.replay_row from the values the float64 run had
    before it (parameters, Adam state, states and traces). Returns the
    worst error of each array over the rows; the applied updates and
    step counts are equal row by row."""
    plan_step, descend_call = _StreamPlan.step, _Descent.__call__
    theta_pre = np.asarray(anchor.theta_pre, np.longdouble)
    worst = defaultdict(float)
    row = {}

    def step(plan, states, traces, u, y):
        row["before"] = (net.theta.copy(), [h.copy() for h in states],
                         [z.copy() for z in traces], u.copy(), y.copy())
        new_states, new_traces, y_hat, grads = plan_step(plan, states,
                                                         traces, u, y)
        row["after"] = (new_states, new_traces, y_hat.copy(), grads.copy())
        return new_states, new_traces, y_hat, grads

    def call(descend, grads):
        a = descend.adam
        adam_before = (a.m.copy(), a.v.copy(), a.t)
        applied = False
        try:
            descend_call(descend, grads)
            applied = True
        finally:
            theta, states, traces, u, y = row["before"]
            ref = oracle.replay_row(theta, dims(net), adam_before, a.lr,
                                    descend.clip, theta_pre,
                                    anchor.lambda_reg, states, traces, u, y)
            assert ref["applied"] == applied and ref["t"] == a.t
            new_states, new_traces, y_hat, g = row["after"]
            got = {"prediction": y_hat, "gradient": g, "theta": net.theta,
                   "m": a.m, "v": a.v, "distance": descend.distance}
            for k, (h, z) in enumerate(zip(new_states, new_traces)):
                got[f"state_{k}"], got[f"trace_{k}"] = h, z
            for name, value in got.items():
                floor = TINY if name in ("m", "v") else 1.0
                worst[name] = max(worst[name], oracle.relative_error(
                    value, ref[name], floor))

    monkeypatch.setattr(_StreamPlan, "step", step)
    monkeypatch.setattr(_Descent, "__call__", call)
    preds, dist = np.empty_like(stream.targets), np.empty(stream.n_rows)
    _adapt(net, stream, freeze, adam, clip, anchor, preds, dist)
    monkeypatch.undo()
    return worst


# (lambda_reg, clip, carried Adam state, freeze row)
SHADOW_CASES = {"anchor_clip_freeze": (0.01, 0.5, False, 3000),
                "bare_carried": (0.0, None, True, None)}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("case", list(SHADOW_CASES))
@pytest.mark.parametrize("widths", [(16,), (8, 8)])
def test_adaptive_rows_within_bound(monkeypatch, report, generator_stream,
                                    pretrained, widths, case):
    """Shadow mode over the benchmark's 3601-row online stream with a NaN
    feature row (500) and a NaN target (row 900): every row's prediction,
    states, traces, gradient, parameters, Adam moments and anchor distance
    within STEP_BOUNDS of one oracle row from the float64 run's values.
    Free-running, this stream cannot be held to a tight bound: with the
    parameters scaled by 1 + 1e-15, the depth-(8, 8) predictions move by
    up to 1.9, first by more than 1e-6 at row 1266."""
    lambda_reg, clip, carry, freeze = SHADOW_CASES[case]
    _, val = generator_stream
    stream = SequenceData(features=val.features.copy(),
                          targets=val.targets.copy(),
                          session_ids=val.session_ids,
                          timestamps=val.timestamps)
    stream.features[500, 3] = np.nan
    stream.targets[900, 4] = np.nan
    net = pretrained[widths].copy()
    adam = AdamState.init(net.theta, lr=1e-3)
    if carry:   # moments and a step count from earlier training
        rng = np.random.default_rng(5)
        for _ in range(3):
            apply_update(net.theta.copy(),
                         0.1 * rng.standard_normal(net.theta.size), adam, None)
    anchor = AnchorConfig(theta_pre=net.theta.copy(), lambda_reg=lambda_reg)
    worst = shadow(monkeypatch, net, stream, freeze or stream.n_rows, adam,
                   clip, anchor)
    for name, error in worst.items():
        report(name, error, oracle.STEP_BOUNDS[name.split("_")[0]])


def test_online_reference_stream_within_bound(check):
    """online_step_depth2.npz's stream, free-running: 40 rows at depth
    (5, 4), online_step + apply_update at lr 1e-2 and clip 0.5."""
    net, inputs, targets = reference_stream()
    got = run_reference_stream()
    ref = oracle.adapt(net.theta, dims(net), inputs, targets,
                       np.zeros(len(inputs)), len(inputs), 1e-2, 0.5)
    bounds = oracle.STREAM_BOUNDS
    check("preds", got["preds"], ref["predictions"], bounds["predictions"])
    check("losses", got["losses"],
          oracle.huber_rows(ref["predictions"], targets), bounds["loss"])
    check("grads", got["grads"], ref["gradients"], bounds["gradients"])
    check("theta", got["theta"], ref["theta"], bounds["theta"])
    for k in range(net.depth):
        z = ref[f"trace_{k}"]
        check(f"state_{k}", got[f"state_{k}"], ref[f"state_{k}"],
              bounds["state"])
        for name, want in (("trace_nu", z[:, NU]),
                           ("trace_phase", z[:, PHASE]),
                           ("trace_b_re", z[:, B_RE])):
            check(f"{name}_{k}", got[f"{name}_{k}"], want, bounds["trace"])


def test_adam_steps_within_bound(report):
    """TestAdam.test_bitwise_equals_textbook_expression's 29 steps: lr
    0.01, gradients scaled by 10^-3 to 10^2."""
    rng = np.random.default_rng(9)
    theta = rng.standard_normal(50)
    ref_theta = np.array(theta, np.longdouble)
    state = AdamState.init(theta, lr=0.01)
    ref = oracle.Adam(np.zeros(50), np.zeros(50))
    worst = defaultdict(float)
    for _ in range(29):
        g = rng.standard_normal(50) * 10.0 ** rng.integers(-3, 3)
        apply_update(theta, g, state, None)
        oracle.descend(ref_theta, np.asarray(g, np.longdouble), ref, 0.01)
        for name, got, want, floor in (("theta", theta, ref_theta, 1.0),
                                       ("m", state.m, ref.m, TINY),
                                       ("v", state.v, ref.v, TINY)):
            worst[name] = max(worst[name],
                              oracle.relative_error(got, want, floor))
    for name, error in worst.items():
        report(name, error, oracle.STREAM_BOUNDS[name])


# --------------------------------------------------------------- pretraining

PRETRAIN_RUNS = {**pretrain_bptt_reference_runs(),
                 **pretrain_rtrl_reference_runs()}


def data_tuple(data):
    return None if data is None else (data.features, data.targets,
                                      data.session_ids)


@pytest.mark.parametrize("key", list(PRETRAIN_RUNS))
def test_pretrain_reference_runs_within_bound(check, key):
    """The runs of pretrain_bptt_reference.npz (depths 1 and (4, 3), clip
    0.5 and none, validated) and of pretrain_rtrl_reference.npz (depths 1
    and (4, 3), no validation data) against the oracle's pretraining from
    the same initial parameters: parameters, loss curve and best
    validation loss."""
    train, val, cfg = PRETRAIN_RUNS[key]
    ckpt, result = cmd_pretrain(train, val, None, cfg)
    start = init_network(train.features.shape[1], cfg.layers,
                         train.targets.shape[1], cfg.r_min, cfg.r_max,
                         cfg.seed)
    theta, curve, best_val, diverged = oracle.train(
        start.theta, dims(start), data_tuple(train), data_tuple(val),
        cfg.steps, cfg.batch, cfg.window, cfg.lr, cfg.clip, cfg.seed,
        cfg.eval_every, cfg.trainer)
    assert result.diverged == diverged
    for name, got, want in (
            ("theta", ckpt.net.theta, theta),
            ("loss_curve", np.asarray(result.loss_curve), curve),
            ("best_val_loss", result.best_val_loss, best_val)):
        check(name, got, want, oracle.PRETRAIN_BOUNDS[name])
