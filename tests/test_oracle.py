"""The fixed-theta predictor (bptt._scan_sessions, and through it
cmd_finetune's fixed-theta arrays) against the extended-precision oracle
(tests/oracle.py): each is within oracle.BOUND of it, relative to
max(1, max |oracle|), with the oracle's NaN and infinite entries."""

import numpy as np
import pytest

import oracle
from test_harness import FINETUNE_CONFIGS, finetune_reference_runs
from lru_online.bptt import _scan_sessions
from lru_online.checkpoint import Checkpoint
from lru_online.datapipe import SequenceData
from lru_online.harness import FinetuneConfig, _adapt, cmd_finetune
from lru_online.lru import init_network
from lru_online.optim import AdamState, AnchorConfig


def assert_within_bound(got, ref):
    assert oracle.relative_error(got, ref) <= oracle.BOUND


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


def check_finetune(ckpt, stream, cfg):
    """Every fixed-theta array of cmd_finetune(ckpt, stream, cfg) within
    the bound: the frozen predictions and losses, and the predictions
    and losses of the rows from the freeze on."""
    metrics = cmd_finetune(ckpt, stream, cfg)
    ids, targets = stream.session_ids, stream.targets
    frozen = oracle.predict(ckpt.net.layers, stream.features, ids)
    assert_within_bound(metrics.predictions_frozen, frozen)
    assert_within_bound(metrics.loss_frozen,
                        oracle.huber_rows(frozen, targets))
    freeze = 0 if cfg.lr == 0 else cfg.freeze_after
    if freeze is not None and freeze < stream.n_rows:
        net, states = ckpt.net, None
        if freeze:
            net, states = adapted_at(ckpt, stream, cfg, freeze)
        tail = oracle.predict(net.layers, stream.features, ids, freeze,
                              states)
        assert_within_bound(metrics.predictions[freeze:], tail)
        assert_within_bound(metrics.loss[freeze:],
                            oracle.huber_rows(tail, targets[freeze:]))
    return metrics


@pytest.mark.parametrize("config", list(FINETUNE_CONFIGS))
@pytest.mark.parametrize("name", ["depth1", "depth4x3"])
def test_finetune_reference_runs_within_bound(name, config):
    """The streams and configs of finetune_reference.npz: depth 1 and
    (4, 3), NaN feature rows 10, 35 and 50."""
    ckpt, stream = finetune_reference_runs()[name]
    check_finetune(ckpt, stream, FINETUNE_CONFIGS[config])


@pytest.mark.parametrize("widths", [(16,), (8, 8)])
def test_long_stream_within_bound(widths):
    """One 3601-row session (the length of the benchmark's online
    stream) at 9 inputs and 5 outputs, the ring [0.9, 0.999] and a
    nonzero D."""
    rng = np.random.default_rng(len(widths))
    net = init_network(9, widths, 5, seed=3)
    net.theta += 0.05 * rng.standard_normal(net.theta.size)
    rows = 3601
    stream = SequenceData(features=rng.standard_normal((rows, 9)),
                          targets=rng.standard_normal((rows, 5)),
                          session_ids=np.zeros(rows, dtype=np.int64),
                          timestamps=np.arange(float(rows)))
    check_finetune(Checkpoint(net=net), stream, FinetuneConfig(lr=0.0))


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
def test_nonfinite_rows_within_bound(depth, case, value):
    """Every session scanned from zero states: a non-finite feature row
    (NaN, +inf or -inf) is predicted and holds the states, at a session's
    first or last row, twice in a row and as a one-row session."""
    net, data = cut_net(WIDTHS[depth]), cut_stream(CUTS[case], BAD[value])
    preds = _scan_sessions(net, data)
    assert not np.isfinite(preds[CUTS[case]]).any()
    assert_within_bound(preds, oracle.predict(net.layers, data.features,
                                              data.session_ids))


@pytest.mark.parametrize("bad_start", [False, True],
                         ids=["finite", "nonfinite"])
@pytest.mark.parametrize("start", [17, 13, 0], ids=["mid", "first", "zero"])
@pytest.mark.parametrize("depth", list(WIDTHS))
def test_tail_from_carried_states_within_bound(depth, start, bad_start):
    """Rows [start, N) from given states: mid-session they carry on, at a
    session's first row they are not used; the start row itself may be
    non-finite."""
    net = cut_net(WIDTHS[depth])
    data = cut_stream([start, 25] if bad_start else [25])
    rng = np.random.default_rng(3)
    states = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
              for n in WIDTHS[depth]]
    preds = _scan_sessions(net, data, start, states)
    assert_within_bound(preds, oracle.predict(
        net.layers, data.features, data.session_ids, start, states))


@pytest.mark.parametrize("freeze", [17, 13, 12],
                         ids=["mid", "session_first_row", "one_row_session"])
@pytest.mark.parametrize("depth", list(WIDTHS))
def test_nonfinite_freeze_row_within_bound(depth, freeze):
    """cmd_finetune whose freeze row has a NaN feature: the tail scan
    starts from the adapted states with a held row."""
    ckpt = Checkpoint(net=cut_net(WIDTHS[depth]))
    check_finetune(ckpt, cut_stream([5, freeze, 30]),
                   FinetuneConfig(lambda_reg=0.01, lr=1e-2,
                                  freeze_after=freeze))
