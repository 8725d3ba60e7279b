import csv
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from conftest import forward_row, paired_order, zero_states
from test_rtrl import snapshot
from lru_online.bptt import evaluate as offline_evaluate, sample_windows
from lru_online.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from lru_online.datapipe import SequenceData, impute_rolling_median
from lru_online import cli, harness, optim
from lru_online.cli import EXIT_CODES, build_parser, main
from lru_online.errors import (CheckpointError, CompatibilityError,
                               ConfigurationError, ContractViolationError)
from lru_online.harness import (FinetuneConfig, OnlineLearner,
                                PretrainConfig, cmd_ablate, cmd_evaluate,
                                cmd_finetune, cmd_pretrain, impute_benchmark,
                                prepare_tables)
from lru_online.lru import init_network, network_scan
from lru_online.optim import (AdamState, _Descent, _huber_grad, huber,
                              huber_values)
from lru_online.rtrl import _StreamPlan, reset_trace
from lru_online.synth import GeneratorConfig, generate_dataset, write_dataset

SMALL_GEN = GeneratorConfig(sessions=3, session_seconds=150,
                            missing_rate=0.1, shift_sessions=1, seed=0)
DATA = Path(__file__).parent / "data"
SMALL_PRETRAIN = PretrainConfig(layers=(6,), steps=30, batch=4, lr=1e-2,
                                window=32, eval_every=10, seed=0)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    write_dataset(generate_dataset(SMALL_GEN), d)
    return d


@pytest.fixture(scope="module")
def prepared(data_dir):
    return prepare_tables(data_dir / "emission.csv", data_dir / "weather.csv")


@pytest.fixture(scope="module")
def pretrained(prepared):
    pipe, train, val = prepared
    ckpt, result = cmd_pretrain(train, val, pipe, SMALL_PRETRAIN)
    return ckpt, result


@pytest.fixture(scope="module")
def stream(prepared):
    return prepared[2]


@pytest.fixture
def no_data_read(monkeypatch):
    """The CLI's data reader fails the test if it is called."""
    def fail(*args, **kwargs):
        raise AssertionError("data read")
    monkeypatch.setattr(cli, "prepare_tables", fail)


def built_configs(monkeypatch, argv, builder: str, kind: type) -> list:
    """The `kind` arguments that main(argv) passes to cli.`builder`, with
    the data and checkpoint readers stubbed out."""
    class Built(Exception):
        pass
    built = []

    def capture(*args, **kwargs):
        built.extend(a for a in args if isinstance(a, kind))
        raise Built
    monkeypatch.setattr(cli, builder, capture)
    monkeypatch.setattr(cli, "prepare_tables", lambda *a, **k: (None,) * 3)
    monkeypatch.setattr(cli, "_finetune_stream", lambda args: (None, None))
    with pytest.raises(Built):
        main(argv)
    return built


def validation_only_hours(data_dir, train, val):
    """The lines of data_dir's weather.csv, its hours as floats, and the
    indices of the hours that only the validation session joins."""
    lines = (data_dir / "weather.csv").read_text().splitlines()
    hours = np.array([float(line.split(",")[0]) for line in lines[1:]])

    def joined(ts):
        return set(np.searchsorted(hours, ts, side="right") - 1)

    val_only = joined(val.timestamps) - joined(train.timestamps)
    assert val_only
    return lines, hours, val_only


class TestPrepareTables:
    def test_fits_categories_on_train_only(self, data_dir, prepared,
                                           tmp_path, caplog):
        """Weather hours that only the validation session joins carry a
        conditions value, 'hail', that no training hour has. The
        vocabulary lacks it, the validation rows that carry it one-hot to
        all zeros and a warning names it."""
        _, train, val = prepared
        lines, hours, val_only = validation_only_hours(data_dir, train, val)
        for i in val_only:
            lines[i + 1] = lines[i + 1].rsplit(",", 1)[0] + ",hail"
        weather = tmp_path / "weather.csv"
        weather.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING):
            pipe, _, val = prepare_tables(data_dir / "emission.csv", weather)
        assert "hail" not in pipe.vocabularies["conditions"]
        assert ("column 'conditions': categories ['hail'] not in vocabulary"
                in caplog.text)
        hour = np.searchsorted(hours, val.timestamps, side="right") - 1
        hail = np.isin(hour, list(val_only))
        assert hail.any()
        cond = [j for j, name in enumerate(pipe.feature_names)
                if name.startswith("conditions=")]
        assert np.all(val.features[hail][:, cond] == 0.0)
        assert np.all(val.features[~hail][:, cond].sum(axis=1) == 1.0)

    def test_reads_nothing_of_the_validation_session(self, data_dir, prepared,
                                                     tmp_path):
        """Every numeric cell of the validation session's emission rows and
        of the weather hours only it joins, times 1e6, and those hours'
        conditions set to 'hail', leave the fitted pipeline as it was."""
        pipe, train, val = prepared
        lines, _, val_only = validation_only_hours(data_dir, train, val)

        def scaled(cells):
            return [repr(float(c) * 1e6) if c else c for c in cells]

        for i in val_only:
            hour, *numbers, _ = lines[i + 1].split(",")
            lines[i + 1] = ",".join([hour, *scaled(numbers), "hail"])
        (tmp_path / "weather.csv").write_text("\n".join(lines) + "\n")
        emission = (data_dir / "emission.csv").read_text().splitlines()
        for k, line in enumerate(emission[1:], 1):
            t, *cells = line.split(",")
            if float(t) >= val.timestamps[0]:
                emission[k] = ",".join([t, *scaled(cells)])
        (tmp_path / "emission.csv").write_text("\n".join(emission) + "\n")
        poisoned, _, poisoned_val = prepare_tables(tmp_path / "emission.csv",
                                                   tmp_path / "weather.csv")
        assert np.abs(poisoned_val.targets).min() > 1e3
        assert poisoned.to_dict() == pipe.to_dict()


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, pretrained, tmp_path):
        ckpt, _ = pretrained
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_checkpoint(ckpt, a)
        save_checkpoint(load_checkpoint(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_reloaded_predictions_bitwise(self, pretrained, stream, tmp_path):
        ckpt, _ = pretrained
        path = tmp_path / "c.json"
        save_checkpoint(ckpt, path)
        again = load_checkpoint(path)
        _, _, pa = network_scan(ckpt.net, stream.features)
        _, _, pb = network_scan(again.net, stream.features)
        assert np.array_equal(pa, pb)

    def test_version_mismatch(self, pretrained, tmp_path):
        ckpt, _ = pretrained
        path = tmp_path / "v.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_corruption_reports_byte_offset(self, pretrained, tmp_path):
        ckpt, _ = pretrained
        path = tmp_path / "x.json"
        save_checkpoint(ckpt, path)
        text = path.read_text()
        cut = len(text) // 2
        path.write_text(text[:cut])
        with pytest.raises(CheckpointError, match="byte"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_numpy_integer_widths_save(self, prepared, tmp_path):
        """Widths, counts and the seed given as numpy integers are
        recorded as JSON ints, so the checkpoint saves and loads back
        with the same layers and config."""
        pipe, train, val = prepared
        cfg = replace(SMALL_PRETRAIN, layers=(np.int64(4), np.int32(3)),
                      steps=np.int64(2), seed=np.int32(1))
        ckpt, _ = cmd_pretrain(train, val, pipe, cfg)
        path = tmp_path / "i.json"
        save_checkpoint(ckpt, path)
        again = load_checkpoint(path)
        assert again.config["layers"] == [4, 3]
        assert (again.config["steps"], again.seed) == (2, 1)
        assert [layer.n for layer in again.net.layers] == [4, 3]

    def test_pipeline_survives_roundtrip(self, pretrained, tmp_path):
        ckpt, _ = pretrained
        path = tmp_path / "p.json"
        save_checkpoint(ckpt, path)
        assert load_checkpoint(path).pipeline == ckpt.pipeline

    @pytest.mark.parametrize("edit, match", [
        (lambda p: p[0].update(b_re=[row[:-1] for row in p[0]["b_re"]]),
         "'b_re' has shape"),
        (lambda p: p[0].pop("d"), r"missing blocks \['d'\]"),
        (lambda p: p.append(dict(p[0])), "layer 0 output width"),
        (lambda p: p.__setitem__(0, 1), "layer 0 is not an object"),
        (lambda p: p[0].update(nu={"x": 1}), "params layer 0: float"),
        (lambda p: p[0].update(d=[{"x": 1}]), "params layer 0: float"),
    ], ids=["wrong_shape", "missing_block", "layer_chaining", "not_object",
            "block_is_object", "block_holds_object"])
    def test_malformed_params_rejected(self, pretrained, tmp_path, edit,
                                       match):
        ckpt, _ = pretrained
        path = tmp_path / "m.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        edit(doc["params"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("block", [{"x": 1}, [1]],
                             ids=["unknown_field", "not_object"])
    def test_malformed_pipeline_rejected(self, pretrained, tmp_path, block):
        ckpt, _ = pretrained
        path = tmp_path / "m.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        doc["pipeline"] = block
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="pipeline"):
            load_checkpoint(path)

    def test_reads_null_optimizer_of_earlier_writer(self, pretrained, stream,
                                                    tmp_path):
        """A checkpoint as written when the format still had an optimizer
        key (null in every file the CLI wrote) loads, re-saves without the
        key and predicts bitwise the same."""
        ckpt, _ = pretrained
        now = tmp_path / "now.json"
        save_checkpoint(ckpt, now)
        doc = json.loads(now.read_text())
        assert "optimizer" not in doc
        doc["optimizer"] = None
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        assert '"optimizer": null,' in old.read_text()
        again = load_checkpoint(old)
        save_checkpoint(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == now.read_bytes()
        _, _, pa = network_scan(ckpt.net, stream.features)
        _, _, pb = network_scan(again.net, stream.features)
        assert np.array_equal(pa, pb)

    def test_optimizer_block_rejected(self, pretrained, tmp_path):
        """Optimizer state in a file is an error, not state dropped
        silently: fine-tuning always starts a fresh Adam."""
        ckpt, _ = pretrained
        path = tmp_path / "o.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        doc["optimizer"] = {"t": 3, "lr": 1e-3}
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="optimizer"):
            load_checkpoint(path)

    def test_reads_checkpoint_of_first_format_version(self, tmp_path):
        """A depth-1 checkpoint written before the parameters became one
        flat vector (its optimizer block, which this build no longer reads,
        removed from the file) re-saves byte-identically and still predicts
        what it predicted then, up to the rounding of the full-sequence
        recurrence (acceptance 03's bound)."""
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        save_checkpoint(ckpt, tmp_path / "again.json")
        assert ((tmp_path / "again.json").read_bytes()
                == (DATA / "checkpoint_depth1.json").read_bytes())
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        data = SequenceData(features=ref["features"], targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        assert np.unique(data.session_ids).size == 2
        preds = cmd_evaluate(ckpt, data)["predictions"]
        scale = max(1.0, np.abs(ref["predictions"]).max())
        assert np.abs(preds - ref["predictions"]).max() <= 1e-10 * scale


    @pytest.mark.parametrize("window", ["5", None, 4, True, 5.0],
                             ids=["string", "null", "even", "bool", "float"])
    def test_malformed_window_rejected(self, tmp_path, window):
        """A pipeline window that is not an odd integer >= 3 (lru._is_int,
        so a bool or a float is not one) is a CheckpointError naming the
        file and the window, raised when the file is loaded."""
        doc = json.loads((DATA / "checkpoint_depth1.json").read_text())
        doc["pipeline"]["window"] = window
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="window") as raised:
            load_checkpoint(path)
        assert str(path) in str(raised.value)

    @pytest.mark.parametrize("key, edit", [
        ("numeric_scale['speed_kmh']",
         lambda p: p["numeric_scale"].update(speed_kmh="2")),
        ("numeric_mean['temp_c']",
         lambda p: p["numeric_mean"].update(temp_c=None)),
        ("target_scale['co_ppm']",
         lambda p: p["target_scale"].update(co_ppm=True)),
        ("target_mean['no_ppm']",
         lambda p: p["target_mean"].update(no_ppm=math.nan)),
        ("target_mean['co2_pct']",
         lambda p: p["target_mean"].update(co2_pct=10 ** 400)),
        ("numeric_scale['fuel_lph']",
         lambda p: p["numeric_scale"].update(fuel_lph=0.0)),
        ("target_scale['nox_ppm']",
         lambda p: p["target_scale"].update(nox_ppm=-1)),
        ("numeric_mean", lambda p: p["numeric_mean"].pop("precip_mm")),
        ("target_scale", lambda p: p["target_scale"].update(extra=1.0)),
        ("numeric_mean", lambda p: p["numeric_columns"].append(3)),
        ("vocabularies", lambda p: p["vocabularies"].update(
            weather=p["vocabularies"].pop("conditions"))),
        ("vocabularies['conditions']",
         lambda p: p["vocabularies"].update(conditions="rain")),
        ("feature_names", lambda p: p["feature_names"].pop()),
        ("feature_names", lambda p: p["feature_names"].reverse()),
    ], ids=["scale_string", "mean_null", "scale_bool", "mean_nan",
            "mean_beyond_float64", "scale_zero", "scale_negative",
            "missing_key", "extra_key", "column_not_string",
            "vocabulary_keys", "vocabulary_not_list", "feature_dropped",
            "feature_order"])
    def test_malformed_pipeline_statistics_rejected(self, tmp_path, key,
                                                    edit):
        """Means and scales that are not finite numbers keyed by exactly
        the pipeline's columns (scales > 0), vocabularies not keyed by its
        categorical columns, and feature names other than the ones its
        columns and vocabularies give are a CheckpointError naming the
        file and the key, raised when the file is loaded."""
        doc = json.loads((DATA / "checkpoint_depth1.json").read_text())
        edit(doc["pipeline"])
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as raised:
            load_checkpoint(path)
        assert str(path) in str(raised.value)
        assert f"pipeline {key}" in str(raised.value)

    def test_reads_config_naming_the_rtrl_trainer(self, tmp_path):
        """A checkpoint whose config names the RTRL trainer that
        pretraining once offered loads, and fine-tunes byte for byte as
        the committed one: the config is a record, not an input."""
        doc = json.loads((DATA / "checkpoint_depth1.json").read_text())
        assert doc["config"]["trainer"] == "bptt"
        doc["config"]["trainer"] = "rtrl"
        path = tmp_path / "rtrl.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        data = SequenceData(features=ref["features"], targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        cfg = FinetuneConfig(lambda_reg=0.01, lr=1e-2)
        want = cmd_finetune(load_checkpoint(DATA / "checkpoint_depth1.json"),
                            data, cfg)
        old = load_checkpoint(path)
        assert old.config["trainer"] == "rtrl"
        got = cmd_finetune(old, data, cfg)
        for field, value in vars(want).items():
            assert (np.asarray(getattr(got, field)).tobytes()
                    == np.asarray(value).tobytes()), field

    def test_pretrain_config_has_no_trainer(self, pretrained, tmp_path):
        """A checkpoint that cmd_pretrain writes records PretrainConfig's
        fields, and no trainer among them."""
        ckpt, _ = pretrained
        path = tmp_path / "c.json"
        save_checkpoint(ckpt, path)
        config = json.loads(path.read_text())["config"]
        assert "trainer" not in config
        assert config == {**asdict(SMALL_PRETRAIN), "layers": [6]}


def assert_distinct_arrays(a, b):
    """Writing a leaves b as it was."""
    before = b.copy()
    a[...] = 7.0
    assert np.array_equal(b, before, equal_nan=True)


class TestFinetune:
    def test_lr_zero_equals_frozen(self, pretrained, stream):
        ckpt, _ = pretrained
        m = cmd_finetune(ckpt, stream, FinetuneConfig(lr=0.0))
        assert np.array_equal(m.predictions, m.predictions_frozen)
        assert np.array_equal(m.loss, m.loss_frozen)
        assert np.all(m.anchor_distance == 0.0)
        assert_distinct_arrays(m.predictions, m.predictions_frozen)
        assert_distinct_arrays(m.loss, m.loss_frozen)

    def test_freeze_zero_equals_frozen(self, pretrained, stream):
        ckpt, _ = pretrained
        m = cmd_finetune(ckpt, stream, FinetuneConfig(lr=1e-2, freeze_after=0))
        assert np.array_equal(m.predictions, m.predictions_frozen)
        assert np.array_equal(m.loss, m.loss_frozen)
        assert np.all(m.anchor_distance == 0.0)
        assert_distinct_arrays(m.predictions_frozen, m.predictions)
        assert_distinct_arrays(m.loss_frozen, m.loss)

    def test_freeze_agrees_with_no_freeze_before_cutoff(self, pretrained,
                                                        stream):
        ckpt, _ = pretrained
        N = 40
        cfg = FinetuneConfig(lr=1e-2, lambda_reg=0.01)
        free = cmd_finetune(ckpt, stream, cfg)
        frozen = cmd_finetune(ckpt, stream,
                              FinetuneConfig(lr=1e-2, lambda_reg=0.01,
                                             freeze_after=N))
        # row N, the first the frozen run scans, is within the bound
        assert np.array_equal(free.predictions[:N], frozen.predictions[:N])
        assert oracle.relative_error(frozen.predictions[N],
                                     free.predictions[N]) <= oracle.BOUND
        assert not np.array_equal(free.predictions, frozen.predictions)
        assert np.all(np.diff(frozen.anchor_distance[N:]) == 0.0)

    def test_prediction_logged_before_label(self, pretrained, stream):
        # changing the label at step t must not move any prediction <= t
        from dataclasses import replace
        ckpt, _ = pretrained
        t0 = 25
        tampered = replace(stream, targets=stream.targets.copy())
        tampered.targets[t0] += 100.0
        cfg = FinetuneConfig(lr=1e-2)
        a = cmd_finetune(ckpt, stream, cfg)
        b = cmd_finetune(ckpt, tampered, cfg)
        assert np.array_equal(a.predictions[:t0 + 1], b.predictions[:t0 + 1])
        assert not np.array_equal(a.predictions[t0 + 1:],
                                  b.predictions[t0 + 1:])

    def test_paired_metric_lengths(self, pretrained, stream):
        ckpt, _ = pretrained
        m = cmd_finetune(ckpt, stream, FinetuneConfig(lr=1e-3))
        n = stream.n_rows
        assert m.predictions.shape == m.predictions_frozen.shape \
            == stream.targets.shape
        assert m.loss.shape == m.loss_frozen.shape \
            == m.anchor_distance.shape == (n,)
        s = m.summary()
        assert s["steps"] == n
        assert s["total_loss_finetuned"] == pytest.approx(m.loss.sum())

    def test_feature_width_mismatch(self, pretrained, stream):
        from dataclasses import replace
        ckpt, _ = pretrained
        bad = replace(stream, features=stream.features[:, :2])
        with pytest.raises(CompatibilityError):
            cmd_finetune(ckpt, bad, FinetuneConfig())

    @pytest.mark.parametrize("cfg", [
        FinetuneConfig(), FinetuneConfig(lr=0.0),
        FinetuneConfig(freeze_after=0)])
    @pytest.mark.parametrize("outputs, columns", [(1, 3), (3, 1)])
    def test_target_width_mismatch(self, cfg, outputs, columns):
        """A checkpoint whose output width is not the stream's target
        width is named up front, also where the run never adapts (a 1-wide
        prediction would otherwise broadcast into 3 target columns)."""
        rng = np.random.default_rng(3)
        ckpt = Checkpoint(net=init_network(4, (5,), outputs, seed=2))
        data = SequenceData(features=rng.standard_normal((20, 4)),
                            targets=rng.standard_normal((20, columns)),
                            session_ids=np.zeros(20, dtype=np.int64),
                            timestamps=np.arange(20.0))
        with pytest.raises(CompatibilityError, match="targets"):
            cmd_finetune(ckpt, data, cfg)

    def test_sessions_start_from_zero_state(self, pretrained, prepared):
        ckpt, _ = pretrained
        two = prepared[1]
        _, second = dict.fromkeys(two.session_ids.tolist())
        idx = np.flatnonzero(two.session_ids == second)
        alone = replace(two, features=two.features[idx],
                        targets=two.targets[idx],
                        session_ids=two.session_ids[idx],
                        timestamps=two.timestamps[idx])
        cfg = FinetuneConfig(lr=1e-2, freeze_after=0)
        both = cmd_finetune(ckpt, two, cfg)
        only = cmd_finetune(ckpt, alone, cfg)
        assert np.array_equal(both.predictions[idx], only.predictions)
        assert np.array_equal(both.predictions_frozen[idx],
                              only.predictions_frozen)

    def test_deterministic(self, pretrained, stream):
        ckpt, _ = pretrained
        cfg = FinetuneConfig(lr=1e-2, lambda_reg=0.01)
        a = cmd_finetune(ckpt, stream, cfg)
        b = cmd_finetune(ckpt, stream, cfg)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.anchor_distance, b.anchor_distance)

    def test_nonfinite_step_skipped(self):
        """One NaN feature row skips that step's update; the stream goes on
        from the pre-step parameters, states and traces."""
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        features = ref["features"].copy()
        features[10, 0] = np.nan
        data = SequenceData(features=features, targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        metrics = cmd_finetune(ckpt, data, FinetuneConfig(lambda_reg=0.01))
        assert metrics.skipped_updates == 1
        assert metrics.summary()["skipped_updates"] == 1
        assert np.isnan(metrics.loss[10])         # logged as produced
        assert np.isfinite(metrics.loss[11:]).all()
        # theta stays finite and is not moved by the skipped step
        assert np.isfinite(metrics.anchor_distance).all()
        assert metrics.anchor_distance[10] == metrics.anchor_distance[9]

    @staticmethod
    def _depth1_stream_with_nan(row):
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        features = ref["features"].copy()
        features[row, 0] = np.nan
        data = SequenceData(features=features, targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        return ckpt, data

    def test_nonfinite_row_keeps_frozen_states(self):
        """A NaN feature row leaves the frozen states at their pre-step
        values: later frozen losses and the summary totals stay finite, and
        the step itself is counted, not summed."""
        ckpt, data = self._depth1_stream_with_nan(10)
        metrics = cmd_finetune(ckpt, data, FinetuneConfig(lambda_reg=0.01))
        assert np.isnan(metrics.loss_frozen[10])
        assert np.isfinite(metrics.loss_frozen[11:]).all()
        s = metrics.summary()
        assert s["nonfinite_steps"] == 1
        for key in ("total_loss_finetuned", "total_loss_frozen",
                    "mean_loss_finetuned", "mean_loss_frozen"):
            assert np.isfinite(s[key]), key
        keep = np.arange(metrics.loss.size) != 10
        assert s["total_loss_frozen"] == pytest.approx(
            metrics.loss_frozen[keep].sum())
        assert s["mean_loss_finetuned"] == pytest.approx(
            metrics.loss[keep].mean())
        # the frozen run continues as if the row had not been there, up
        # to the rounding of a scan cut at row 10
        idx = np.arange(11, 20)
        clean = cmd_finetune(ckpt, SequenceData(
            features=np.delete(data.features, 10, axis=0),
            targets=np.delete(data.targets, 10, axis=0),
            session_ids=np.delete(data.session_ids, 10),
            timestamps=np.delete(data.timestamps, 10)), FinetuneConfig(lr=0))
        assert oracle.relative_error(metrics.predictions_frozen[idx],
                                     clean.predictions_frozen[idx - 1]
                                     ) <= oracle.BOUND

    def test_nonfinite_row_after_freeze_keeps_states(self):
        ckpt, data = self._depth1_stream_with_nan(30)
        metrics = cmd_finetune(ckpt, data,
                               FinetuneConfig(lambda_reg=0.01, freeze_after=20))
        assert metrics.skipped_updates == 0
        assert np.isnan(metrics.loss[30])
        assert np.isfinite(metrics.loss[31:]).all()
        assert np.isfinite(metrics.loss_frozen[31:]).all()
        assert metrics.summary()["nonfinite_steps"] == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lr", [0.0, FinetuneConfig().lr],
                             ids=["lr0", "default-lr"])
    def test_no_finite_step_means_are_nan(self, lr):
        """With every feature NaN no step is finite: the means are NaN
        with no "Mean of empty slice" warning, in the summary and in
        cmd_ablate's rows, as cmd_evaluate's metrics are."""
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        data = SequenceData(features=np.full_like(ref["features"], np.nan),
                            targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        s = cmd_finetune(ckpt, data, FinetuneConfig(lr=lr)).summary()
        assert s["nonfinite_steps"] == s["steps"] == len(data.targets)
        assert np.isnan(s["mean_loss_finetuned"])
        assert np.isnan(s["mean_loss_frozen"])
        assert s["total_loss_finetuned"] == s["total_loss_frozen"] == 0.0
        rows = cmd_ablate(ckpt, data, FinetuneConfig(lr=lr))
        assert np.isnan([r["mean_loss"] for r in rows]).all()

    def test_nonfinite_target_advances_states(self):
        """A NaN target with finite features skips only the update: the
        adaptive states and traces advance past the row, as the frozen
        net's do, so the stream equals the RTRL step's two halves and the
        update, run by hand, with that one update left out."""
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        targets = ref["targets"].copy()
        bad = 12
        targets[bad, 1] = np.nan
        data = SequenceData(features=ref["features"], targets=targets,
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        cfg = FinetuneConfig(lambda_reg=0.01, lr=1e-2)
        metrics = cmd_finetune(ckpt, data, cfg)
        assert metrics.skipped_updates == 1
        assert np.isnan(metrics.loss[bad])
        assert np.isfinite(np.delete(metrics.loss, bad)).all()

        net = ckpt.net.copy()
        plan = _StreamPlan(net)
        descend = _Descent(net.theta, AdamState.init(net.theta, lr=cfg.lr),
                           cfg.clip, ckpt.net.theta, cfg.lambda_reg)
        preds = []
        for sid in dict.fromkeys(data.session_ids.tolist()):
            traces = reset_trace(net)
            for t in np.flatnonzero(data.session_ids == sid):
                traces, y_hat, vs = plan.predict(traces, data.features[t])
                if t != bad:
                    g = _huber_grad(y_hat - data.targets[t])
                    descend(plan.gradient(traces, vs, g))
                preds.append(y_hat)
        assert np.array_equal(metrics.predictions, np.asarray(preds))

    # the stream's first session boundary is b = 61, its length N = 122
    @pytest.mark.parametrize("lr, freeze_after", [
        (1e-2, 0), (1e-2, 60), (1e-2, 61), (1e-2, 62), (1e-2, 127),
        (0.0, None)], ids=["0", "60", "61", "62", "127", "lr0"])
    def test_freeze_at_session_boundary_matches_plain_loop(self, lr,
                                                           freeze_after):
        """freeze_after at 0, at, just before and just after the first
        session boundary b, and past the end of the stream, and lr 0 with no
        freeze: cmd_finetune is a plain row loop that adapts with
        OnlineLearner.predict + observe before the freeze and steps the
        learner's net with conftest.forward_row after it, bitwise on the
        adaptive rows and within
        tests/oracle.py's BOUND on the fixed-theta rows (the frozen
        predictions and the rows from the freeze on), which cmd_finetune
        scans. The stream has a NaN feature row after b and a NaN target
        row before it."""
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        nan_x, nan_y = 64, 30
        features, targets = ref["features"].copy(), ref["targets"].copy()
        features[nan_x, 0] = np.nan
        targets[nan_y, 2] = np.nan
        ids = ref["session_ids"]
        assert (np.flatnonzero(ids != ids[0])[0], ids.size) == (61, 122)
        data = SequenceData(features=features, targets=targets,
                            session_ids=ids, timestamps=ref["timestamps"])
        cfg = FinetuneConfig(lambda_reg=0.01, lr=lr,
                             freeze_after=freeze_after)
        metrics = cmd_finetune(ckpt, data, cfg)
        freeze = 0 if lr == 0 else freeze_after

        learner, frozen = OnlineLearner(ckpt.net, cfg), ckpt.net
        preds, preds_frozen, dist = [], [], []
        for t in range(data.n_rows):
            if t == 0 or ids[t] != ids[t - 1]:
                learner.end_session()
                states, frozen_states = learner.states, zero_states(frozen)
            x = features[t]
            new_frozen, y_frozen, _ = forward_row(frozen, frozen_states, x)
            if t < freeze:
                y_hat = learner.predict(x)
                learner.observe(targets[t])
                new_states = learner.states
            else:
                new_states, y_hat, _ = forward_row(learner.net, states, x)
            if t != nan_x:
                states, frozen_states = new_states, new_frozen
            preds.append(y_hat)
            preds_frozen.append(y_frozen)
            d = learner.net.theta - frozen.theta
            dist.append(math.sqrt(d.dot(d)))
        preds, preds_frozen = np.asarray(preds), np.asarray(preds_frozen)
        for got, want, fixed in (
                (metrics.predictions, preds, freeze),
                (metrics.loss, huber_values(preds - targets).mean(axis=1),
                 freeze),
                (metrics.predictions_frozen, preds_frozen, 0),
                (metrics.loss_frozen,
                 huber_values(preds_frozen - targets).mean(axis=1), 0)):
            assert np.array_equal(got[:fixed], want[:fixed], equal_nan=True)
            assert oracle.relative_error(got[fixed:],
                                         want[fixed:]) <= oracle.BOUND
        assert np.array_equal(metrics.anchor_distance, np.asarray(dist))
        assert metrics.skipped_updates == (nan_x < freeze) + (nan_y < freeze)
        assert_distinct_arrays(metrics.predictions, metrics.predictions_frozen)
        assert_distinct_arrays(metrics.loss, metrics.loss_frozen)

    def test_empty_stream_rejected(self, pretrained, stream):
        ckpt, _ = pretrained
        empty = replace(stream, features=stream.features[:0],
                        targets=stream.targets[:0],
                        session_ids=stream.session_ids[:0],
                        timestamps=stream.timestamps[:0])
        with pytest.raises(ContractViolationError, match="no rows"):
            cmd_finetune(ckpt, empty, FinetuneConfig())

    @pytest.mark.parametrize("field, value", [
        ("lr", -1e-3), ("lr", float("nan")), ("freeze_after", -1),
        ("clip", 0.0), ("clip", -0.5), ("lambda_reg", -0.1),
        ("lr", float("inf")), ("lambda_reg", float("inf")),
        ("lambda_reg", float("nan"))])
    def test_invalid_config_rejected(self, field, value):
        """Rejected up front, also where the run would never update."""
        for base in ({}, {"lr": 0.0}, {"freeze_after": 0}):
            with pytest.raises(ConfigurationError, match=field):
                FinetuneConfig(**{**base, field: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.True_, "3"])
    def test_non_integer_freeze_after_rejected(self, value):
        """freeze_after that is not an integer (the integer rule of layer
        widths: a bool is not one) is rejected when the config is built,
        before cmd_finetune runs its frozen pass."""
        with pytest.raises(ConfigurationError, match="freeze_after"):
            FinetuneConfig(freeze_after=value)

    def test_boundary_configs_accepted(self):
        assert FinetuneConfig(freeze_after=np.int64(3)).freeze_after == 3
        for cfg in (FinetuneConfig(lr=0.0), FinetuneConfig(freeze_after=0),
                    FinetuneConfig(clip=None), FinetuneConfig(lambda_reg=0.0)):
            assert isinstance(cfg, FinetuneConfig)


FINETUNE_REF = DATA / "finetune_reference.npz"


FINETUNE_CONFIGS = {
    "adaptive": FinetuneConfig(lambda_reg=0.01, lr=1e-2),
    "freeze0": FinetuneConfig(lambda_reg=0.01, lr=1e-2, freeze_after=0),
    "freeze25": FinetuneConfig(lambda_reg=0.01, lr=1e-2, freeze_after=25),
    "lr0": FinetuneConfig(lr=0.0),
}


def finetune_reference_runs():
    """{net name: (checkpoint, stream)}: the committed depth-1 checkpoint
    with its eval stream and a seeded depth-(4, 3) net with a two-session
    stream. Feature rows 10, 35 and 50 are NaN, so non-finite rows fall
    both before and after the freeze of FINETUNE_CONFIGS["freeze25"]."""
    ref = np.load(DATA / "checkpoint_depth1_eval.npz")
    rng = np.random.default_rng(7)
    runs = {
        "depth1": (load_checkpoint(DATA / "checkpoint_depth1.json"),
                   SequenceData(features=ref["features"].copy(),
                                targets=ref["targets"],
                                session_ids=ref["session_ids"],
                                timestamps=ref["timestamps"])),
        "depth4x3": (Checkpoint(net=init_network(6, (4, 3), 2, seed=11)),
                     SequenceData(features=rng.standard_normal((70, 6)),
                                  targets=rng.standard_normal((70, 2)),
                                  session_ids=np.repeat([0, 1], [40, 30]),
                                  timestamps=np.arange(70.0))),
    }
    for _, data in runs.values():
        data.features[[10, 35, 50], 0] = np.nan
    return runs


def run_finetune_reference():
    """cmd_finetune on each of finetune_reference_runs() under each of
    FINETUNE_CONFIGS: adaptive, freeze_after=0, freeze_after=25 and lr=0.
    Returns every RunMetrics field keyed '<net>.<config>.<field>'."""
    out = {}
    for name, (ckpt, data) in finetune_reference_runs().items():
        for cname, cfg in FINETUNE_CONFIGS.items():
            metrics = cmd_finetune(ckpt, data, cfg)
            for field, value in vars(metrics).items():
                out[f"{name}.{cname}.{field}"] = np.asarray(value)
    return out


def test_finetune_matches_reference():
    """Every RunMetrics array of cmd_finetune against the reference that
    run_finetune_reference wrote when the fixed-theta rows were replayed
    row by row, lambda was exp(-exp(nu)) (cos + i sin)(exp(theta_phase))
    and Adam divided by its bias corrections, NaNs in place. The
    timestamps, targets and skipped updates are bitwise the reference.
    Within tests/oracle.py's bounds of it: the adaptive rows' predictions
    and losses and the anchor distances (STREAM_BOUNDS), and the
    fixed-theta rows, every frozen prediction and loss and the
    predictions and losses from the freeze row on (BOUND)."""
    ref = np.load(FINETUNE_REF)
    got = run_finetune_reference()
    # grad_norm is newer than the reference: test_grad_norm_is_the_update_norm
    assert sorted(k for k in got if not k.endswith(".grad_norm")) == sorted(
        ref.files)
    for key in ref.files:
        _, config, field = key.split(".")
        cfg = FINETUNE_CONFIGS[config]
        if field == "anchor_distance":
            assert oracle.relative_error(got[key], ref[key]) <= (
                oracle.STREAM_BOUNDS[field]), key
            continue
        if field not in ("predictions", "loss", "predictions_frozen",
                         "loss_frozen"):
            assert np.array_equal(got[key], ref[key], equal_nan=True), key
            continue
        fixed = 0                         # the first fixed-theta row
        if field in ("predictions", "loss") and cfg.lr != 0:
            fixed = cfg.freeze_after
        if fixed is None:
            fixed = len(ref[key])
        if fixed:
            assert oracle.relative_error(got[key][:fixed],
                                         ref[key][:fixed]) <= (
                oracle.STREAM_BOUNDS[field]), key
        assert oracle.relative_error(got[key][fixed:],
                                     ref[key][fixed:]) <= oracle.BOUND, key


def public_adapt(learner, stream, freeze, theta_pre):
    """cmd_finetune's adaptive pass as a caller writes it over the public
    OnlineLearner: end_session at each session start from
    stream.session_bounds(), then predict and observe per row, with the
    anchor distance to theta_pre taken afresh. Returns (predictions,
    distances)."""
    starts = set(stream.session_bounds()[0].tolist())
    preds = np.full_like(stream.targets, -1.0)
    dist = np.full(stream.n_rows, -1.0)
    for t in range(freeze):
        if t in starts:
            learner.end_session()
        preds[t] = learner.predict(stream.features[t])
        learner.observe(stream.targets[t])
        d = learner.net.theta - theta_pre
        dist[t] = math.sqrt(d.dot(d))
    return preds, dist


def warmed_learner(net, cfg, rng):
    """An OnlineLearner whose Adam state carries moments and a step count
    from three updates of earlier training on a copy of theta."""
    learner = OnlineLearner(net, cfg)
    theta = learner.net.theta.copy()
    for _ in range(3):
        _Descent(theta, learner.adam, None)(rng.standard_normal(theta.size))
    return learner


@pytest.mark.parametrize("depth", [1, 2])
def test_nonfinite_row_holds_the_adaptive_states(depth):
    """A non-finite feature row leaves the states and traces that the
    learner holds bitwise as they were: the adaptive pass that ends on
    that row leaves the states, traces, parameters and Adam state of the
    pass that ends just before it (the row's update is skipped)."""
    rng = np.random.default_rng(40 + depth)
    net = init_network(3, (5,) * depth, 2, seed=depth)
    rows = 12
    stream = SequenceData(features=rng.standard_normal((rows, 3)),
                          targets=rng.standard_normal((rows, 2)),
                          session_ids=np.zeros(rows, dtype=np.int64),
                          timestamps=np.arange(float(rows)))
    stream.features[rows - 1, 1] = np.nan
    sides = []
    for freeze in (rows - 1, rows):
        learner = OnlineLearner(net, FinetuneConfig(lambda_reg=0.01,
                                                    lr=1e-2))
        harness._adapt(learner, stream, freeze,
                       np.empty_like(stream.targets), np.empty(rows))
        sides.append((snapshot(learner), learner.skipped))
    (before, skipped_before), (held, skipped) = sides
    assert held == before
    assert skipped == skipped_before + 1


# (depth, lambda_reg, clip, carried Adam state)
ADAPT_CASES = [(1, 0.01, 0.5, False), (2, 0.01, 0.5, False),
               (3, 0.0, None, False), (1, 0.1, None, True),
               (2, 0.0, 0.5, True), (3, 0.01, 1e-3, True),
               (2, 0.05, None, False), (1, 0.0, 1e-3, False)]


@pytest.mark.parametrize("case", range(len(ADAPT_CASES)))
def test_kernel_loop_equals_checked_public_path(case):
    """The adaptive pass that cmd_finetune runs (harness._adapt: the
    learner's calls in a loop over the session bounds) is bitwise a
    caller's own loop over the same public calls, with the anchor
    distance taken afresh: predictions, theta, Adam's m, v and t,
    distances, skipped updates and final states. Random (m, n, p); a
    two-session stream with NaN feature rows and NaN targets, and a
    freeze inside the second session."""
    depth, lambda_reg, clip, carry = ADAPT_CASES[case]
    rng = np.random.default_rng(100 + case)
    m, n, p = (int(k) for k in rng.integers(1, 9, size=3))
    net = init_network(m, (n,) * depth, p, r_min=0.5, r_max=0.99,
                       seed=case)
    rows = 45
    features = rng.standard_normal((rows, m))
    targets = rng.standard_normal((rows, p))
    features[[7, 30], 0] = np.nan
    targets[[12, 26], p - 1] = np.nan
    stream = SequenceData(features=features, targets=targets,
                          session_ids=np.repeat([4, 9], [20, 25]),
                          timestamps=np.arange(float(rows)))
    cfg = FinetuneConfig(lambda_reg=lambda_reg, lr=2e-2, clip=clip)
    warm = rng.bit_generator.state
    freeze = 38
    sides = []
    for run in (harness._adapt, None):
        rng.bit_generator.state = warm   # the same warm-up on both sides
        learner = (warmed_learner(net, cfg, rng) if carry
                   else OnlineLearner(net, cfg))
        t_start = learner.adam.t
        if run is None:
            preds, dist = public_adapt(learner, stream, freeze, net.theta)
        else:
            preds = np.full_like(stream.targets, -1.0)
            dist = np.full(stream.n_rows, -1.0)
            run(learner, stream, freeze, preds, dist)
            assert learner.distance == dist[freeze - 1]
        sides.append((preds, dist, learner))
    (pa, da, la), (pb, db, lb) = sides
    assert la.skipped == lb.skipped == 4
    assert pa.tobytes() == pb.tobytes()
    assert da.tobytes() == db.tobytes()
    assert la.net.theta.tobytes() == lb.net.theta.tobytes()
    assert la.adam.m.tobytes() == lb.adam.m.tobytes()
    assert la.adam.v.tobytes() == lb.adam.v.tobytes()
    assert la.adam.t == lb.adam.t == t_start + freeze - 4
    assert ([h.tobytes() for h in la.states]
            == [h.tobytes() for h in lb.states])
    assert not np.array_equal(la.net.theta, net.theta)


def three_session_stream(rng, m, p, layout="float64"):
    """A 3-session stream (rows 0-19, 20-44, 45-59) with a NaN feature row
    in the first session, a NaN target in the second and a NaN feature row
    in the third; its features in the given layout: C-ordered float64,
    float32, or Fortran-ordered float64."""
    features = rng.standard_normal((60, m))
    targets = rng.standard_normal((60, p))
    features[[8, 50], 0] = np.nan
    targets[27, p - 1] = np.nan
    features = {"float64": features, "float32": features.astype(np.float32),
                "fortran": np.asfortranarray(features)}[layout]
    return SequenceData(features=features, targets=targets,
                        session_ids=np.repeat([3, 1, 2], [20, 25, 15]),
                        timestamps=np.arange(60.0))


@pytest.mark.parametrize("layout", ["float64", "float32", "fortran"])
@pytest.mark.parametrize("widths", [(16,), (4, 3)])
def test_cmd_finetune_is_the_public_loop(widths, layout):
    """cmd_finetune, whose adaptive rows run the learner's unchecked steps
    on the stream converted to float64 once, gives every RunMetrics field
    byte for byte as a loop over the public OnlineLearner.predict and
    observe (end_session at each session start, each row passed as it is
    stored) followed by cmd_finetune's fixed-theta scan from the freeze
    row, which falls inside the second session. The public calls have no
    view of the update's norm, so the loop reads grad_norm from the
    learner's _Descent (test_grad_norm_is_the_update_norm checks it)."""
    rng = np.random.default_rng(41)
    stream = three_session_stream(rng, 5, 3, layout)
    ckpt = Checkpoint(net=init_network(5, widths, 3, seed=3))
    cfg = FinetuneConfig(lambda_reg=0.01, lr=1e-2, freeze_after=35)
    got = cmd_finetune(ckpt, stream, cfg)

    frozen = harness._scan_sessions(ckpt.net, stream)
    preds, dist = frozen.copy(), np.zeros(stream.n_rows)
    norms = np.full(stream.n_rows, np.nan)
    learner = OnlineLearner(ckpt.net, cfg)
    starts = set(stream.session_bounds()[0].tolist())
    for t in range(35):
        if t in starts:
            learner.end_session()
        preds[t] = learner.predict(stream.features[t])
        learner.observe(stream.targets[t])
        dist[t] = learner.distance
        norms[t] = math.sqrt(learner._descend.sq)
    dist[35:] = learner.distance
    preds[35:] = harness._scan_sessions(learner.net, stream, 35,
                                        learner.states)
    want = harness.RunMetrics(
        timestamps=stream.timestamps, targets=stream.targets,
        predictions=preds, predictions_frozen=frozen,
        loss=huber_values(preds - stream.targets).mean(axis=1),
        loss_frozen=huber_values(frozen - stream.targets).mean(axis=1),
        anchor_distance=dist, grad_norm=norms,
        skipped_updates=learner.skipped)
    assert got.skipped_updates == 2
    assert np.isnan(got.predictions[[8, 50]]).all()
    for field, value in vars(want).items():
        have = np.asarray(getattr(got, field))
        assert have.dtype == np.asarray(value).dtype, field
        assert have.tobytes() == np.asarray(value).tobytes(), field


def test_predictions_are_float64_for_float32_targets():
    """A stream with float32 targets gets float64 predictions,
    predictions_frozen and cmd_evaluate predictions, byte for byte those
    of the same stream with its targets cast to float64 (the freeze row
    falls inside the second session, so the scan from it runs too)."""
    rng = np.random.default_rng(43)
    single = SequenceData(
        features=rng.standard_normal((30, 5)),
        targets=rng.standard_normal((30, 3)).astype(np.float32),
        session_ids=np.repeat([0, 1], [12, 18]),
        timestamps=np.arange(30.0))
    double = replace(single, targets=single.targets.astype(np.float64))
    ckpt = Checkpoint(net=init_network(5, (4,), 3, seed=2))
    cfg = FinetuneConfig(lr=1e-2, freeze_after=20)
    got, want = (cmd_finetune(ckpt, s, cfg) for s in (single, double))
    got_eval, want_eval = (cmd_evaluate(ckpt, s)["predictions"]
                           for s in (single, double))
    for name, a, b in (
            ("predictions", got.predictions, want.predictions),
            ("predictions_frozen", got.predictions_frozen,
             want.predictions_frozen),
            ("evaluate", got_eval, want_eval)):
        assert a.dtype == b.dtype == np.float64, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("widths, lambda_reg, clip", [
    ((16,), 0.01, 2.0), ((4, 3), 0.1, 1.0), ((4, 3), 0.0, None)])
def test_grad_norm_is_the_update_norm(monkeypatch, widths, lambda_reg, clip):
    """RunMetrics.grad_norm is the L2 norm of each adaptive row's RTRL
    gradient plus the anchor pull (theta - theta_pre) lambda_reg /
    ||theta - theta_pre|| before the clip, bitwise a plain loop's
    np.linalg.norm of that sum; NaN on the skipped rows (a NaN feature
    row and a NaN target) and on every row from the freeze on. The clip
    scales a row's gradient exactly where grad_norm > clip (the CLI's
    `clipped` column)."""
    rng = np.random.default_rng(9)
    stream = three_session_stream(rng, 5, 3)
    ckpt = Checkpoint(net=init_network(5, widths, 3, seed=4))
    cfg = FinetuneConfig(lambda_reg=lambda_reg, lr=1e-2, clip=clip,
                         freeze_after=35)
    acted, clip_kernel = [], optim._clip

    def recording_clip(grads, *args):
        out = clip_kernel(grads, *args)
        acted.append(out is not grads)
        return out

    monkeypatch.setattr(optim, "_clip", recording_clip)
    got = cmd_finetune(ckpt, stream, cfg).grad_norm
    monkeypatch.undo()

    net = ckpt.net.copy()
    plan = _StreamPlan(net)
    descend = _Descent(net.theta, AdamState.init(net.theta, lr=cfg.lr), clip)
    want = np.full(stream.n_rows, np.nan)
    starts = set(stream.session_bounds()[0].tolist())
    for t in range(35):
        if t in starts:
            traces = reset_trace(net)
        new_traces, y_hat, vs = plan.predict(traces, stream.features[t])
        if np.isfinite(stream.features[t]).all():
            traces = new_traces
        grad = plan.gradient(new_traces, vs,
                             _huber_grad(y_hat - stream.targets[t])).copy()
        if not np.isfinite(grad).all():
            continue
        diff = net.theta - ckpt.net.theta
        d = np.linalg.norm(diff)
        grad += diff * (lambda_reg / d) if d else 0.0
        want[t] = np.linalg.norm(grad)
        descend(grad)
    updated = np.isfinite(want)
    assert np.flatnonzero(~updated[:35]).tolist() == [8, 27]
    assert np.array_equal(np.isnan(got), ~updated)
    assert got[updated].tobytes() == want[updated].tobytes()
    if clip is None:
        assert acted == []
    else:
        assert acted == (got[updated] > clip).tolist()
        assert any(acted) and not all(acted)


def assert_matches_pretrain_reference(got, ref, keys, runs):
    """The divergence flags bitwise, the parameters, loss curves and best
    validation losses within tests/oracle.py's PRETRAIN_BOUNDS, NaN
    validation losses in place. `runs` are the runs' (training data,
    validation data, config) by key prefix; the references' flat
    parameters are read through conftest's paired_order."""
    assert sorted(got) == sorted(keys)
    for key in keys:
        prefix, field = key.rsplit(".", 1)
        want = ref[key]
        if field == "diverged":
            assert np.array_equal(got[key], want), key
            continue
        if field == "theta":
            data, _, cfg = runs[prefix]
            want = want[paired_order(data.features.shape[1], cfg.layers,
                                     data.targets.shape[1])]
        assert oracle.relative_error(got[key], want) <= (
            oracle.PRETRAIN_BOUNDS[field]), key


PRETRAIN_BPTT_REF = DATA / "pretrain_bptt_reference.npz"


def pretrain_bptt_reference_runs():
    """{key prefix: (training data, validation data, config)}: BPTT
    pretraining of a depth-1 and a depth-(4, 3) net, with the 0.5 clip
    and without clipping, on a seeded two-session stream, validated on a
    second one, so the returned parameters are the best-validation ones.
    lr is high enough that the 0.5 clip acts on some updates."""
    rng = np.random.default_rng(22)

    def stream(rows, split):
        return SequenceData(features=rng.standard_normal((rows, 3)),
                            targets=rng.standard_normal((rows, 2)),
                            session_ids=np.repeat([0, 1], split),
                            timestamps=np.arange(float(rows)))

    train_data, val_data = stream(70, [40, 30]), stream(50, [20, 30])
    return {"x".join(map(str, layers)) + f".clip{clip}": (
                train_data, val_data,
                PretrainConfig(layers=layers, clip=clip, steps=12, batch=4,
                               window=16, eval_every=3, lr=5e-2, seed=3))
            for layers in ((5,), (4, 3)) for clip in (0.5, None)}


def run_pretrain_bptt_reference():
    """cmd_pretrain on each of pretrain_bptt_reference_runs(). Returns the
    parameters, the loss curve, the best validation loss and the
    divergence flag of each run keyed '<layers>.clip<clip>.<field>'."""
    out = {}
    for key, (train_data, val_data, cfg) in (
            pretrain_bptt_reference_runs().items()):
        ckpt, result = cmd_pretrain(train_data, val_data, None, cfg)
        out[key + ".theta"] = ckpt.net.theta
        out[key + ".loss_curve"] = np.asarray(result.loss_curve)
        out[key + ".best_val_loss"] = np.asarray(result.best_val_loss)
        out[key + ".diverged"] = np.asarray(result.diverged)
    return out


def test_pretrain_bptt_matches_reference():
    """BPTT pretraining (depths 1 and 2, clipped and unclipped, with
    validation data) is what it was when bptt_step called apply_update,
    which composed the update afresh each step, lambda was exp(-exp(nu))
    (cos + i sin)(exp(theta_phase)), Adam divided by its bias corrections
    and theta stored b and c as separate re and im blocks (reference
    written by run_pretrain_bptt_reference with that code), within
    assert_matches_pretrain_reference's bounds."""
    ref = np.load(PRETRAIN_BPTT_REF)
    assert_matches_pretrain_reference(run_pretrain_bptt_reference(), ref,
                                      ref.files,
                                      pretrain_bptt_reference_runs())


class TestPretrain:
    # the case's id names the update cadence: BPTT, once per sampled
    # batch of windows
    @pytest.mark.parametrize("batch", [4], ids=["bptt-window"])
    def test_nan_features_set_diverged(self, batch):
        rng = np.random.default_rng(0)
        n = 60
        clean = SequenceData(features=rng.standard_normal((n, 3)),
                             targets=rng.standard_normal((n, 2)),
                             session_ids=np.zeros(n, dtype=np.int64),
                             timestamps=np.arange(n, dtype=np.float64))
        bad = replace(clean, features=clean.features.copy())
        bad.features[-1] = np.nan          # in 1 of the 45 windows
        cfg = PretrainConfig(layers=(4,), steps=200, batch=batch,
                             window=16, eval_every=1, lr=1e-2, seed=1)
        ckpt, result = cmd_pretrain(bad, clean, None, cfg)
        assert result.diverged
        assert 0 < len(result.loss_curve) < cfg.steps
        assert np.isfinite(ckpt.net.theta).all()
        # the kept parameters are the best ones validated before divergence
        assert result.best_val_loss == min(v for _, _, v in result.loss_curve)
        assert offline_evaluate(ckpt.net, clean) == result.best_val_loss


class TestAblate:
    def test_row_count_and_consistency(self, pretrained, stream):
        ckpt, _ = pretrained
        base = FinetuneConfig(lr=1e-2)
        rows = cmd_ablate(ckpt, stream, base)
        assert len(rows) == 4 + 2 * 3 + 1
        kinds = [r["kind"] for r in rows]
        assert kinds.count("lambda") == 4
        assert kinds.count("freeze") == 6
        assert kinds.count("baseline") == 1
        # the lambda=0 full-horizon row must match a direct run
        from dataclasses import replace
        direct = cmd_finetune(ckpt, stream,
                              replace(base, lambda_reg=0.0, freeze_after=None))
        lam0 = next(r for r in rows
                    if r["kind"] == "lambda" and r["lambda_reg"] == 0.0)
        assert lam0["total_loss"] == pytest.approx(direct.total_loss)
        baseline = next(r for r in rows if r["kind"] == "baseline")
        assert baseline["total_loss"] == pytest.approx(
            direct.total_loss_frozen)


    @staticmethod
    def fake_runs(monkeypatch, best):
        """cmd_finetune replaced by a fake whose total loss is least at
        lambda `best` and grows with freeze_after; returns its calls as
        (lambda_reg, freeze_after)."""
        calls = []

        class Fake:
            def __init__(self, cfg):
                self.total_loss = abs(cfg.lambda_reg - best) + (
                    0.0 if cfg.freeze_after is None else cfg.freeze_after)
                self.mean_loss = self.total_loss / 10
                self.total_loss_frozen, self.mean_loss_frozen = 5.0, 0.5
                self.anchor_distance = np.array([cfg.lambda_reg])

        def fake_finetune(ckpt, stream, cfg):
            calls.append((cfg.lambda_reg, cfg.freeze_after))
            return Fake(cfg)

        monkeypatch.setattr(harness, "cmd_finetune", fake_finetune)
        return calls

    @pytest.mark.parametrize("best", [0.0, 0.01])
    def test_freeze_grid_runs_once_per_distinct_lambda(self, monkeypatch,
                                                        best):
        """With the best lambda 0 the two freeze grids are the same runs:
        they run once and their rows appear twice."""
        calls = self.fake_runs(monkeypatch, best)
        stream = SimpleNamespace(n_rows=max(harness.FREEZE_GRID) + 1)
        rows = cmd_ablate(None, stream, FinetuneConfig(lr=1e-2))
        grid = harness.FREEZE_GRID
        lambdas = [(lam, None) for lam in harness.LAMBDA_GRID]
        if best == 0.0:
            assert calls == lambdas + [(0.0, f) for f in grid]
        else:
            assert calls == (lambdas + [(best, f) for f in grid]
                             + [(0.0, f) for f in grid])
        freeze = [r for r in rows if r["kind"] == "freeze"]
        assert [(r["lambda_reg"], r["freeze_after"]) for r in freeze] == \
            [(best, f) for f in grid] + [(0.0, f) for f in grid]
        assert [r["total_loss"] for r in freeze] == \
            [abs(lam - best) + f for lam in (best, 0.0) for f in grid]
        assert freeze[0] is not freeze[3]
        assert len(rows) == 4 + 2 * 3 + 1

    @pytest.mark.parametrize("best", [0.0, 0.01])
    def test_freeze_at_stream_length_is_the_full_horizon(self, monkeypatch,
                                                         best):
        """A freeze_after of at least the stream's length (2000 rows:
        freezes 2000 and 3000) is the full-horizon run of its lambda, so
        only freeze 1000 runs again."""
        calls = self.fake_runs(monkeypatch, best)
        rows = cmd_ablate(None, SimpleNamespace(n_rows=2000),
                          FinetuneConfig(lr=1e-2))
        lambdas = [(lam, None) for lam in harness.LAMBDA_GRID]
        again = [(lam, 1000) for lam in dict.fromkeys((best, 0.0))]
        assert calls == lambdas + again
        freeze = [r for r in rows if r["kind"] == "freeze"]
        assert [r["total_loss"] for r in freeze] == \
            [abs(lam - best) + (1000 if f == 1000 else 0)
             for lam in (best, 0.0) for f in harness.FREEZE_GRID]
        assert [r["freeze_after"] for r in freeze] == \
            list(harness.FREEZE_GRID) * 2

    @pytest.mark.parametrize("lr, best", [(1e-3, 0.0), (1e-1, 0.01)])
    def test_rows_are_direct_finetune_runs(self, monkeypatch, lr, best):
        """On the committed depth-1 checkpoint and its stream, every row is
        bitwise its cell's direct cmd_finetune run. The best lambda is the
        first minimum of the lambda rows' totals in grid order, and the
        baseline row holds the frozen totals of the last lambda run. The
        stream's 122 rows are fewer than every freeze of FREEZE_GRID, so
        each freeze cell is its lambda's full-horizon run: cmd_ablate runs
        cmd_finetune once per lambda."""
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        data = SequenceData(features=ref["features"], targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        base = FinetuneConfig(lr=lr)

        def direct(kind, lam, freeze):
            m = cmd_finetune(ckpt, data, replace(base, lambda_reg=lam,
                                                 freeze_after=freeze))
            return m, {"kind": kind, "lambda_reg": lam,
                       "freeze_after": "" if freeze is None else freeze,
                       "total_loss": m.total_loss, "mean_loss": m.mean_loss,
                       "final_anchor_distance": float(m.anchor_distance[-1])}

        runs = [direct("lambda", lam, None) for lam in harness.LAMBDA_GRID]
        totals = [m.total_loss for m, _ in runs]
        assert harness.LAMBDA_GRID[totals.index(min(totals))] == best
        expect = [row for _, row in runs]
        expect += [direct("freeze", lam, freeze)[1] for lam in (best, 0.0)
                   for freeze in harness.FREEZE_GRID]
        last = runs[-1][0]
        expect.append({"kind": "baseline", "lambda_reg": "",
                       "freeze_after": "",
                       "total_loss": last.total_loss_frozen,
                       "mean_loss": last.mean_loss_frozen,
                       "final_anchor_distance": 0.0})
        calls, finetune = [], harness.cmd_finetune

        def counted(ckpt, stream, cfg):
            calls.append((cfg.lambda_reg, cfg.freeze_after))
            return finetune(ckpt, stream, cfg)

        monkeypatch.setattr(harness, "cmd_finetune", counted)
        assert cmd_ablate(ckpt, data, base) == expect
        assert data.n_rows == 122 < min(harness.FREEZE_GRID)
        assert calls == [(lam, None) for lam in harness.LAMBDA_GRID]

    @pytest.mark.parametrize("lr, grid, expect_calls", [
        (0.0, harness.FREEZE_GRID, [(0.0, None)]),
        (1e-1, (0, 1000),
         [(lam, None) for lam in harness.LAMBDA_GRID] + [(0.01, 0)])],
        ids=["lr0", "freeze0"])
    def test_frozen_cells_run_once(self, monkeypatch, lr, grid,
                                   expect_calls):
        """A cell that never updates (lr 0, or freeze_after 0) is the one
        frozen run whatever its lambda. On the committed depth-1 checkpoint
        and its 122-row stream, cmd_ablate at lr 0 runs cmd_finetune once;
        at lr 0.1 (best lambda 0.01) with a freeze grid of (0, 1000), the
        cells (0.01, 0) and (0, 0) share one run. Every row is still
        bitwise its cell's direct run."""
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        data = SequenceData(features=ref["features"], targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        base = FinetuneConfig(lr=lr)
        monkeypatch.setattr(harness, "FREEZE_GRID", grid)
        calls, finetune = [], harness.cmd_finetune

        def counted(ckpt, stream, cfg):
            calls.append((cfg.lambda_reg, cfg.freeze_after))
            return finetune(ckpt, stream, cfg)

        monkeypatch.setattr(harness, "cmd_finetune", counted)
        rows = cmd_ablate(ckpt, data, base)
        assert calls == expect_calls
        assert len(rows) == 4 + 2 * len(grid) + 1
        for row in rows[:-1]:
            freeze = row["freeze_after"]
            m = finetune(ckpt, data, replace(
                base, lambda_reg=row["lambda_reg"],
                freeze_after=None if freeze == "" else freeze))
            assert (row["total_loss"], row["mean_loss"],
                    row["final_anchor_distance"]) == (
                m.total_loss, m.mean_loss, float(m.anchor_distance[-1]))


class TestEvaluate:
    def test_consistent_with_offline_loss(self, pretrained, stream):
        ckpt, _ = pretrained
        result = cmd_evaluate(ckpt, stream)
        assert result["huber_mean"] == pytest.approx(
            offline_evaluate(ckpt.net, stream), rel=1e-12)
        assert set(result["per_target_mse"]) == set(stream.target_names)
        assert result["predictions"].shape == stream.targets.shape

    def test_deterministic(self, pretrained, stream):
        ckpt, _ = pretrained
        a = cmd_evaluate(ckpt, stream)
        b = cmd_evaluate(ckpt, stream)
        assert np.array_equal(a["predictions"], b["predictions"])

    @pytest.mark.parametrize("nan_rows", [[], [10, 35, 50]],
                             ids=["clean", "nan"])
    def test_is_finetunes_frozen_baseline(self, nan_rows):
        """cmd_evaluate and cmd_finetune's frozen predictions are one
        computation, bitwise, also with NaN feature rows; each NaN row
        leaves the rest of its session finite."""
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        features = ref["features"].copy()
        features[nan_rows, 0] = np.nan
        data = SequenceData(features=features, targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        preds = cmd_evaluate(ckpt, data)["predictions"]
        frozen = cmd_finetune(ckpt, data,
                              FinetuneConfig(lr=0.0)).predictions_frozen
        assert frozen.tobytes() == preds.tobytes()
        assert np.array_equal(np.flatnonzero(np.isnan(preds).any(axis=1)),
                              nan_rows)

    def test_metrics_score_finite_rows(self):
        """NaN feature rows are left out of the metrics, as bptt.evaluate
        leaves them out, and counted; clean data is scored in one pass."""
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        features = ref["features"].copy()
        data = SequenceData(features=features, targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        clean = cmd_evaluate(ckpt, data)
        resid = clean["predictions"] - data.targets
        assert clean["huber_mean"] == huber(resid)
        assert clean["huber_total"] == huber(resid) * len(resid)
        assert list(clean["per_target_mse"].values()) == list(
            np.mean(resid * resid, axis=0))
        assert clean["nonfinite_steps"] == 0
        features[[10, 35], 0] = np.nan
        result = cmd_evaluate(ckpt, data)
        kept = np.delete(result["predictions"] - data.targets, [10, 35], 0)
        assert result["nonfinite_steps"] == 2
        assert result["huber_mean"] == huber(kept)
        assert result["huber_mean"] == offline_evaluate(ckpt.net, data)
        assert result["huber_total"] == huber(kept) * (len(data.targets) - 2)
        assert list(result["per_target_mse"].values()) == list(
            np.mean(kept * kept, axis=0))

    def test_no_finite_row_is_nan(self):
        ckpt = load_checkpoint(DATA / "checkpoint_depth1.json")
        ref = np.load(DATA / "checkpoint_depth1_eval.npz")
        data = SequenceData(features=np.full_like(ref["features"], np.nan),
                            targets=ref["targets"],
                            session_ids=ref["session_ids"],
                            timestamps=ref["timestamps"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cmd_evaluate(ckpt, data)
        assert result["nonfinite_steps"] == len(data.targets)
        assert np.isnan(result["huber_mean"])
        assert np.isnan(result["huber_total"])
        assert np.isnan(list(result["per_target_mse"].values())).all()

    @pytest.mark.parametrize("outputs, columns", [(1, 3), (3, 1)])
    def test_target_width_mismatch(self, outputs, columns):
        rng = np.random.default_rng(4)
        ckpt = Checkpoint(net=init_network(4, (5,), outputs, seed=2))
        data = SequenceData(features=rng.standard_normal((20, 4)),
                            targets=rng.standard_normal((20, columns)),
                            session_ids=np.zeros(20, dtype=np.int64),
                            timestamps=np.arange(20.0))
        with pytest.raises(CompatibilityError, match="targets"):
            cmd_evaluate(ckpt, data)

    def test_empty_data_rejected(self, pretrained, stream):
        """Named up front, not NaN metrics after "Mean of empty slice"."""
        ckpt, _ = pretrained
        empty = replace(stream, features=stream.features[:0],
                        targets=stream.targets[:0],
                        session_ids=stream.session_ids[:0],
                        timestamps=stream.timestamps[:0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="no rows"):
                cmd_evaluate(ckpt, empty)


@pytest.mark.parametrize("consume", [
    lambda ckpt, data: cmd_finetune(ckpt, data, FinetuneConfig(lr=1e-2)),
    lambda ckpt, data: cmd_evaluate(ckpt, data),
    lambda ckpt, data: offline_evaluate(ckpt.net, data),
    lambda ckpt, data: sample_windows(data, 5, 4, rng=0),
], ids=["cmd_finetune", "cmd_evaluate", "bptt.evaluate", "sample_windows"])
def test_returning_session_id_rejected(consume):
    """A session id that comes back after another id would join two runs of
    rows into one session, and cmd_finetune would adapt on the later run
    before it predicts the rows in between: every consumer of sessions
    rejects it."""
    rng = np.random.default_rng(3)
    data = SequenceData(features=rng.standard_normal((60, 3)),
                        targets=rng.standard_normal((60, 2)),
                        session_ids=np.repeat([0, 1, 0], 20),
                        timestamps=np.arange(60.0))
    ckpt = Checkpoint(net=init_network(3, (4,), 2, seed=0))
    with pytest.raises(ContractViolationError, match="session 0"):
        consume(ckpt, data)


class TestImputeBenchmark:
    def test_reports_both_imputers(self):
        out = impute_benchmark(SMALL_GEN, mask_rate=0.2, seed=0)
        assert out["masked_cells"] > 0
        assert out["rolling_mse"] > 0.0
        assert out["knn_mse"] > 0.0

    @pytest.mark.parametrize("mask_rate", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_mask_rate_rejected(self, monkeypatch, mask_rate):
        """A mask_rate outside (0, 1], or NaN, is a ConfigurationError
        raised before any data is generated."""
        def no_data(cfg):
            raise AssertionError("data generated")
        monkeypatch.setattr(harness, "generate_dataset", no_data)
        with pytest.raises(ConfigurationError, match="mask_rate"):
            impute_benchmark(SMALL_GEN, mask_rate=mask_rate)

    def test_session_endpoints_stay_observed(self, monkeypatch):
        """Every session's first and last rows reach the imputers
        observed, also in a validation table of two sessions."""
        seen = []

        def spy(table, window):
            seen.append(table)
            return impute_rolling_median(table, window)
        monkeypatch.setattr(harness, "impute_rolling_median", spy)
        gen = GeneratorConfig(sessions=10, session_seconds=300)
        for seed in range(20):
            impute_benchmark(gen, seed=seed)
            table = seen.pop()
            first, stop = table.session_bounds()
            assert len(first) == 2
            for c in table.numeric_columns():
                ends = table.columns[c][np.concatenate([first, stop - 1])]
                assert np.isfinite(ends).all(), (seed, c)

    def test_draw_masking_no_row_rejected(self):
        with pytest.raises(ConfigurationError, match="masked none"):
            impute_benchmark(SMALL_GEN, mask_rate=1e-12)

    @pytest.mark.parametrize("gen_seed, mask_seed", [(0, -1), (-1, 0)])
    def test_negative_seed_rejected(self, gen_seed, mask_seed):
        with pytest.raises(ConfigurationError, match="seed"):
            impute_benchmark(replace(SMALL_GEN, seed=gen_seed),
                             seed=mask_seed)


class TestCli:
    def test_gen_preprocess_pretrain_finetune(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--sessions", "3",
                     "--session-seconds", "150", "--missing-rate", "0.1",
                     "--seed", "0"]) == 0
        run = tmp_path / "pre"
        assert main(["pretrain", "--data", str(data), "--run-dir", str(run),
                     "--layers", "4", "--steps", "5", "--batch", "2",
                     "--window", "16", "--eval-every", "5"]) == 0
        ckpt = run / "checkpoint.json"
        assert ckpt.exists()
        summary = json.loads((run / "summary.json").read_text())
        assert summary["command"] == "pretrain"

        ft = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--checkpoint",
                     str(ckpt), "--run-dir", str(ft), "--lambda-reg",
                     "0.01"]) == 0
        header = (ft / "metrics.csv").read_text().splitlines()[0].split(",")
        for col in ("step", "timestamp", "loss", "loss_frozen", "cum_loss",
                    "anchor_distance", "grad_norm", "clipped"):
            assert col in header
        assert any(c.startswith("pred_frozen_") for c in header)
        with open(ft / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        norms = np.array([float(r["grad_norm"]) for r in rows])
        assert np.isfinite(norms).any()
        # the default clip, 0.5; a NaN norm (no update) is not clipped
        assert [r["clipped"] for r in rows] == [
            str(int(g > 0.5)) for g in norms]

        ev = tmp_path / "ev"
        assert main(["evaluate", "--data", str(data), "--checkpoint",
                     str(ckpt), "--run-dir", str(ev)]) == 0
        assert (ev / "predictions.csv").exists()

    def test_preprocess_command(self, data_dir, prepared, tmp_path, capsys):
        run = tmp_path / "pp"
        assert main(["preprocess", "--data", str(data_dir),
                     "--run-dir", str(run)]) == 0
        pipe, train, val = prepared
        assert (json.loads((run / "pipeline.json").read_text())
                == pipe.to_dict())
        for name, seq in (("train", train), ("val", val)):
            saved = np.load(run / f"{name}.npz")
            for key in ("features", "targets", "session_ids", "timestamps"):
                assert np.array_equal(saved[key], getattr(seq, key)), key
        summary = json.loads((run / "summary.json").read_text())
        assert summary["results"]["feature_names"] == pipe.feature_names

    def test_preprocess_run_dir_hash_repeats_across_processes(
            self, data_dir, tmp_path):
        """The run-directory hash depends on the options alone: two
        identical preprocess runs in separate processes get the same one,
        and the summary echoes no function object."""
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        dirs = []
        for out in ("a", "b"):
            proc = subprocess.run(
                [sys.executable, "-m", "lru_online.cli", "preprocess",
                 "--data", str(data_dir), "--out", str(tmp_path / out)],
                capture_output=True, text=True, env=env, check=True)
            dirs.append(Path(proc.stdout.strip().splitlines()[-1]))
        hashes = [d.name.rsplit("-", 1)[1] for d in dirs]
        assert hashes[0] == hashes[1]
        for d in dirs:
            assert "<function" not in (d / "summary.json").read_text()

    def test_failed_command_leaves_no_run_dir(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--out", str(data), "--sessions", "2",
              "--session-seconds", "100", "--seed", "1"])
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["preprocess", "--data", str(data), "--out", str(out)])
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert "temp_c" in err["message"]
        assert list(out.iterdir()) == []
        # an existing --run-dir is left as it was
        given = tmp_path / "given"
        given.mkdir()
        (given / "keep.txt").write_text("x")
        code = main(["preprocess", "--data", str(data),
                     "--run-dir", str(given)])
        assert code == EXIT_CODES["configuration"]
        assert [p.name for p in given.iterdir()] == ["keep.txt"]

    def test_ablate_command(self, data_dir, pretrained, stream, tmp_path,
                            capsys):
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        run = tmp_path / "ab"
        assert main(["ablate", "--data", str(data_dir), "--checkpoint",
                     str(path), "--run-dir", str(run)]) == 0
        with open(run / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expect = cmd_ablate(load_checkpoint(path), stream, FinetuneConfig())
        assert [r["kind"] for r in rows] == [e["kind"] for e in expect]
        assert ([float(r["total_loss"]) for r in rows]
                == [e["total_loss"] for e in expect])

    def test_sweep_command(self, data_dir, tmp_path, capsys):
        run = tmp_path / "sw"
        assert main(["sweep", "--data", str(data_dir), "--run-dir", str(run),
                     "--layers", "4;3,3", "--lrs", "1e-2",
                     "--clips", "0.5,none", "--repeats", "1",
                     "--steps", "2", "--batch", "2", "--window", "16",
                     "--eval-every", "2", "--seed", "3"]) == 0
        with open(run / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2       # layers x clips
        assert {r["clip"] for r in rows} == {"0.5", ""}     # none: empty
        assert all(r["error"] == "" for r in rows)
        assert all(np.isfinite(float(r["best_val_loss"])) for r in rows)
        summary = json.loads((run / "summary.json").read_text())
        assert summary["config"]["seed"] == 3
        assert summary["results"]["runs"] == len(rows)

    def test_sweep_records_rejected_grid_values(self, data_dir, tmp_path,
                                                capsys):
        """A grid value that PretrainConfig rejects (a negative lr, a clip
        of 0) is recorded as a ConfigurationError in its own row, and the
        sweep goes on to the valid ones."""
        run = tmp_path / "sw"
        assert main(["sweep", "--data", str(data_dir), "--run-dir", str(run),
                     "--layers", "4", "--lrs=-1e-2,1e-2",
                     "--clips", "0,0.5", "--repeats", "1", "--steps", "2",
                     "--batch", "2", "--window", "16",
                     "--eval-every", "2"]) == 0
        with open(run / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = {(r["lr"], r["clip"]): r["error"] for r in rows}
        assert errors[("0.01", "0.5")] == ""
        for key, field in ((("-0.01", "0.5"), "lr"), (("-0.01", "0.0"), "lr"),
                           (("0.01", "0.0"), "clip")):
            assert errors[key].startswith(f"ConfigurationError: {field}"), key

    def test_sweep_records_bad_layer_widths(self, data_dir, tmp_path,
                                            capsys):
        """A layer spec with no width or a width below 1 is a
        ConfigurationError naming layers in its own row."""
        run = tmp_path / "sw"
        assert main(["sweep", "--data", str(data_dir), "--run-dir", str(run),
                     "--layers", "0;4,-1;4", "--lrs", "1e-2",
                     "--clips", "0.5", "--repeats", "1", "--steps", "2",
                     "--batch", "2", "--window", "16",
                     "--eval-every", "2"]) == 0
        with open(run / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        errors = {r["layers"]: r["error"] for r in rows}
        assert errors["4"] == ""
        for spec in ("0", "4x-1"):
            assert errors[spec].startswith("ConfigurationError: layers")

    @pytest.mark.parametrize("layers", ["", "0", "-1", "4,0", "a", "4,1.5"])
    def test_bad_layers_exit_2_before_data(self, no_data_read, tmp_path,
                                           capsys, layers):
        """Layer widths that are empty, below 1 or not integers exit 2
        with a configuration error naming layers, before any data is
        read and with no run directory."""
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["pretrain", "--data", str(tmp_path), "--out", str(out),
                     f"--layers={layers}"])
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "configuration"
        assert "layers" in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [
        ("--layers", "4;a"), ("--lrs", "x"), ("--lrs", "1e-2,"),
        ("--clips", "x")])
    def test_sweep_non_numeric_list_exits_2(self, no_data_read, tmp_path,
                                            capsys, flag, value):
        """A list item that is not a number exits 2 with a configuration
        error naming its flag, before any data is read."""
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["sweep", "--data", str(tmp_path), "--out", str(out),
                     f"{flag}={value}"])
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "configuration"
        assert err["message"].startswith(flag)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["pretrain", "--data", "d"],
        ["finetune", "--data", "d", "--checkpoint", "c"],
        ["ablate", "--data", "d", "--checkpoint", "c"],
    ], ids=lambda v: v[0])
    def test_non_numeric_clip_exits_2_naming_the_flag(self, argv, capsys):
        """--clip abc is argparse's usage error (exit 2), naming --clip and
        the form it takes, not the private function that parses it."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--clip", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --clip: expected a number or none, got 'abc'" in err
        assert "_parse_clip" not in err

    @pytest.mark.parametrize("rate", ["0", "-0.5", "nan"])
    def test_impute_bench_bad_mask_rate_exits_2(self, tmp_path, capsys,
                                                rate):
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["impute-bench", "--out", str(out),
                     f"--mask-rate={rate}"])
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert "mask_rate" in err["message"]
        assert list(out.iterdir()) == []

    def test_pretrain_stopped_before_validation_writes_nan(
            self, data_dir, tmp_path, capsys, monkeypatch):
        """A run that diverges before its first validation writes
        best_val_loss NaN into summary.json, not Infinity."""
        prepared = harness.prepare_tables

        def nan_features(*args, **kwargs):
            pipe, train, val = prepared(*args, **kwargs)
            train.features[...] = np.nan
            return pipe, train, val
        monkeypatch.setattr(cli, "prepare_tables", nan_features)
        run = tmp_path / "pre"
        assert main(["pretrain", "--data", str(data_dir), "--run-dir",
                     str(run), "--layers", "4", "--steps", "5", "--batch",
                     "2", "--window", "16", "--eval-every", "3"]) == 0
        text = (run / "summary.json").read_text()
        assert "Infinity" not in text
        results = json.loads(text)["results"]
        assert results["diverged"] and np.isnan(results["best_val_loss"])

    @pytest.mark.parametrize("argv, reads_seed", [
        (["preprocess", "--data", "d"], False),
        (["finetune", "--data", "d", "--checkpoint", "c"], False),
        (["ablate", "--data", "d", "--checkpoint", "c"], False),
        (["evaluate", "--data", "d", "--checkpoint", "c"], False),
        (["pretrain", "--data", "d"], True),
        (["sweep", "--data", "d"], True),
        (["impute-bench"], True),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_seed_flag_only_where_read(self, argv, reads_seed, capsys):
        build_parser().parse_args(argv)
        if reads_seed:
            assert build_parser().parse_args(argv + ["--seed", "7"]).seed == 7
        else:
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--seed", "7"])

    def test_impute_bench_command(self, tmp_path, capsys):
        assert main(["impute-bench", "--run-dir", str(tmp_path / "ib"),
                     "--sessions", "2", "--session-seconds", "120",
                     "--mask-rate", "0.2"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "rolling_mse" in out and "knn_mse" in out

    def test_configuration_error_exit_code(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--out", str(data), "--sessions", "2",
              "--session-seconds", "100", "--seed", "1"])
        code = main(["pretrain", "--data", str(data), "--run-dir",
                     str(tmp_path / "r"), "--layers", "0",
                     "--steps", "1", "--batch", "1", "--window", "8"])
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "configuration"

    # each case's id ends in the name of the pretraining gradient, BPTT
    @pytest.mark.parametrize("flag", ["--batch", "--window", "--eval-every",
                                      "--steps", "--lr", "--clip", "--seed"],
                             ids=lambda flag: f"{flag}-bptt")
    def test_non_positive_train_size_exits_2(self, data_dir, tmp_path, capsys,
                                             flag):
        """steps, batch, window and eval_every below 1, a negative lr, a
        clip of 0 and a negative seed are configuration errors, and no run
        directory is left behind."""
        out = tmp_path / "runs"
        out.mkdir()
        value = {"--lr": "-0.001", "--seed": "-1"}.get(flag, "0")
        code = main(["pretrain", "--data", str(data_dir), "--out", str(out),
                     "--layers", "4", "--steps", "2", "--batch", "2",
                     "--window", "8", "--eval-every", "1", flag, value])
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert flag[2:].replace("-", "_") in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--out", "{out}/data", "--sessions", "2",
         "--session-seconds", "100"],
        ["impute-bench", "--out", "{out}", "--sessions", "2",
         "--session-seconds", "100"],
        ["sweep", "--data", "{data}", "--out", "{out}", "--layers", "4",
         "--lrs", "1e-2", "--clips", "0.5", "--steps", "2", "--batch", "2",
         "--window", "16"]],
        ids=lambda argv: argv[0])
    def test_negative_seed_exits_2(self, data_dir, tmp_path, capsys, argv):
        """A negative seed is a configuration error, raised before any
        data is generated or any run starts, and nothing is written."""
        out = tmp_path / "runs"
        out.mkdir()
        code = main([a.format(out=out, data=data_dir) for a in argv]
                    + ["--seed", "-1"])
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert "seed" in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--repeats", "--steps", "--batch",
                                      "--window", "--eval-every"])
    def test_sweep_non_positive_size_exits_2(self, data_dir, tmp_path,
                                             capsys, flag):
        """No repeats, or a size every run shares below 1, is one
        configuration error, not a run dir with a header-only sweep.csv or
        the same rejection in every row."""
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["sweep", "--data", str(data_dir), "--out", str(out),
                     "--layers", "4", "--lrs", "1e-2", "--clips", "0.5",
                     "--steps", "2", "--batch", "2", "--window", "16",
                     "--repeats", "1", flag, "0"])
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert flag[2:].replace("-", "_") in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["finetune", "ablate"])
    @pytest.mark.parametrize("flags, field", [
        (["--lr", "-0.001"], "lr"),
        (["--freeze-after", "-1"], "freeze_after"),
        (["--clip", "0"], "clip"),
        (["--clip", "0", "--freeze-after", "0"], "clip")])
    def test_invalid_finetune_config_exits_2(self, data_dir, pretrained,
                                             tmp_path, capsys, command,
                                             flags, field):
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        out = tmp_path / "runs"
        out.mkdir()
        code = main([command, "--data", str(data_dir), "--checkpoint",
                     str(path), "--out", str(out)] + flags)
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert field in err["message"]
        assert list(out.iterdir()) == []

    def test_optimizer_block_exits_7(self, data_dir, pretrained, tmp_path,
                                     capsys):
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        doc["optimizer"] = {"t": 3, "lr": 1e-3}
        path.write_text(json.dumps(doc))
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["evaluate", "--data", str(data_dir), "--checkpoint",
                     str(path), "--out", str(out)])
        assert code == EXIT_CODES["checkpoint"]
        err = json.loads(capsys.readouterr().err.strip())
        assert "optimizer" in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    @pytest.mark.parametrize("window", ["5", None, 4],
                             ids=["string", "null", "even"])
    def test_malformed_window_exits_7(self, data_dir, pretrained, tmp_path,
                                      capsys, command, window):
        """A checkpoint whose pipeline window is not an odd integer >= 3
        is a checkpoint error naming the file and the window, not a
        traceback or a configuration error, and no run directory is left
        behind."""
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        doc["pipeline"]["window"] = window
        path.write_text(json.dumps(doc))
        out = tmp_path / "runs"
        out.mkdir()
        code = main([command, "--data", str(data_dir), "--checkpoint",
                     str(path), "--out", str(out)])
        assert code == EXIT_CODES["checkpoint"]
        err = json.loads(capsys.readouterr().err.strip())
        assert str(path) in err["message"] and "window" in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, edit", [
        ("numeric_scale", lambda p: p["numeric_scale"].update(
            {p["numeric_columns"][0]: "2"})),
        ("feature_names", lambda p: p["feature_names"].pop()),
    ], ids=["scale_string", "feature_dropped"])
    def test_malformed_pipeline_statistics_exits_7(
            self, data_dir, pretrained, tmp_path, capsys, key, edit):
        """A pretrain checkpoint with a scale that is a string, or with a
        feature name dropped, makes evaluate a checkpoint error naming the
        file and the key, not a traceback or a run on a wrong pipeline,
        and no run directory is left behind."""
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        edit(doc["pipeline"])
        path.write_text(json.dumps(doc))
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["evaluate", "--data", str(data_dir), "--checkpoint",
                     str(path), "--out", str(out)])
        assert code == EXIT_CODES["checkpoint"]
        err = json.loads(capsys.readouterr().err.strip())
        assert str(path) in err["message"] and key in err["message"]
        assert list(out.iterdir()) == []

    def test_pipeline_column_absent_from_data_exits_8(
            self, data_dir, pretrained, tmp_path, capsys):
        """A checkpoint whose pipeline names a column the data lacks
        (speed_kmh renamed speed in every key, which the loader accepts)
        makes evaluate a compatibility error naming the column, not a
        KeyError traceback, and no run directory is left behind."""
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        pipe = doc["pipeline"]
        pipe["numeric_columns"] = ["speed" if c == "speed_kmh" else c
                                   for c in pipe["numeric_columns"]]
        pipe["feature_names"] = ["speed" if c == "speed_kmh" else c
                                 for c in pipe["feature_names"]]
        for key in ("numeric_mean", "numeric_scale"):
            pipe[key]["speed"] = pipe[key].pop("speed_kmh")
        path.write_text(json.dumps(doc))
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["evaluate", "--data", str(data_dir), "--checkpoint",
                     str(path), "--out", str(out)])
        assert code == EXIT_CODES["compatibility"]
        err = json.loads(capsys.readouterr().err.strip())
        assert "['speed']" in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["finetune", "ablate", "evaluate"])
    def test_checkpoint_without_pipeline_exits_8(self, data_dir, pretrained,
                                                 tmp_path, capsys, command):
        """A checkpoint with no pipeline (valid for the library) cannot
        preprocess the CLI's data: a compatibility error, and no run
        directory is left behind."""
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(replace(ckpt, pipeline=None), path)
        out = tmp_path / "runs"
        out.mkdir()
        code = main([command, "--data", str(data_dir), "--checkpoint",
                     str(path), "--out", str(out)])
        assert code == EXIT_CODES["compatibility"]
        err = json.loads(capsys.readouterr().err.strip())
        assert "pipeline" in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("case, category", [
        ("missing_data", "schema"), ("missing_checkpoint", "checkpoint"),
        ("non_utf8_checkpoint", "checkpoint")])
    def test_unreadable_input_file_exits_with_category(
            self, data_dir, pretrained, tmp_path, capsys, case, category):
        """An input file that is absent or not UTF-8 is a categorised
        error naming it, and no run directory is left behind."""
        ckpt, _ = pretrained
        data, path = data_dir, tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        if case == "missing_data":
            data = tmp_path / "nowhere"
            named = data / "emission.csv"
        elif case == "missing_checkpoint":
            path = named = tmp_path / "absent.json"
        else:
            path.write_bytes(b"\xff" + path.read_bytes())
            named = path
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["finetune", "--data", str(data), "--checkpoint",
                     str(path), "--out", str(out)])
        assert code == EXIT_CODES[category]
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == category and str(named) in err["message"]
        assert list(out.iterdir()) == []

    def test_checkpoint_error_exit_code(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["gen-data", "--out", str(data), "--sessions", "2",
              "--session-seconds", "100", "--seed", "1"])
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["finetune", "--data", str(data), "--checkpoint",
                     str(bad), "--run-dir", str(tmp_path / "r2")])
        assert code == EXIT_CODES["checkpoint"]
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "checkpoint"

    def test_runs_differing_in_one_flag_get_own_run_dirs(
            self, data_dir, pretrained, prepared, tmp_path, capsys,
            monkeypatch):
        """Two finetune runs that differ only in --split, named in the same
        second under one --out, leave two run directories, each with the
        summary of its own run."""
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        monkeypatch.setattr(cli.time, "strftime", lambda fmt: "same-second")
        out = tmp_path / "runs"
        for split in ("train", "val"):
            assert main(["finetune", "--data", str(data_dir), "--checkpoint",
                         str(path), "--out", str(out), "--freeze-after", "0",
                         "--split", split]) == 0
        steps = [json.loads((d / "summary.json").read_text())
                 ["results"]["steps"] for d in sorted(out.iterdir())]
        assert sorted(steps) == sorted([prepared[1].n_rows,
                                        prepared[2].n_rows])

    def test_failed_write_leaves_no_summary(self, data_dir, tmp_path, capsys,
                                            monkeypatch):
        """summary.json is written after the command's own files, so a
        pretrain whose checkpoint write raises leaves none."""
        def fail(ckpt, path):
            raise CheckpointError(f"{path}: write failed")
        monkeypatch.setattr(cli, "save_checkpoint", fail)
        run = tmp_path / "pre"
        code = main(["pretrain", "--data", str(data_dir), "--run-dir",
                     str(run), "--layers", "4", "--steps", "2", "--batch",
                     "2", "--window", "16", "--eval-every", "1"])
        assert code == EXIT_CODES["checkpoint"]
        assert not (run / "summary.json").exists()

    def test_failed_rerun_deletes_earlier_summary(self, data_dir, tmp_path,
                                                  capsys, monkeypatch):
        """A run into a reused --run-dir that fails after the directory is
        entered deletes the earlier run's summary.json, so the directory
        does not claim the earlier run whole beside the new run's files."""
        run = tmp_path / "pre"
        argv = ["pretrain", "--data", str(data_dir), "--run-dir", str(run),
                "--layers", "4", "--steps", "2", "--batch", "2",
                "--window", "16"]
        assert main(argv + ["--eval-every", "1"]) == 0
        assert (run / "summary.json").exists()

        def fail(ckpt, path):
            raise CheckpointError(f"{path}: write failed")
        monkeypatch.setattr(cli, "save_checkpoint", fail)
        code = main(argv + ["--eval-every", "2"])
        assert code == EXIT_CODES["checkpoint"]
        assert not (run / "summary.json").exists()

    def test_malformed_params_block_exits_7(self, data_dir, pretrained,
                                            tmp_path, capsys):
        """A param block that holds a JSON object is a checkpoint error
        naming the layer, not a traceback, and no run directory is left."""
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        doc["params"][0]["nu"] = {"x": 1}
        path.write_text(json.dumps(doc))
        out = tmp_path / "runs"
        out.mkdir()
        code = main(["evaluate", "--data", str(data_dir), "--checkpoint",
                     str(path), "--out", str(out)])
        assert code == EXIT_CODES["checkpoint"]
        err = json.loads(capsys.readouterr().err.strip())
        assert "params layer 0" in err["message"]
        assert list(out.iterdir()) == []

    def test_predictions_csv_holds_evaluate_arrays(
            self, data_dir, pretrained, stream, tmp_path, capsys):
        """predictions.csv is step, timestamp, pred_<name>..., true_<name>...
        with cmd_evaluate's values, row for row."""
        ckpt, _ = pretrained
        path = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, path)
        run = tmp_path / "ev"
        assert main(["evaluate", "--data", str(data_dir), "--checkpoint",
                     str(path), "--run-dir", str(run)]) == 0
        result = cmd_evaluate(load_checkpoint(path), stream)
        names = result["target_names"]
        with open(run / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == (["step", "timestamp"] + [f"pred_{n}" for n in names]
                           + [f"true_{n}" for n in names])
        values = np.array(rows[1:], dtype=np.float64)
        p = len(names)
        np.testing.assert_array_equal(values[:, 0], np.arange(stream.n_rows))
        np.testing.assert_array_equal(values[:, 1], result["timestamps"])
        np.testing.assert_array_equal(values[:, 2:2 + p],
                                      result["predictions"])
        np.testing.assert_array_equal(values[:, 2 + p:], result["targets"])

    @pytest.mark.parametrize("argv, builder, default", [
        (["gen-data", "--out", "o"], "generate_dataset", GeneratorConfig()),
        (["impute-bench"], "impute_benchmark", GeneratorConfig()),
        (["pretrain", "--data", "d"], "cmd_pretrain", PretrainConfig()),
        (["sweep", "--data", "d"], "cmd_sweep", harness.SweepConfig()),
        (["finetune", "--data", "d", "--checkpoint", "c"], "cmd_finetune",
         FinetuneConfig()),
        (["ablate", "--data", "d", "--checkpoint", "c"], "cmd_ablate",
         FinetuneConfig()),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_flag_defaults_are_config_defaults(self, monkeypatch, argv,
                                               builder, default):
        """With no optional flag, each command builds the config that its
        dataclass defaults make."""
        assert built_configs(monkeypatch, argv, builder,
                             type(default)) == [default]

    @pytest.mark.parametrize("argv, builder, config", [
        (["pretrain", "--data", "d"], "cmd_pretrain", PretrainConfig),
        (["finetune", "--data", "d", "--checkpoint", "c"], "cmd_finetune",
         FinetuneConfig),
        (["ablate", "--data", "d", "--checkpoint", "c"], "cmd_ablate",
         FinetuneConfig),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_clip_none_builds_unclipped_config(self, monkeypatch, argv,
                                               builder, config):
        """--clip none builds the default config with clip None."""
        assert built_configs(monkeypatch, argv + ["--clip", "none"], builder,
                             config) == [config(clip=None)]

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "ablate"])
    def test_nan_clip_exits_2_before_data(self, no_data_read, tmp_path,
                                          capsys, command):
        """A --clip of NaN exits 2 naming clip before any data or
        checkpoint is read, and no run directory is left (a clip of 0:
        test_non_positive_train_size_exits_2 and
        test_invalid_finetune_config_exits_2)."""
        out = tmp_path / "runs"
        out.mkdir()
        checkpoint = ([] if command == "pretrain"
                      else ["--checkpoint", str(tmp_path / "absent.json")])
        code = main([command, "--data", str(tmp_path / "nowhere"), "--out",
                     str(out), "--clip", "nan"] + checkpoint)
        assert code == EXIT_CODES["configuration"]
        err = json.loads(capsys.readouterr().err.strip())
        assert "clip" in err["message"]
        assert list(out.iterdir()) == []

