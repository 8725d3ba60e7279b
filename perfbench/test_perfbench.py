"""Tests of the benchmark itself: determinism per seed, seed sensitivity of
the inputs, the tracer, and agreement with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

import lru_online  # noqa: E402
from lru_online import optim  # noqa: E402


def _quick(name, seed, tmp_path, tracer=None):
    return workloads.measure(name, seed, 0.0, tmp_path, tracer,
                             setup_repeats=1, min_rounds=2 if tracer else 1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_quality_and_counters(name, tmp_path):
    a = _quick(name, 5, tmp_path / "a")
    b = _quick(name, 5, tmp_path / "b")
    assert a["failed"] == 0, a["failures"]
    assert b["failed"] == 0, b["failures"]
    assert a["attempted"] == b["attempted"] > 0
    assert a["quality"] == b["quality"]
    assert a["work"] == b["work"]


def test_another_seed_changes_generated_data(tmp_path):
    digests = []
    for seed in (5, 5, 6):
        out = tmp_path / str(len(digests))
        workloads.make_inputs(seed, out)
        digests.append(hashlib.sha256(
            (out / "emission.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1] != digests[2]


def test_tracer_nests_restores_and_reports_absent():
    original = optim.tree_norm
    tracer = Tracer("lru_online", [Target("optim", "clip_global_norm"),
                                   Target("optim", "tree_norm"),
                                   Target("optim", "no_such_function"),
                                   Target("lru", "LruNetwork.from_parameters")])
    tracer.begin_unit("main")
    tracer.install()
    try:
        net = lru_online.init_network(3, (4,), 2)
        grads = [{k: np.full_like(v, 10.0) for k, v in layer.items()}
                 for layer in net.parameters()]
        optim.clip_global_norm(grads, 0.5)        # calls tree_norm inside
        lru_online.LruNetwork.from_parameters(net.parameters())
    finally:
        tracer.uninstall()
    assert optim.tree_norm is original
    assert tracer.absent == ["optim.no_such_function"]
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["optim.clip_global_norm", "optim.tree_norm",
                     "lru.from_parameters"]
    assert list(tracer.parent) == [-1, 0, -1]
    table = tracer.table(("main",))
    clip = table["optim.clip_global_norm"]
    assert clip["self_s"] == pytest.approx(
        clip["total_s"] - table["optim.tree_norm"]["total_s"])


def test_benchmark_json_matches_emitted_metrics(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.declared()
    tracer = Tracer("lru_online", layers.TARGETS)
    run = _quick("online", 5, tmp_path, tracer)
    assert tracer.absent == []
    values = layers.per_layer_metrics(tracer, run)
    assert list(values) == [m["name"] for m in spec["per_layer"]]
    assert values["optim.self_pct"] == max(
        values[f"{m}.self_pct"] for m in layers.MODULES)
    assert values["rtrl.step_traces.read_calls_per_step"] == 0.0
    assert values["online.step_samples"] > 1000
