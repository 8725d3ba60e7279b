"""The benchmark's traced run wraps library functions by name; a name the
library no longer has is reported absent and its figures read 0. This pins
the list of absent names, so deleting another traced function fails here
instead of silently zeroing a benchmark figure, and the kernels the
benchmark is to trace next, so that a refactor cannot rename one of them
silently."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

from lru_online import lru  # noqa: E402

# stale targets the benchmark still lists; emptying this list is open work
ABSENT = ["harness.train_rtrl", "lru.LruNetwork.from_parameters",
          "lru.network_forward", "lru.network_step", "optim.adam_step",
          "optim.anchor_gradient", "optim.clip_global_norm",
          "optim.huber_grad", "optim.tree_add", "optim.tree_copy",
          "optim.tree_norm", "optim.tree_sub", "rtrl.online_gradient",
          "rtrl.step_traces"]


# kernels of the online row and of pretraining that the benchmark's
# retarget will trace, as module-relative dotted names in lru_online
NEXT_TARGETS = ["rtrl._StreamPlan.predict", "rtrl._StreamPlan.gradient",
                "rtrl._trace_step", "rtrl.layer_constants",
                "optim._Descent.__call__", "optim._clip",
                "optim._huber_grad", "optim._pull", "optim._distance",
                "optim._huber_loss_grad", "lru._linear_recurrence",
                "bptt._WindowSampler.__call__"]


@pytest.mark.parametrize("name", NEXT_TARGETS)
def test_next_trace_targets_exist(name):
    """The benchmark's tracer resolves the name: it is not absent."""
    tracer = Tracer("lru_online", [Target(*name.split(".", 1))])
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []


def test_absent_trace_targets_pinned():
    original = lru.scan_forward
    tracer = Tracer("lru_online", layers.TARGETS)
    try:
        tracer.install()
        assert lru.scan_forward is not original
    finally:
        tracer.uninstall()
    assert sorted(tracer.absent) == ABSENT
    assert lru.scan_forward is original
