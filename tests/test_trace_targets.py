"""The benchmark's traced run wraps library functions by name; a name the
library no longer has is reported absent and its figures read 0. This pins
the list of absent names, so deleting another traced function fails here
instead of silently zeroing a benchmark figure."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

from lru_online import lru  # noqa: E402

# stale targets the benchmark still lists; emptying this list is open work
ABSENT = ["harness.train_rtrl", "lru.LruNetwork.from_parameters",
          "lru.network_forward", "lru.network_step", "optim.adam_step",
          "optim.tree_add", "optim.tree_copy", "optim.tree_norm",
          "optim.tree_sub", "rtrl.online_gradient", "rtrl.step_traces"]


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
