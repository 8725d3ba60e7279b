"""Canonical text checkpoints.

A checkpoint holds a network's parameters and, optionally, the fitted
preprocessing pipeline its features came from, with the pretraining config,
seed and provenance. It holds no optimizer state: fine-tuning always starts
a fresh Adam, so the loader rejects a file with a non-null "optimizer"
block rather than drop that state silently.

The file is JSON with sorted keys; floats round-trip exactly through
Python's shortest-representation repr, so save -> load -> save is
byte-identical and reloaded networks predict bitwise-identically.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .datapipe import FittedPipeline, _feature_names
from .errors import CheckpointError, ContractViolationError
from .lru import PARAM_BLOCKS, LruLayerParams, LruNetwork, _is_int

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    net: LruNetwork
    pipeline: FittedPipeline | None = None
    config: dict = field(default_factory=dict)
    seed: int = 0
    provenance: dict = field(default_factory=dict)


def _network_from_jsonable(path, obj) -> LruNetwork:
    """Rebuild the network from its stored per-layer blocks: each layer must
    be an object of numeric blocks with none missing; from_blocks checks
    their shapes and LruNetwork that each layer's output feeds the next."""
    if not isinstance(obj, list) or not obj:
        raise CheckpointError(f"{path}: params has no layers")
    layers = []
    for k, blocks in enumerate(obj):
        if not isinstance(blocks, dict):
            raise CheckpointError(f"{path}: params layer {k} is not an object")
        missing = [name for name in PARAM_BLOCKS if name not in blocks]
        if missing:
            raise CheckpointError(
                f"{path}: params layer {k} is missing blocks {missing}")
        try:
            layers.append(LruLayerParams.from_blocks(
                **{name: blocks[name] for name in PARAM_BLOCKS}))
        except (ValueError, TypeError, ContractViolationError) as e:
            raise CheckpointError(f"{path}: params layer {k}: {e}") from None
    try:
        return LruNetwork(layers)
    except ContractViolationError as e:
        raise CheckpointError(f"{path}: params: {e}") from None


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_number(value) -> bool:
    """A JSON number within float64's finite range; a bool is not one."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_scale(value) -> bool:
    return _is_number(value) and value > 0


def _pipeline_from_jsonable(path, obj) -> FittedPipeline | None:
    """The stored pipeline, or None. Its imputer window must be an odd
    integer >= 3 (lru._is_int), the rolling median's rule. Its means and
    scales (> 0) must be finite numbers and its vocabularies lists of
    strings, each keyed by exactly its columns, and its feature_names must
    be the ones fit_pipeline derives from them."""
    if obj is None:
        return None
    try:
        pipe = FittedPipeline.from_dict(obj)
    except TypeError as e:
        raise CheckpointError(f"{path}: pipeline block does not match "
                              f"FittedPipeline: {e}") from None
    w = pipe.window
    if not (_is_int(w) and w >= 3 and w % 2 == 1):
        raise CheckpointError(f"{path}: pipeline window must be an odd "
                              f"integer >= 3, got {w!r}")
    num, tgt = pipe.numeric_columns, pipe.target_columns
    for key, columns, valid, what in (
            ("numeric_mean", num, _is_number, "a finite number"),
            ("numeric_scale", num, _is_scale, "a finite number > 0"),
            ("target_mean", tgt, _is_number, "a finite number"),
            ("target_scale", tgt, _is_scale, "a finite number > 0"),
            ("vocabularies", pipe.categorical_columns, _is_names,
             "a list of strings")):
        block = getattr(pipe, key)
        if not (_is_names(columns) and isinstance(block, dict)
                and sorted(block) == sorted(columns)):
            raise CheckpointError(f"{path}: pipeline {key} must be keyed by "
                                  f"exactly the columns {columns!r}")
        for column, value in block.items():
            if not valid(value):
                raise CheckpointError(f"{path}: pipeline {key}[{column!r}] "
                                      f"must be {what}, got {value!r}")
    if pipe.feature_names != _feature_names(
            pipe.numeric_columns, pipe.categorical_columns, pipe.vocabularies):
        raise CheckpointError(
            f"{path}: pipeline feature_names must be the numeric columns, "
            f"then column=value for each vocabulary entry")
    return pipe


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    doc = {
        "format": "lru-online-checkpoint",
        "version": FORMAT_VERSION,
        "seed": ckpt.seed,
        "config": ckpt.config,
        "provenance": ckpt.provenance,
        "params": [{k: v.tolist() for k, v in layer.blocks().items()}
                   for layer in ckpt.net.layers],
        "pipeline": ckpt.pipeline.to_dict() if ckpt.pipeline else None,
    }
    text = json.dumps(doc, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_checkpoint(path) -> Checkpoint:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise CheckpointError(f"{path}: cannot read checkpoint: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CheckpointError(
            f"{path}: corrupted checkpoint, parse error at byte {e.pos}: {e.msg}")
    if not isinstance(doc, dict) or doc.get("format") != "lru-online-checkpoint":
        raise CheckpointError(f"{path}: not a checkpoint file")
    if doc.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {doc.get('version')!r}; "
            f"this build reads version {FORMAT_VERSION}")
    if doc.get("optimizer") is not None:
        raise CheckpointError(
            f"{path}: the checkpoint holds an 'optimizer' block; fine-tuning "
            f"always starts a fresh Adam, so this build reads no optimizer state")
    return Checkpoint(
        net=_network_from_jsonable(path, doc.get("params")),
        pipeline=_pipeline_from_jsonable(path, doc.get("pipeline")),
        config=doc.get("config", {}),
        seed=doc.get("seed", 0),
        provenance=doc.get("provenance", {}),
    )
