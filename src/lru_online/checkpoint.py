"""Canonical text checkpoints.

The file is JSON with sorted keys; floats round-trip exactly through
Python's shortest-representation repr, so save -> load -> save is
byte-identical and reloaded networks predict bitwise-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datapipe import FittedPipeline
from .errors import CheckpointError, ContractViolationError
from .lru import PARAM_BLOCKS, LruLayerParams, LruNetwork
from .optim import AdamState

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    net: LruNetwork
    pipeline: FittedPipeline | None = None
    optimizer: AdamState | None = None
    config: dict = field(default_factory=dict)
    seed: int = 0
    provenance: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION


def _blocks_to_jsonable(net: LruNetwork, vec: np.ndarray) -> list:
    """A flat vector laid out like net.theta as per-layer block lists."""
    return [{k: blocks[k].tolist() for k in PARAM_BLOCKS}
            for blocks in net.unflatten(vec)]


def _network_from_jsonable(path, what: str, obj) -> LruNetwork:
    """Rebuild a flat vector from stored per-layer blocks, checking that no
    block is missing, every block's shape, and that each layer's output
    width is the next layer's input width."""
    if not isinstance(obj, list) or not obj:
        raise CheckpointError(f"{path}: {what} has no layers")
    layers = []
    for k, blocks in enumerate(obj):
        missing = [name for name in PARAM_BLOCKS if name not in blocks]
        if missing:
            raise CheckpointError(
                f"{path}: {what} layer {k} is missing blocks {missing}")
        try:
            layer = LruLayerParams(
                **{name: np.asarray(blocks[name], dtype=np.float64)
                   for name in PARAM_BLOCKS})
            layer.validate()
        except (ValueError, ContractViolationError) as e:
            raise CheckpointError(f"{path}: {what} layer {k}: {e}") from None
        layers.append(layer)
    net = LruNetwork(layers)
    try:
        net.validate()
    except ContractViolationError as e:
        raise CheckpointError(f"{path}: {what}: {e}") from None
    return net


def _moment_from_jsonable(path, what: str, obj, net: LruNetwork) -> np.ndarray:
    """An optimizer moment stored like the params, flattened like net.theta."""
    moment = _network_from_jsonable(path, what, obj)
    if ([(layer.n, layer.m, layer.p) for layer in moment.layers]
            != [(layer.n, layer.m, layer.p) for layer in net.layers]):
        raise CheckpointError(f"{path}: {what} blocks do not match the params")
    return moment.theta


def _optimizer_to_jsonable(net: LruNetwork,
                           state: AdamState | None) -> dict | None:
    if state is None:
        return None
    return {"m": _blocks_to_jsonable(net, state.m),
            "v": _blocks_to_jsonable(net, state.v),
            "t": state.t, "lr": state.lr, "beta1": state.beta1,
            "beta2": state.beta2, "eps": state.eps}


def _optimizer_from_jsonable(path, obj: dict | None,
                             net: LruNetwork) -> AdamState | None:
    if obj is None:
        return None
    return AdamState(m=_moment_from_jsonable(path, "optimizer m", obj["m"], net),
                     v=_moment_from_jsonable(path, "optimizer v", obj["v"], net),
                     t=obj["t"], lr=obj["lr"], beta1=obj["beta1"],
                     beta2=obj["beta2"], eps=obj["eps"])


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    doc = {
        "format": "lru-online-checkpoint",
        "version": ckpt.version,
        "seed": ckpt.seed,
        "config": ckpt.config,
        "provenance": ckpt.provenance,
        "params": _blocks_to_jsonable(ckpt.net, ckpt.net.theta),
        "optimizer": _optimizer_to_jsonable(ckpt.net, ckpt.optimizer),
        "pipeline": ckpt.pipeline.to_dict() if ckpt.pipeline else None,
    }
    text = json.dumps(doc, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_checkpoint(path) -> Checkpoint:
    text = Path(path).read_text(encoding="utf-8")
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
    net = _network_from_jsonable(path, "params", doc.get("params"))
    return Checkpoint(
        net=net,
        pipeline=(FittedPipeline.from_dict(doc["pipeline"])
                  if doc.get("pipeline") else None),
        optimizer=_optimizer_from_jsonable(path, doc.get("optimizer"), net),
        config=doc.get("config", {}),
        seed=doc.get("seed", 0),
        provenance=doc.get("provenance", {}),
        version=doc["version"],
    )
