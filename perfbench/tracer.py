"""Outside-in timing spans around the public functions of lru_online.

The tracer never edits the library. `install()` replaces each target
function at every module attribute that refers to it (a name bound by
`from .x import y` is a separate attribute from the one in `x`), and on the
class for classmethods; `uninstall()` puts the originals back. A target that
no longer exists is recorded in `absent` instead of failing, so the same
benchmark runs against later versions of the library.

Spans are kept in flat in-memory arrays (name, start, end, parent, unit,
work) and written out once, by `save()`, when the run ends. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np


class Target:
    """One function to wrap: `module` is relative to the package, `qualname`
    is `func` or `Class.method`. `hook(args, kwargs, result)` may return
    (name suffix or None, work amount) to label a finished span."""

    def __init__(self, module: str, qualname: str, hook=None):
        self.module = module
        self.qualname = qualname
        self.hook = hook

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname.split('.')[-1]}"


class Tracer:
    def __init__(self, package: str, targets: list[Target]):
        self.package = package
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.work = array("d")
        self.unit_kinds: list[str] = []
        self.absent: list[str] = []
        self._stack = [-1]
        self._resolved = None

    # ------------------------------------------------------------ patching

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == self.package
                                      or key.startswith(self.package + "."))]

    def _resolve(self):
        """[(owner, attr, original, wrapper)] for every call site of every
        present target; computed once so install/uninstall are cheap."""
        patches = []
        for tgt in self.targets:
            mod = importlib.import_module(f"{self.package}.{tgt.module}")
            owner_name, _, attr = tgt.qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
            else:
                raw = getattr(owner, attr, None)
            if raw is None:
                self.absent.append(f"{tgt.module}.{tgt.qualname}")
                continue
            nid = self.name_id(tgt.name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, nid, tgt.hook))
                patches.append((owner, attr, raw, wrapped))
                continue
            wrapped = self._wrap(raw, nid, tgt.hook)
            for m in self._modules():
                for key, val in list(vars(m).items()):
                    if val is raw:
                        patches.append((m, key, raw, wrapped))
        return patches

    def install(self) -> None:
        if self._resolved is None:
            self._resolved = self._resolve()
        for owner, attr, _, wrapped in self._resolved:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in reversed(self._resolved or []):
            setattr(owner, attr, raw)

    def begin_unit(self, kind: str) -> None:
        """Start a new unit of work; later spans carry its id."""
        self.unit_kinds.append(kind)

    def _wrap(self, fn, nid: int, hook):
        names, starts, ends = self.name, self.start, self.end
        parents, units, works = self.parent, self.unit, self.work
        stack, kinds = self._stack, self.unit_kinds
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            units.append(len(kinds) - 1)
            works.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if hook is not None:
                suffix, work = hook(args, kwargs, result)
                if suffix:
                    names[idx] = tracer.name_id(tracer.names[nid] + suffix)
                works[idx] = work
            return result

        return traced

    # ------------------------------------------------------------ analysis

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "unit": np.frombuffer(self.unit, dtype=np.int32).copy(),
                "work": np.frombuffer(self.work, dtype=np.float64).copy()}

    def table(self, kinds: tuple[str, ...] | None = None) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, summed work, over
        the units whose kind is in `kinds` (all units when None)."""
        a = self.arrays()
        n = a["name"].size
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n)
        self_t = dur - child
        sel = np.ones(n, dtype=bool)
        if kinds is not None:
            ok = np.array([k in kinds for k in self.unit_kinds] + [False])
            sel = ok[a["unit"]]                   # unit -1 maps to False
        out = {}
        k = len(self.names)
        ids = a["name"][sel]
        calls = np.bincount(ids, minlength=k)
        tot = np.bincount(ids, weights=dur[sel], minlength=k)
        own = np.bincount(ids, weights=self_t[sel], minlength=k)
        work = np.bincount(ids, weights=a["work"][sel], minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "total_s": float(tot[i]),
                         "self_s": float(own[i]), "work": float(work[i])}
        return out

    def step_intervals(self, name: str, parent_name: str,
                       kind: str) -> np.ndarray:
        """Seconds between consecutive starts of `name` spans whose parent
        is a `parent_name` span, within each unit of `kind`."""
        a = self.arrays()
        if name not in self._ids or parent_name not in self._ids:
            return np.empty(0)
        pid = a["parent"]
        direct = (a["name"] == self._ids[name]) & (pid >= 0)
        direct[direct] = a["name"][pid[direct]] == self._ids[parent_name]
        out = []
        for u, k in enumerate(self.unit_kinds):
            if k == kind:
                starts = a["start"][direct & (a["unit"] == u)]
                out.append(np.diff(starts))
        return np.concatenate(out) if out else np.empty(0)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            unit_kinds=np.array(self.unit_kinds, dtype=str),
                            absent=np.array(self.absent, dtype=str),
                            **self.arrays())
