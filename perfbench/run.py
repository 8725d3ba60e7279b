#!/usr/bin/env python3
"""Layered benchmark for lru-online.

    python3 perfbench/run.py --workload {ingest,pretrain,online} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
`src/` directory and nothing is installed. With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` the same workload runs with timing spans around the library's
public functions and the last line carries the per-layer metrics. The full
record (environment, every unit's timing, work counters, quality figures)
goes to the preceding line and to perfbench/results/; a traced run also
writes its spans there as .npz. Metric definitions: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "seed": seed,
    }


def named_figures(workload: str, run: dict, peak_rss_mb: float) -> dict:
    """The run's figures under their workload-specific names."""
    main, read = run["main_us_per_item"], run["read_us_per_item"]
    out = {"setup_s": run["setup_s"], "peak_rss_mb": peak_rss_mb,
           "error_rate": run["failed"] / run["attempted"]}
    if workload == "ingest":
        out.update(ingest_rows_per_s=1e6 / main,
                   apply_rows_per_s=1e6 / read)
    elif workload == "pretrain":
        out.update(train_samples_per_s=1e6 / main,
                   eval_steps_per_s=1e6 / read)
    else:
        out.update(online_us_per_step=main, infer_us_per_step=read)
    out.update(run["quality"])
    return out


def main(argv=None) -> int:
    if not (SRC / "lru_online" / "__init__.py").is_file():
        print(f"perfbench: no lru_online package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lru_online
    if Path(lru_online.__file__).resolve().parent != SRC / "lru_online":
        print(f"perfbench: imported lru_online from {lru_online.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracer import Tracer

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_before = os.getloadavg()
    env = environment(args.seed)
    tracer = Tracer("lru_online", layers.TARGETS) if args.trace else None
    scratch = HERE / "work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = workloads.measure(args.workload, args.seed, args.seconds,
                                workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env["loadavg_before"] = list(load_before)
    env["loadavg_after"] = list(os.getloadavg())

    if tracer is None:
        values = {"main_us_per_item": run["main_us_per_item"],
                  "read_us_per_item": run["read_us_per_item"],
                  "setup_s": run["setup_s"],
                  "peak_rss_mb": peak_rss_mb}
        units = {"main_us_per_item": "us", "read_us_per_item": "us",
                 "setup_s": "s", "peak_rss_mb": "MB"}
    else:
        values = layers.per_layer_metrics(tracer, run)
        units = {m["name"]: m["unit"] for m in layers.declared()}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    results = HERE / "results"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "run": run, "peak_rss_mb": peak_rss_mb,
              "named": named_figures(args.workload, run, peak_rss_mb),
              "metrics": metrics}
    if tracer is not None:
        tracer.save(results / f"{stem}-spans.npz")
        record["absent_targets"] = tracer.absent
    results.mkdir(exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
