"""Which library functions the traced run wraps, and the per-layer metrics
derived from their spans.

Per-call figures (`.ms`, `.us`, `.self_ms`, `.elements`, `.bytes`) average
over every traced span of the run, set-up included, so layers that only run
in set-up (synth, checkpoint, and datapipe outside `ingest`) still report.
Shares (`<module>.self_pct`) and call rates (`*_calls_per_step`) cover only
the traced measured units. A "step" is one `prepare_tables` call (ingest
main) or `apply_pipeline` call (ingest read), one training step (pretrain
main) or `cmd_evaluate` call (pretrain read), and one stream step (online).
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Target, Tracer

MODULES = ("synth", "datapipe", "checkpoint", "lru", "bptt", "rtrl", "optim",
           "harness")

DATAPIPE_FNS = ("load_emission_csv", "load_weather_csv", "join_weather",
                "resample_to_grid", "impute_rolling_median", "split_sessions",
                "fit_pipeline", "apply_pipeline")
OPTIM_FNS = ("adam_step", "anchor_gradient", "clip_global_norm", "tree_norm",
             "tree_add", "huber", "huber_grad")


def _scan_hook(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    shape = np.shape(args[2] if len(args) > 2 else kwargs["u_seq"])
    suffix = ".train" if len(shape) >= 3 else ".eval"
    return suffix, float(np.prod(shape[:-1])) * params.n


def _clip_hook(args, kwargs, result):
    grads = args[0] if args else kwargs["grads"]
    return None, float(result is not grads)


def _file_hook(position, key):
    def hook(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs[key]
        return None, float(os.path.getsize(path))
    return hook


TARGETS = [
    Target("synth", "generate_dataset"),
    Target("synth", "write_dataset"),
    *[Target("datapipe", fn) for fn in DATAPIPE_FNS],
    Target("checkpoint", "save_checkpoint", _file_hook(1, "path")),
    Target("checkpoint", "load_checkpoint", _file_hook(0, "path")),
    Target("lru", "scan_forward", _scan_hook),
    Target("lru", "network_scan"),
    Target("lru", "network_step"),
    Target("lru", "network_forward"),
    Target("lru", "LruNetwork.from_parameters"),
    Target("bptt", "sample_windows"),
    Target("bptt", "bptt_gradient"),
    Target("bptt", "evaluate"),
    Target("bptt", "train"),
    Target("rtrl", "step_traces"),
    Target("rtrl", "online_gradient"),
    Target("rtrl", "window_gradient"),
    *[Target("optim", fn) for fn in OPTIM_FNS],
    Target("optim", "tree_sub"),
    Target("optim", "tree_copy"),
    Target("harness", "prepare_tables"),
    Target("harness", "cmd_pretrain"),
    Target("harness", "cmd_evaluate"),
    Target("harness", "cmd_finetune"),
    Target("harness", "train_rtrl"),
]

# (metric, span name, statistic, scale, unit, better)
PER_CALL = (
    [(f"datapipe.{fn}.ms", f"datapipe.{fn}", "total", 1e3, "ms", "lower")
     for fn in DATAPIPE_FNS]
    + [(f"synth.{fn}.ms", f"synth.{fn}", "total", 1e3, "ms", "lower")
       for fn in ("generate_dataset", "write_dataset")]
    + [(f"checkpoint.{fn}.ms", f"checkpoint.{fn}", "total", 1e3, "ms", "lower")
       for fn in ("save_checkpoint", "load_checkpoint")]
    + [("checkpoint.bytes", "checkpoint.save_checkpoint", "work", 1.0,
        "bytes", "lower")]
    + [("lru.scan_forward.train.ms", "lru.scan_forward.train", "total", 1e3,
        "ms", "lower"),
       ("lru.scan_forward.train.elements", "lru.scan_forward.train", "work",
        1.0, "count", "higher"),
       ("lru.scan_forward.eval.ms", "lru.scan_forward.eval", "total", 1e3,
        "ms", "lower"),
       ("lru.scan_forward.eval.elements", "lru.scan_forward.eval", "work",
        1.0, "count", "higher")]
    + [(f"lru.{fn}.us", f"lru.{fn}", "total", 1e6, "us", "lower")
       for fn in ("network_step", "network_forward", "from_parameters")]
    + [("bptt.bptt_gradient.self_ms", "bptt.bptt_gradient", "self", 1e3, "ms",
        "lower")]
    + [(f"bptt.{fn}.ms", f"bptt.{fn}", "total", 1e3, "ms", "lower")
       for fn in ("sample_windows", "evaluate")]
    + [(f"rtrl.{fn}.us", f"rtrl.{fn}", "total", 1e6, "us", "lower")
       for fn in ("step_traces", "online_gradient")]
    + [(f"optim.{fn}.us", f"optim.{fn}", "total", 1e6, "us", "lower")
       for fn in OPTIM_FNS]
    + [("optim.clip_fraction", "optim.clip_global_norm", "work", 1.0, "ratio",
        "lower")]
    + [(f"harness.{fn}.self_ms", f"harness.{fn}", "self", 1e3, "ms", "lower")
       for fn in ("cmd_pretrain", "prepare_tables")]
)

CALL_RATES = ("lru.network_step", "lru.network_forward", "lru.from_parameters",
              "rtrl.step_traces", "rtrl.online_gradient")

WORK_COUNTERS = ("raw_rows", "grid_rows", "grid_rows_added", "imputed_cells",
                 "sessions", "train_steps", "train_samples", "eval_steps",
                 "stream_steps", "update_steps")
QUALITY = ("pretrain_val_loss", "online_loss_ratio")


def declared() -> list[dict]:
    """Every per-layer metric, in output order, as BENCHMARK.json lists it."""
    out = [{"name": m, "unit": u, "better": b}
           for m, _, _, _, u, b in PER_CALL]
    out += [{"name": f"{s}.{k}_calls_per_step", "unit": "count",
             "better": "lower"} for s in CALL_RATES for k in ("main", "read")]
    out += [{"name": f"{m}.self_pct", "unit": "%", "better": "lower"}
            for m in MODULES]
    out += [{"name": "harness.cmd_finetune.self_us_per_step", "unit": "us",
             "better": "lower"},
            {"name": "online.step_p50_us", "unit": "us", "better": "lower"},
            {"name": "online.step_p99_us", "unit": "us", "better": "lower"},
            {"name": "online.step_samples", "unit": "count",
             "better": "higher"},
            {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
            {"name": "trace.spans", "unit": "count", "better": "lower"},
            {"name": "trace.absent_targets", "unit": "count",
             "better": "lower"},
            {"name": "checks.error_rate", "unit": "ratio", "better": "lower"}]
    out += [{"name": f"work.{c}", "unit": "count", "better": "higher"}
            for c in WORK_COUNTERS]
    out += [{"name": f"quality.{q}", "unit": "loss", "better": "lower"}
            for q in QUALITY]
    return out


def per_layer_metrics(tracer: Tracer, run: dict) -> dict[str, float]:
    """Per-layer values from the spans of a traced run and the run's own
    record (`run` as returned by workloads.measure)."""
    every = tracer.table()
    main = tracer.table(("main",))
    read = tracer.table(("read",))
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0}
    vals: dict[str, float] = {}
    for metric, span, stat, scale, _, _ in PER_CALL:
        row = every.get(span, empty)
        key = {"total": "total_s", "self": "self_s", "work": "work"}[stat]
        vals[metric] = row[key] / row["calls"] * scale if row["calls"] else 0.0

    steps = {"main": run["traced_main_steps"], "read": run["traced_read_steps"]}
    for span in CALL_RATES:
        for kind, table in (("main", main), ("read", read)):
            calls = table.get(span, empty)["calls"]
            vals[f"{span}.{kind}_calls_per_step"] = (
                calls / steps[kind] if steps[kind] else 0.0)

    wall = run["traced_main_seconds"]
    for mod in MODULES:
        own = sum(r["self_s"] for name, r in main.items()
                  if name.split(".")[0] == mod)
        vals[f"{mod}.self_pct"] = 100.0 * own / wall if wall else 0.0

    ft = main.get("harness.cmd_finetune", empty)
    vals["harness.cmd_finetune.self_us_per_step"] = (
        ft["self_s"] / steps["main"] * 1e6 if ft["calls"] else 0.0)
    gaps = tracer.step_intervals("lru.network_step", "harness.cmd_finetune",
                                 "main") * 1e6
    vals["online.step_p50_us"] = float(np.percentile(gaps, 50)) if gaps.size else 0.0
    vals["online.step_p99_us"] = float(np.percentile(gaps, 99)) if gaps.size else 0.0
    vals["online.step_samples"] = float(gaps.size)

    vals["trace.overhead_pct"] = 100.0 * (
        run["traced_main_us_per_item"] / run["main_us_per_item"] - 1.0)
    vals["trace.spans"] = float(len(tracer.name))
    vals["trace.absent_targets"] = float(len(tracer.absent))
    vals["checks.error_rate"] = run["failed"] / run["attempted"]
    for c in WORK_COUNTERS:
        vals[f"work.{c}"] = float(run["work"].get(c, 0))
    for q in QUALITY:
        vals[f"quality.{q}"] = float(run["quality"].get(q, 0.0))
    return vals
