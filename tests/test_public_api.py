"""The package's public names and the CLI's options: one reviewed list
each, so that adding or removing a name or a flag is a visible change
here."""

import argparse

import lru_online
from lru_online.cli import build_parser

PUBLIC = [
    "AdamState", "Checkpoint", "FinetuneConfig", "FittedPipeline",
    "GeneratorConfig", "LruLayerParams", "LruNetwork", "OnlineLearner",
    "PretrainConfig", "RunMetrics", "SequenceData", "SeriesTable",
    "ShiftSpec", "SweepConfig", "TrainConfig", "apply_pipeline", "bptt",
    "bptt_gradient", "checkpoint", "cmd_ablate", "cmd_evaluate",
    "cmd_finetune", "cmd_pretrain", "cmd_sweep", "datapipe", "errors",
    "fit_pipeline", "generate_dataset", "harness", "huber",
    "impute_benchmark", "impute_knn", "impute_rolling_median", "init_layer",
    "init_network", "load_checkpoint", "lru", "network_scan", "optim",
    "prepare_tables", "reset_trace", "rtrl", "sample_windows",
    "save_checkpoint", "scan_forward", "split_sessions", "synth", "train",
    "window_gradient", "write_dataset",
]


def test_public_names_are_the_reviewed_list():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(lru_online.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(lru_online, name), name


# Each subcommand's options in the order the parser declares them, --help
# left out.
CLI_OPTIONS = {
    "gen-data": ["--out", "--seed", "--sessions", "--session-seconds",
                 "--missing-rate", "--shift-sessions", "--emission-gain",
                 "--ambient-offset"],
    "preprocess": ["--out", "--run-dir", "--data"],
    "pretrain": ["--out", "--run-dir", "--data", "--seed", "--layers",
                 "--steps", "--batch", "--lr", "--clip", "--window",
                 "--eval-every"],
    "sweep": ["--out", "--run-dir", "--data", "--seed", "--layers", "--lrs",
              "--clips", "--repeats", "--steps", "--batch", "--window",
              "--eval-every"],
    "finetune": ["--out", "--run-dir", "--data", "--checkpoint", "--split",
                 "--lambda-reg", "--freeze-after", "--lr", "--clip"],
    "ablate": ["--out", "--run-dir", "--data", "--checkpoint", "--split",
               "--lambda-reg", "--freeze-after", "--lr", "--clip"],
    "evaluate": ["--out", "--run-dir", "--data", "--checkpoint", "--split"],
    "impute-bench": ["--out", "--run-dir", "--seed", "--sessions",
                     "--session-seconds", "--missing-rate", "--shift-sessions",
                     "--emission-gain", "--ambient-offset", "--mask-rate",
                     "--window", "--k"],
}


def test_cli_options_are_the_reviewed_dict():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: [s for a in p._actions for s in a.option_strings
                      if s not in ("-h", "--help")]
               for name, p in sub.choices.items()}
    assert options == CLI_OPTIONS
    assert sum(map(len, CLI_OPTIONS.values())) == 69
