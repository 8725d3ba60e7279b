"""The package's public names: one reviewed list, so that adding or
removing a name is a visible change here."""

import lru_online

PUBLIC = [
    "AdamState", "AnchorConfig", "Checkpoint", "FinetuneConfig",
    "FittedPipeline", "GeneratorConfig", "LruLayerParams", "LruNetwork",
    "OnlineLearner", "PretrainConfig", "RunMetrics", "SequenceData",
    "SeriesTable", "ShiftSpec", "SweepConfig", "TrainConfig",
    "anchor_distance", "anchor_gradient", "apply_pipeline", "bptt",
    "bptt_gradient", "checkpoint", "clip_global_norm", "cmd_ablate",
    "cmd_evaluate", "cmd_finetune", "cmd_pretrain", "cmd_sweep", "datapipe",
    "errors", "fit_pipeline", "generate_dataset", "harness", "huber",
    "huber_grad", "impute_benchmark", "impute_knn", "impute_rolling_median",
    "init_layer", "init_network", "load_checkpoint", "lru", "network_scan",
    "optim", "prepare_tables", "reset_trace", "rtrl", "sample_windows",
    "save_checkpoint", "scan_forward", "split_sessions", "synth", "train",
    "window_gradient", "write_dataset",
]


def test_public_names_are_the_reviewed_list():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(lru_online.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(lru_online, name), name
