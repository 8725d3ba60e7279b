"""LRU state-space sequence models with online RTRL fine-tuning."""

from .lru import (LruLayerParams, LruNetwork, init_layer, init_network,
                  network_scan, scan_forward)
from .rtrl import reset_trace, window_gradient
from .bptt import TrainConfig, bptt_gradient, sample_windows, train
from .optim import (AdamState, AnchorConfig, anchor_distance, anchor_gradient,
                    clip_global_norm, huber, huber_grad)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .datapipe import (FittedPipeline, SequenceData, SeriesTable,
                       apply_pipeline, fit_pipeline, impute_knn,
                       impute_rolling_median, split_sessions)
from .synth import GeneratorConfig, ShiftSpec, generate_dataset, write_dataset
from .harness import (FinetuneConfig, OnlineLearner, PretrainConfig,
                      RunMetrics, SweepConfig, cmd_ablate, cmd_evaluate,
                      cmd_finetune, cmd_pretrain, cmd_sweep, impute_benchmark,
                      prepare_tables)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
