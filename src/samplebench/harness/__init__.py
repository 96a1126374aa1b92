"""Experiment orchestration: configs, runners, ablations, result emission."""

from .ablate import AblationRecord, emit_ablation, run_ablation
from .config import ExperimentConfig, Protocol, apply_desk_scale, load_config, parse_config
from .emit import CSV_COLUMNS, emit_results, render_checkpoint_csv, render_summary_json
from .evaluate import ExactDraws, evaluate_sampler
from .registry import ABLATION_KINDS, MethodDriver, build_target
from .run import RunRecord, SeedRecord, run_experiment, running_average, select_best

__all__ = [
    "ABLATION_KINDS",
    "AblationRecord",
    "emit_ablation",
    "run_ablation",
    "ExperimentConfig",
    "Protocol",
    "apply_desk_scale",
    "load_config",
    "parse_config",
    "CSV_COLUMNS",
    "emit_results",
    "render_checkpoint_csv",
    "render_summary_json",
    "ExactDraws",
    "evaluate_sampler",
    "MethodDriver",
    "build_target",
    "RunRecord",
    "SeedRecord",
    "run_experiment",
    "running_average",
    "select_best",
]
