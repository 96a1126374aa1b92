"""Experiment configuration: one versioned JSON document, strictly validated."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..errors import ConfigError
from .registry import ALL_METHOD_NAMES

SCHEMA_VERSION = 1

_TARGET_KEYS = {"name", "dim", "n_components", "seed", "sigma_f_sq", "scale", "mean",
                "observation_seed", "csv_path", "prior_scale", "add_bias"}
_METHOD_KEYS = {"name", "sigma0", "iterations", "batch_size", "learning_rate", "n_steps",
                "particles", "resample_threshold", "resampling", "kernel", "leapfrog_steps",
                "step_size_low", "step_size_high", "mh_substeps", "scale_low", "scale_high",
                "sigma_max", "guidance", "sigma_schedule", "loss", "trainable_sigma",
                "trainable_betas", "trainable_proposal", "score_stop_gradient",
                "proposal_mean", "proposal_log_std", "pretrain_base", "sigma0_grid",
                "n_steps_grid", "batch_grid", "pretrain_batch", "pretrain_iterations",
                "pretrain_lr"}
_TOP_KEYS = {"schema_version", "target", "method", "protocol", "seeds", "output_dir"}

TARGET_NAMES = ("mog", "mos", "funnel", "gaussian", "brownian", "logistic")


@dataclass
class Protocol:
    n_checkpoints: int = 100
    running_avg_len: int = 5
    n_seeds: int = 4
    eval_samples: int = 2000
    ipm_subsample: int = 512
    sinkhorn_iters: int = 300


_PROTOCOL_KEYS = {f.name for f in fields(Protocol)}


@dataclass
class ExperimentConfig:
    target_name: str
    target_params: dict
    method_name: str
    method_params: dict
    protocol: Protocol = field(default_factory=Protocol)
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3])
    output_dir: str = "results"

    def label(self) -> str:
        return f"{self.method_name}_{self.target_name}"


def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    for section in ("target", "method"):
        if section not in doc or "name" not in doc[section]:
            raise ConfigError(f"config needs a {section!r} section with a name")
    _check_keys(doc["target"], _TARGET_KEYS, "target")
    _check_keys(doc["method"], _METHOD_KEYS, "method")
    target_name = doc["target"]["name"]
    if target_name not in TARGET_NAMES:
        raise ConfigError(f"unknown target {target_name!r}; expected one of {TARGET_NAMES}")
    method_name = doc["method"]["name"]
    if method_name not in ALL_METHOD_NAMES:
        raise ConfigError(f"unknown method {method_name!r}; expected one of {ALL_METHOD_NAMES}")
    if target_name == "logistic":
        csv_path = doc["target"].get("csv_path")
        if not csv_path or not Path(csv_path).exists():
            raise ConfigError(f"logistic target needs an existing csv_path (got {csv_path!r})")

    protocol = Protocol()
    if "protocol" in doc:
        _check_keys(doc["protocol"], _PROTOCOL_KEYS, "protocol")
        for key, value in doc["protocol"].items():
            setattr(protocol, key, value)

    seeds = doc.get("seeds", list(range(protocol.n_seeds)))
    if not seeds or len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be a nonempty list of distinct integers")

    target_params = {k: v for k, v in doc["target"].items() if k != "name"}
    method_params = {k: v for k, v in doc["method"].items() if k != "name"}
    return ExperimentConfig(target_name, target_params, method_name, method_params,
                            protocol, list(seeds), doc.get("output_dir", "results"))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(doc)


def apply_desk_scale(config: ExperimentConfig) -> ExperimentConfig:
    """Shrink training budgets for desk-scale runs; labeled, never silent."""
    m = config.method_params
    presets = {
        "mfvi": {"iterations": 20_000, "batch_size": 512},
        "smc": {},
        "craft": {"iterations": 200, "particles": 512, "n_steps": 48},
    }
    diffusion_preset = {"iterations": 2500, "batch_size": 128, "n_steps": 32}
    preset = presets.get(config.method_name, diffusion_preset)
    for key, value in preset.items():
        m.setdefault(key, value)
    config.protocol.n_checkpoints = min(config.protocol.n_checkpoints, 25)
    config.protocol.eval_samples = min(config.protocol.eval_samples, 1000)
    config.protocol.ipm_subsample = min(config.protocol.ipm_subsample, 256)
    return config
