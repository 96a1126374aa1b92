"""Experiment configuration: one versioned JSON document, strictly validated.

A target section sets its builder's parameters and a method section the keys of
its `registry.METHOD_PARAMS` entry, plus the grids of the ablations that apply
to the method. Each value must have the type of its key's default, and each
target, method and protocol value must lie in its key's range in `RANGES`; an
ablation grid must be nonempty with distinct entries, each with the type and the
range of the key it fills.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import ConfigError
from .registry import ABLATIONS, METHOD_PARAMS, TARGETS, grid_fills, target_params

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version": int, "target": dict, "method": dict, "protocol": dict,
             "seeds": list, "output_dir": str}


@dataclass
class Protocol:
    n_checkpoints: int = 100
    running_avg_len: int = 5
    eval_samples: int = 2000
    ipm_subsample: int = 512  # 0: no MMD or W2
    sinkhorn_iters: int = 300


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


def check_params(section: dict, declared: dict, where: str):
    """Reject a key `declared` does not name, or a value of the wrong type.

    A declaration is a default, whose type the value must have, or a bare type.
    An int also fills a float key; a bool fills only a bool key.
    """
    unknown = set(section) - set(declared)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    for key, value in section.items():
        kind = declared[key] if isinstance(declared[key], type) else type(declared[key])
        if (not isinstance(value, (int, float) if kind is float else kind)
                or (isinstance(value, bool) and kind is not bool)):
            raise ConfigError(f"{where} key {key!r} takes a {kind.__name__}, got {value!r}")


def _at_least(low):
    return lambda v: v >= low, f"at least {low}"


def _one_of(*choices):
    return lambda v: v in choices, f"one of {choices}"


_POSITIVE = (lambda v: 0 < v < math.inf, "a finite number greater than 0")

# The valid values of every target, method and protocol key, as (test, text): a key
# means the same for every target or method that declares it. A seed takes any int.
RANGES = {
    **dict.fromkeys(("iterations", "batch_size", "n_steps", "leapfrog_steps", "mh_substeps",
                     "n_checkpoints", "running_avg_len", "sinkhorn_iters", "dim"), _at_least(1)),
    **dict.fromkeys(("particles", "eval_samples", "n_components"), _at_least(2)),
    "ipm_subsample": (lambda v: v == 0 or v >= 2, "0 (no MMD or W2) or at least 2"),
    **dict.fromkeys(("sigma0", "sigma_max", "learning_rate", "step_size_low", "step_size_high",
                     "scale_low", "scale_high", "sigma_f_sq", "scale", "prior_scale"),
                    _POSITIVE),
    "mean": (math.isfinite, "a finite number"),
    "resample_threshold": (lambda v: 0 <= v <= 1, "between 0 and 1"),
    "kernel": _one_of("hmc", "mh"),
    "sigma_schedule": _one_of("cosine", "constant"),
    "loss": _one_of("elbo", "vargrad"),
}


def check_ranges(section: dict, where: str):
    """Reject a value outside its key's range; `check_params` has checked its type."""
    for key, value in section.items():
        if key in RANGES and not RANGES[key][0](value):
            raise ConfigError(f"{where} key {key!r} must be {RANGES[key][1]}, got {value!r}")


def check_pairings(method: str, params: dict, where: str):
    """Reject in-range values that do not go together: VarGrad needs a batch of 2 or
    more, and a cell that pretrains its base (`pretrain_base`) cannot be given one."""
    p = {**METHOD_PARAMS[method], **params}
    if p.get("loss") == "vargrad" and p["batch_size"] < 2:
        raise ConfigError(f"{where}: loss 'vargrad' needs batch_size at least 2")
    if params.get("pretrain_base") and {"proposal_mean", "proposal_log_std"} & params.keys():
        raise ConfigError(f"{where}: pretrain_base fits the base, so the config must set "
                          "neither proposal_mean nor proposal_log_std")


def check_target(name: str, params: dict):
    if name not in TARGETS:
        raise ConfigError(f"unknown target {name!r}; expected one of {tuple(TARGETS)}")
    check_params(params, target_params(name), f"target {name!r}")
    check_ranges(params, "target")


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    check_params(doc, _TOP_KEYS, "config")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    for section in ("target", "method"):
        if section not in doc or not isinstance(doc[section].get("name"), str):
            raise ConfigError(f"config needs a {section!r} section with a name string")
    target_name = doc["target"]["name"]
    target_params = {k: v for k, v in doc["target"].items() if k != "name"}
    check_target(target_name, target_params)
    if target_name == "logistic":
        csv_path = target_params.get("csv_path")
        if not csv_path or not Path(csv_path).exists():
            raise ConfigError(f"logistic target needs an existing csv_path (got {csv_path!r})")

    method_name = doc["method"]["name"]
    if method_name not in METHOD_PARAMS:
        raise ConfigError(f"unknown method {method_name!r}; "
                          f"expected one of {tuple(METHOD_PARAMS)}")
    method_params = {k: v for k, v in doc["method"].items() if k != "name"}
    grids = {grid: list for methods, grid, _ in ABLATIONS.values()
             if grid and method_name in methods}
    check_params(method_params, {**METHOD_PARAMS[method_name], **grids},
                 f"method {method_name!r}")
    check_ranges(method_params, "method")
    check_pairings(method_name, method_params, "method")
    for grid in grids.keys() & method_params.keys():  # each entry, as the key it fills
        if not method_params[grid]:
            raise ConfigError(f"method key {grid!r} must have at least one entry")
        key = grid_fills(grid, method_name)
        for entry in method_params[grid]:
            check_params({key: entry}, METHOD_PARAMS[method_name],
                         f"{grid} entry: method {method_name!r}")
            check_ranges({key: entry}, f"{grid} entry: method")
        if len(set(method_params[grid])) < len(method_params[grid]):  # one cell per label
            raise ConfigError(f"method key {grid!r} must have distinct entries, "
                              f"got {method_params[grid]!r}")

    protocol = doc.get("protocol", {})
    check_params(protocol, asdict(Protocol()), "protocol")
    check_ranges(protocol, "protocol")
    config = ExperimentConfig(target_name, target_params, method_name, method_params,
                              Protocol(**protocol),
                              **{k: doc[k] for k in ("seeds", "output_dir") if k in doc})
    seeds = config.seeds
    if not (seeds and all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
            and len(set(seeds)) == len(seeds)):
        raise ConfigError("seeds must be a nonempty list of distinct integers")
    return config


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
