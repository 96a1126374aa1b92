"""Ablation drivers: factorial grids over one design axis, long-format output."""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigError
from ..metrics import MetricReport
from ..numerics.rng import RngStream
from .config import ExperimentConfig, check_pairings
from .emit import _atomic_write, format_cell
from .registry import (ABLATION_GRIDS, ABLATION_KINDS, build_target, grid_fills,
                       resolve_method_params)
from .run import run_experiment


def _grid(key: str, config: ExperimentConfig) -> list:
    return config.method_params.get(key, ABLATION_GRIDS[key][1])


def ablation_cells(kind: str, config: ExperimentConfig) -> list:
    """(label, method_param overrides) pairs for the requested grid.

    The pretrain_base grid's `pretrain_base` override is no method key: it asks
    `run_ablation` to fit the cell's proposal first.
    """
    if kind not in ABLATION_KINDS:
        raise ConfigError(f"unknown ablation kind {kind!r}; valid: {sorted(ABLATION_KINDS)}")
    if config.method_name not in ABLATION_KINDS[kind]:
        raise ConfigError(
            f"ablation {kind!r} does not apply to method {config.method_name!r}; "
            f"valid methods: {ABLATION_KINDS[kind]}"
        )
    if kind == "smc_choices":
        return [
            (f"kernel={k},resampling={r}", {"kernel": k, "resampling": r})
            for k in ("mh", "hmc")
            for r in (False, True)
        ]
    if kind == "init_support":
        scales = _grid("sigma0_grid", config)
        return [(f"sigma0={s:g}", {"sigma0": float(s)}) for s in scales]
    if kind == "langevin_choices":
        cells = []
        for sig in (False, True):
            for bet in (False, True):
                for prop in (False, True):
                    label = f"sigma={int(sig)},betas={int(bet)},proposal={int(prop)}"
                    cells.append((label, {"trainable_sigma": sig, "trainable_betas": bet,
                                          "trainable_proposal": prop}))
        return cells
    if kind in ("num_steps", "batchsize"):
        grid = "n_steps_grid" if kind == "num_steps" else "batch_grid"
        key = grid_fills(grid, config.method_name)
        return [(f"{key}={v}", {key: v}) for v in _grid(grid, config)]
    if kind == "grad_network":
        return [("guidance=0", {"guidance": False}), ("guidance=1", {"guidance": True})]
    if kind == "loss_fn":
        return [("loss=elbo", {"loss": "elbo"}), ("loss=vargrad", {"loss": "vargrad"})]
    if kind == "pretrain_base":
        return [("pretrained=0", {}), ("pretrained=1", {"pretrain_base": True})]
    raise AssertionError(kind)


def _pretrain_proposal(config: ExperimentConfig):
    """Fit MFVI once (batch 512, 8,000 iterations, lr 5e-3); export (mean, log_std)."""
    from ..vi import mfvi_train

    target = build_target(config.target_name, config.target_params)
    sigma0 = resolve_method_params(config.method_name, config.target_name,
                                   config.method_params)["sigma0"]
    q, _ = mfvi_train(target, sigma0, 512, 8000, 5e-3, RngStream(0, 777))
    return q.mean.tolist(), q.log_std.tolist()


@dataclass
class AblationRecord:
    kind: str
    config: ExperimentConfig
    cells: list = field(default_factory=list)  # (label, overrides, RunRecord)


def run_ablation(kind: str, config: ExperimentConfig, clock=time.perf_counter) -> AblationRecord:
    cells = ablation_cells(kind, config)
    for label, overrides in cells:  # every cell's values, before any cell runs
        check_pairings(config.method_name, {**config.method_params, **overrides}, f"cell {label}")
    record = AblationRecord(kind, config)
    for label, overrides in cells:
        cell_config = copy.deepcopy(config)
        params = cell_config.method_params
        params.update((k, v) for k, v in overrides.items() if k != "pretrain_base")
        if overrides.get("pretrain_base"):
            params["proposal_mean"], params["proposal_log_std"] = _pretrain_proposal(cell_config)
        run = run_experiment(cell_config, clock=clock)
        record.cells.append((label, overrides, run))
    return record


def render_ablation_csv(record: AblationRecord) -> str:
    columns = ("kind", "cell", "seed", "best_checkpoint") + MetricReport.CRITERIA
    lines = [",".join(columns)]
    for label, _, run in record.cells:
        for seed_rec in sorted(run.seed_records, key=lambda r: r.seed):
            best = seed_rec.best_report()
            cells = [record.kind, label, str(seed_rec.seed), str(seed_rec.best_index)]
            cells += [format_cell(getattr(best, name)) for name in MetricReport.CRITERIA]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_ablation_summary(record: AblationRecord) -> str:
    body = {
        "kind": record.kind,
        "method": record.config.method_name,
        "target": record.config.target_name,
        "cells": {label: run.summary for label, _, run in record.cells},
        "failures": {label: run.failures for label, _, run in record.cells if run.failures},
    }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def emit_ablation(record: AblationRecord, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = f"ablation_{record.kind}_{record.config.label()}"
    csv_path = out / f"{base}.csv"
    json_path = out / f"{base}_summary.json"
    _atomic_write([(csv_path, render_ablation_csv(record)),
                   (json_path, render_ablation_summary(record))])
    return {"csv": csv_path, "summary": json_path}
