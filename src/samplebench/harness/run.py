"""Experiment execution: per-seed training, smoothed checkpoint criteria,
best-ELBO selection, and cross-seed aggregation."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..metrics import MetricReport
from ..numerics.rng import RngStream
from .config import ExperimentConfig
from .evaluate import ExactDraws, evaluate_sampler
from .registry import MethodDriver, build_target


@dataclass
class SeedRecord:
    seed: int
    iterations: list = field(default_factory=list)
    reports: list = field(default_factory=list)       # smoothed, in checkpoint order
    raw_reports: list = field(default_factory=list)
    wall_clock: list = field(default_factory=list)
    best_index: int = 0

    def best_report(self) -> MetricReport:
        return self.reports[self.best_index]


@dataclass
class RunRecord:
    config: ExperimentConfig
    seed_records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def running_average(series, window: int):
    """Trailing mean over the last `window` entries (shorter at the start)."""
    out = []
    for i in range(len(series)):
        lo = max(0, i - window + 1)
        chunk = [v for v in series[lo : i + 1] if v is not None]
        out.append(float(np.mean(chunk)) if chunk else None)
    return out


def smooth_reports(raw_reports, window: int):
    """Apply the trailing running average to every criterion series."""
    smoothed = [MetricReport() for _ in raw_reports]
    for name in MetricReport.CRITERIA + ("elbo_se", "eubo_se"):
        series = [getattr(r, name) for r in raw_reports]
        for rep, value in zip(smoothed, running_average(series, window)):
            setattr(rep, name, value)
    # a smoothed w2 averages the window's raw values: converged only if each one is
    flags = [None if r.w2_converged is None else float(r.w2_converged) for r in raw_reports]
    for rep, raw, frac in zip(smoothed, raw_reports, running_average(flags, window)):
        rep.nfe_at_eval = raw.nfe_at_eval
        rep.w2_converged = None if frac is None else frac == 1.0
    return smoothed


def select_best(reports) -> int:
    """Argmax of smoothed ELBO; ties break to the earliest checkpoint."""
    best, best_val = 0, -np.inf
    for i, rep in enumerate(reports):
        if rep.elbo is not None and rep.elbo > best_val:
            best, best_val = i, rep.elbo
    return best


def run_experiment(config: ExperimentConfig, clock=time.perf_counter) -> RunRecord:
    """Train per seed with checkpoint evaluation; aggregate best-checkpoint criteria.

    `clock` is injectable so emitted records can be made byte-deterministic.
    """
    record = RunRecord(config)
    for seed in sorted(config.seeds):
        target = build_target(config.target_name, config.target_params)
        target.nfe.reset()
        eval_rng = RngStream(seed, 10_000)
        exact = None
        if target.exact_sampler is not None:
            exact = ExactDraws(target.exact_sampler(RngStream(seed, 20_000),
                                                    config.protocol.eval_samples))
        seed_rec = SeedRecord(seed)
        start = clock()

        def on_checkpoint(iteration, sampler):
            report = evaluate_sampler(
                sampler, target, config.protocol.eval_samples, eval_rng, exact,
                ipm_subsample=config.protocol.ipm_subsample,
                sinkhorn_iters=config.protocol.sinkhorn_iters,
            )
            seed_rec.iterations.append(iteration)
            seed_rec.raw_reports.append(report)
            seed_rec.wall_clock.append(clock() - start)

        driver = MethodDriver(config.method_name, config.method_params)
        try:
            driver.train(target, config.target_name, seed,
                         config.protocol.n_checkpoints, on_checkpoint)
        except ConfigError:
            raise  # a config mistake fails every seed alike
        except Exception as exc:  # the seed fails; its checkpoints so far and the other seeds stay
            record.failures.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            if not seed_rec.raw_reports:
                continue
        seed_rec.reports = smooth_reports(seed_rec.raw_reports,
                                          config.protocol.running_avg_len)
        seed_rec.best_index = select_best(seed_rec.reports)
        record.seed_records.append(seed_rec)

    record.summary = summarize(record)
    return record


def summarize(record: RunRecord) -> dict:
    """Mean and unbiased std over the per-seed best-checkpoint criteria."""
    summary = {}
    records = sorted(record.seed_records, key=lambda r: r.seed)
    for name in MetricReport.CRITERIA:
        values = [getattr(r.best_report(), name) for r in records if r.reports]
        values = [v for v in values if v is not None]
        if not values:
            continue
        arr = np.asarray(values, dtype=float)
        summary[name] = {
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
            "n_seeds": len(arr),
        }
    return summary
