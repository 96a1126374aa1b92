"""Compute one MetricReport for a sampler against a target."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..metrics import (
    FORWARD,
    REVERSE,
    MetricReport,
    WeightedSamples,
    _ipm_pair,
    ejs,
    elbo,
    emc,
    ess_estimates,
    eubo,
    log_z_estimates,
)
# the cloud forms of the criteria _ipm_pair computes together; perfbench's
# tracer looks these names up here
from ..metrics import mmd, sinkhorn_w2  # noqa: F401
from ..numerics.rng import RngStream


@dataclass
class ExactDraws:
    """A seed's fixed exact target draws, and the target query at them.

    `evaluate_sampler` makes the query, one fused value+score call, at the
    first checkpoint; every later checkpoint's backward path reads it.
    """

    points: np.ndarray
    query: Optional[tuple] = None  # (log gamma, grad log gamma) at points


def sample_criteria(x, log_w, target, target_samples, ipm_subsample: int,
                    sinkhorn_iters: int) -> MetricReport:
    """The criteria that samples `x` give without the sampler that drew them.

    `log_w` are their reverse log weights, `target_samples` the target's exact
    draws; a criterion whose input (log_w, a mode model, exact draws) is None stays None.
    """
    report = MetricReport()
    if log_w is not None:
        ws = WeightedSamples(x, log_w, REVERSE)
        report.elbo = elbo(ws)
        report.elbo_se = float(np.std(log_w, ddof=1) / math.sqrt(len(log_w)))
        report.log_z_rev, report.delta_log_z_rev = log_z_estimates(ws, target.true_log_z)
        report.ess_rev = ess_estimates(ws)

    modes = target.mode_model
    if modes is not None:
        cells = modes.cell(x)
        report.emc = emc(cells, modes.n_modes)
        if modes.true_mode_probs is not None:
            report.ejs = ejs(cells, modes.true_mode_probs)

    if target_samples is not None:
        y = target_samples
        k = min(ipm_subsample, len(x), len(y))
        if k >= 2:
            report.mmd, report.w2, report.w2_converged = _ipm_pair(x[:k], y[:k], sinkhorn_iters)
    return report


def evaluate_sampler(sampler, target, n_samples: int, rng: RngStream,
                     exact: Optional[ExactDraws], ipm_subsample: int,
                     sinkhorn_iters: int) -> MetricReport:
    """Full criteria vector; criteria whose prerequisites are missing stay None.

    `exact` holds the target's exact draws, None when it has no exact sampler;
    the target is queried at them here, on the first call only.
    """
    x, log_w = sampler.sample_with_logweights(n_samples, rng)
    y = None if exact is None else exact.points
    report = sample_criteria(x, log_w, target, y, ipm_subsample, sinkhorn_iters)
    if exact is not None:
        if exact.query is None:
            exact.query = target.logdensity_and_grad(y)
        log_w_f = sampler.backward_logweights(y, rng, exact.query)
        fws = WeightedSamples(y, log_w_f, FORWARD)
        report.eubo = eubo(fws)
        report.eubo_se = float(np.std(log_w_f, ddof=1) / math.sqrt(len(log_w_f)))
        report.log_z_fwd, report.delta_log_z_fwd = log_z_estimates(fws, target.true_log_z)
        report.ess_fwd = ess_estimates(fws)
    report.nfe_at_eval = target.nfe.value
    return report
