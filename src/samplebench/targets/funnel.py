"""Funnel target: N(x1; 0, sigma_f^2) * N(x_2:d; 0, exp(x1) I)."""

from __future__ import annotations

import numpy as np

from ..numerics.logspace import LOG_2PI
from .base import TargetDensity


def make_funnel_target(dim: int = 10, sigma_f_sq: float = 9.0) -> TargetDensity:
    k = dim - 1  # number of funnel coordinates

    def value(x1, rest_sq, inv_var):
        lead = -0.5 * (LOG_2PI + np.log(sigma_f_sq)) - 0.5 * x1**2 / sigma_f_sq
        rest_term = -0.5 * k * (LOG_2PI + x1) - 0.5 * rest_sq * inv_var
        return lead + rest_term

    def log_unnorm(x):
        return value(x[:, 0], np.sum(x[:, 1:] ** 2, axis=1), np.exp(-x[:, 0]))

    def score_hvp(x):
        x1 = x[:, 0]
        rest = x[:, 1:]
        rest_sq = np.sum(rest**2, axis=1)
        inv_var = np.exp(-x1)
        grad = np.empty_like(x)
        grad[:, 0] = -x1 / sigma_f_sq - 0.5 * k + 0.5 * rest_sq * inv_var
        grad[:, 1:] = -rest * inv_var[:, None]
        return value(x1, rest_sq, inv_var), grad, None  # no HVP

    def sampler(rng, n):
        x1 = np.sqrt(sigma_f_sq) * rng.normal(n)
        rest = np.exp(x1 / 2.0)[:, None] * rng.normal((n, k))
        return np.column_stack([x1, rest])

    return TargetDensity(
        dim=dim,
        log_unnorm=log_unnorm,
        score_hvp=score_hvp,
        true_log_z=0.0,
        exact_sampler=sampler,
        name=f"funnel_d{dim}",
    )
