"""Stable log-space reductions used by every weight computation."""

import math

import numpy as np

from ..errors import UsageError

LOG_2PI = math.log(2.0 * math.pi)


def log_sum_exp(values, axis=None):
    """log(sum(exp(values))) computed with the max-shift trick.

    Accepts -inf entries; returns -inf when every entry is -inf.  Empty input
    is a usage error rather than a silent -inf.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise UsageError("log_sum_exp of empty input")
    if np.isnan(v).any() or np.isposinf(v).any():
        raise UsageError("log_sum_exp entries must be finite or -inf")
    m = np.max(v, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(v - m_safe), axis=axis, keepdims=True)) + m_safe
    if axis is None:
        return float(out.reshape(())) if np.all(np.isfinite(m)) else float("-inf")
    out = np.squeeze(out, axis=axis)
    return np.where(np.isfinite(np.squeeze(m, axis=axis)), out, -np.inf)


def log_mean_exp(values, axis=None):
    """log of the arithmetic mean of exp(values)."""
    v = np.asarray(values, dtype=float)
    n = v.size if axis is None else v.shape[axis]
    return log_sum_exp(v, axis=axis) - np.log(n)


def ess_fraction(log_weights) -> float:
    """Normalized effective sample size (sum w)^2 / (N sum w^2), in (0, 1]."""
    lw = np.asarray(log_weights, dtype=float)
    return float(np.exp(2.0 * log_sum_exp(lw) - log_sum_exp(2.0 * lw) - np.log(len(lw))))
