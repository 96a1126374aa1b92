"""Stable log-space reductions used by every weight computation."""

import math

import numpy as np

from ..errors import UsageError

LOG_2PI = math.log(2.0 * math.pi)


# numpy's exp takes a slow path when its result underflows or is subnormal (an
# input below about -708); inputs clamped at the floor never take it
EXP_FLOOR = -700.0


def exp_clamped_inplace(buf):
    """exp(max(buf, -700)) in place; returns `buf`.

    Exact wherever its results are summed with terms far above e^-700 (about
    1e-304): a clamped term is then absorbed in rounding.
    """
    np.maximum(buf, EXP_FLOOR, out=buf)
    return np.exp(buf, out=buf)


def exp_shifted_inplace(buf, axis):
    """exp(buf - peak) in place, clamped, with peak the maximum along `axis`; returns peak.

    Every slice along `axis` holds the shifted maximum exp(0) = 1, so by the
    argument of exp_clamped_inplace its sums equal the unclamped ones.
    """
    peak = buf.max(axis=axis, keepdims=True)
    np.subtract(buf, peak, out=buf)
    exp_clamped_inplace(buf)
    return peak.squeeze(axis)


def log_sum_exp(values, axis=None):
    """log(sum(exp(values))) computed with the max-shift trick.

    Accepts -inf entries; returns -inf when every entry is -inf.  Empty input
    is a usage error rather than a silent -inf.
    """
    v = np.array(values, dtype=float)  # a copy: the shifted exp works in place
    if v.size == 0:
        raise UsageError("log_sum_exp of empty input")
    if np.isnan(v).any() or np.isposinf(v).any():
        raise UsageError("log_sum_exp entries must be finite or -inf")
    with np.errstate(invalid="ignore"):  # an all -inf slice shifts to nan; it reads -inf below
        peak = exp_shifted_inplace(v, axis)
        out = np.log(v.sum(axis=axis)) + peak
    if axis is None:
        return float(out) if np.isfinite(peak) else float("-inf")
    return np.where(np.isfinite(peak), out, -np.inf)


def log_mean_exp(values, axis=None):
    """log of the arithmetic mean of exp(values)."""
    v = np.asarray(values, dtype=float)
    n = v.size if axis is None else v.shape[axis]
    return log_sum_exp(v, axis=axis) - np.log(n)


def ess_fraction(log_weights) -> float:
    """Normalized effective sample size (sum w)^2 / (N sum w^2), in (0, 1]."""
    lw = np.asarray(log_weights, dtype=float)
    return float(np.exp(2.0 * log_sum_exp(lw) - log_sum_exp(2.0 * lw) - np.log(len(lw))))
