"""Evaluation criteria over weighted samples, mode probabilities, and point clouds.

Reverse criteria take expectations under the model (samples drawn from q with
log importance weights); forward criteria take expectations under the target
(exact target samples pushed through the model).  Everything is computed in
log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UsageError
from .numerics.logspace import (
    EXP_FLOOR,
    ess_fraction,
    exp_clamped_inplace,
    exp_shifted_inplace,
    log_mean_exp,
    log_sum_exp,
)

REVERSE = "reverse"
FORWARD = "forward"


def _clouds(*clouds):
    """The point clouds as 2-D float arrays of one dimension d; UsageError otherwise."""
    out = [np.asarray(c, dtype=float) for c in clouds]
    if any(c.ndim != 2 for c in out) or len({c.shape[1] for c in out}) != 1:
        raise UsageError(f"point clouds of shapes {[c.shape for c in out]} are not (n, d) "
                         "batches of one d")
    return out


@dataclass
class WeightedSamples:
    """n points with log importance weights and the direction they were drawn in."""

    samples: np.ndarray
    log_w: np.ndarray
    direction: str

    def __post_init__(self):
        (self.samples,) = _clouds(self.samples)
        self.log_w = np.asarray(self.log_w, dtype=float)
        if len(self.samples) != len(self.log_w):
            raise UsageError("samples and log_w length mismatch")
        if self.direction not in (REVERSE, FORWARD):
            raise UsageError(f"direction must be 'reverse' or 'forward', got {self.direction!r}")


@dataclass
class MetricReport:
    """One checkpoint's criteria vector; absent criteria stay None."""

    elbo: Optional[float] = None
    eubo: Optional[float] = None
    log_z_rev: Optional[float] = None
    log_z_fwd: Optional[float] = None
    delta_log_z_rev: Optional[float] = None
    delta_log_z_fwd: Optional[float] = None
    ess_rev: Optional[float] = None
    ess_fwd: Optional[float] = None
    emc: Optional[float] = None
    ejs: Optional[float] = None
    mmd: Optional[float] = None
    w2: Optional[float] = None
    w2_converged: Optional[bool] = None  # Sinkhorn met its tolerance; not a criterion
    nfe_at_eval: int = 0
    elbo_se: Optional[float] = None
    eubo_se: Optional[float] = None

    CRITERIA = (
        "elbo", "eubo", "log_z_rev", "log_z_fwd", "delta_log_z_rev",
        "delta_log_z_fwd", "ess_rev", "ess_fwd", "emc", "ejs", "mmd", "w2",
    )


# ------------------------------------------------------------- bound criteria
def elbo(ws: WeightedSamples) -> float:
    """Mean log weight under the model: a lower bound on log Z."""
    if ws.direction != REVERSE:
        raise UsageError("elbo needs reverse-direction samples (drawn from the model)")
    return float(np.mean(ws.log_w))


def eubo(ws: WeightedSamples) -> float:
    """Mean log weight under the target: an upper bound on log Z."""
    if ws.direction != FORWARD:
        raise UsageError("eubo needs forward-direction samples (drawn from the target)")
    return float(np.mean(ws.log_w))


def log_z_estimates(ws: WeightedSamples, true_log_z: Optional[float] = None):
    """Importance-weighted log Z estimate and |error| when the truth is known.

    Reverse: log mean(w).  Forward: -log mean(1/w).
    """
    if ws.direction == REVERSE:
        est = log_mean_exp(ws.log_w)
    else:
        est = -log_mean_exp(-ws.log_w)
    delta = abs(true_log_z - est) if true_log_z is not None else None
    return float(est), delta


def ess_estimates(ws: WeightedSamples) -> float:
    """Normalized effective sample size in (0, 1]."""
    lw = ws.log_w
    if ws.direction == REVERSE:
        return ess_fraction(lw)
    # Z_f / E_pi[w] = 1 / (mean(1/w) * mean(w)); <= 1 by Cauchy-Schwarz
    return float(np.exp(2.0 * np.log(len(lw)) - log_sum_exp(-lw) - log_sum_exp(lw)))


# ------------------------------------------------------------- mode coverage
def _validate_cells(cells, n_modes):
    c = np.asarray(cells)
    if c.ndim != 1 or not np.issubdtype(c.dtype, np.integer):
        raise UsageError(f"mode cells of shape {c.shape} and dtype {c.dtype} are not "
                         "(n,) integers")
    if n_modes < 2:
        raise UsageError("mode cells need at least 2 modes")
    if len(c) and (c.min() < 0 or c.max() >= n_modes):
        raise UsageError(f"mode cells must lie in [0, {n_modes})")
    return c


def _js_rows(p, q):
    """JS divergence (nats) of each row of p from q."""
    mid = 0.5 * (p + q)

    def kl(a, b):
        # entries with a = 0 add 0; b > 0 wherever a > 0, and 1 stands in elsewhere
        nz = a > 0
        log_ratio = np.log(np.where(nz, a, 1.0)) - np.log(np.where(nz, b, 1.0))
        return np.sum(np.where(nz, a * log_ratio, 0.0), axis=-1)

    return 0.5 * kl(p, mid) + 0.5 * kl(q[None, :], mid)


def emc(cells, n_modes: int) -> float:
    """Entropic mode coverage in [0, 1]: the base-M entropy of the share of the
    samples in each of the M = n_modes modes, from their mode cells in [0, M)."""
    c = _validate_cells(cells, n_modes)
    q = np.bincount(c, minlength=n_modes) / len(c)
    nz = q > 0
    # + 0.0 turns the -0.0 of samples in one mode (-(1 * log 1)) into 0.0
    return float(-(q[nz] * np.log(q[nz])).sum() / np.log(n_modes)) + 0.0


def ejs(cells, true_probs) -> float:
    """Expected Jensen-Shannon divergence (base 2) between the samples' one-hot
    mode assignments, from their mode cells `cells`, and the truth `true_probs`.

    A one-hot row's JS value is the row of the (M, M) table over np.eye(M)
    that has the same contents, so each sample gathers it by its cell.
    """
    q = np.asarray(true_probs, dtype=float)
    if q.ndim != 1:
        raise UsageError("true_probs must be one probability vector over the modes")
    c = _validate_cells(cells, len(q))
    return float(np.mean(_js_rows(np.eye(len(q)), q)[c]) / np.log(2.0))


# ------------------------------------------------- integral probability metrics
_DIST_BLOCK = 64  # rows per block of the distance loop
# sinkhorn_w2's default regularization and tolerance
_EPSILON = 1e-3
_TOL = 1e-6


def _sq_distances(x, y=None):
    """Pairwise squared Euclidean distances, (n, m), with the bits of scipy's cdist.

    Each entry sums (x_k - y_k)^2 over k = 1..d in order, the summation order of
    scipy's C loop, one coordinate at a time over a block of rows held in two
    reused contiguous buffers.  With y omitted it is the (n, n) matrix within x:
    a block fills only the columns from its first row on and mirrors them, as
    (a - b)^2 and (b - a)^2 are equal.
    """
    symmetric = y is None
    y = x if symmetric else y
    n, m = len(x), len(y)
    out = np.empty((n, m))
    acc_buf = np.empty(min(n, _DIST_BLOCK) * m)
    diff_buf = np.empty_like(acc_buf)
    y_cols = np.ascontiguousarray(y.T)
    for start in range(0, n, _DIST_BLOCK):
        stop = min(start + _DIST_BLOCK, n)
        first = start if symmetric else 0
        shape = (stop - start, m - first)
        acc = acc_buf[:shape[0] * shape[1]].reshape(shape)
        diff = diff_buf[:acc.size].reshape(shape)
        acc.fill(0.0)
        for k, y_k in enumerate(y_cols):
            np.subtract(x[start:stop, k, None], y_k[first:], out=diff)
            np.multiply(diff, diff, out=diff)
            np.add(acc, diff, out=acc)
        out[start:stop, first:] = acc
        if symmetric:
            out[stop:, start:stop] = acc[:, stop - start:].T
    return out


def _pooled_sq_distances(x, y):
    return _sq_distances(np.concatenate([x, y], axis=0))


def _median_upper(d2) -> float:
    """np.median of the strict upper triangle, bit for bit, from one partition.

    After partitioning at the upper middle index, the lower middle value is the
    largest entry before it.  Any NaN entry makes the median NaN, as in np.median.
    Computing it here keeps np.median's lazy NaN check (and the numpy.ma import
    it costs) out of the run.
    """
    # row slices give np.triu_indices' row-major order without its index arrays
    vals = np.concatenate([row[i + 1 :] for i, row in enumerate(d2)])
    if np.isnan(vals).any():
        return float("nan")
    half = len(vals) // 2
    vals.partition(half)
    if len(vals) % 2:
        return float(vals[half])
    return float((vals[:half].max() + vals[half]) / 2.0)


def _canonical(x, y, min_points):
    """The clouds as point sets: rows sorted lexicographically (+ 0.0 ties -0.0 with 0.0),
    the pair in byte order; UsageError unless each has `min_points` (n, d) points."""
    x, y = _clouds(x, y)
    if len(x) < min_points or len(y) < min_points:
        raise UsageError(f"need at least {min_points} point(s) in each sample")
    x, y = (c[np.lexsort(c.T[::-1])] + 0.0 for c in (x, y))
    return (y, x) if (x.shape, x.tobytes()) > (y.shape, y.tobytes()) else (x, y)


def mmd_squared(x, y, bandwidth: Optional[float] = None) -> float:
    """Unbiased MMD^2 estimate (may be negative) with a squared-exponential kernel."""
    x, y = _canonical(x, y, 2)
    return _mmd_squared_pooled(_pooled_sq_distances(x, y), len(x), bandwidth)


def _mmd_squared_pooled(d2, n, bandwidth=None) -> float:
    """MMD^2 from the pooled squared distances of n x-points then the y-points.

    The kernel matrix is built in `d2`, which is overwritten.
    """
    m = len(d2) - n
    alpha = _median_upper(d2) if bandwidth is None else float(bandwidth)
    if alpha <= 0:
        raise UsageError("mmd bandwidth must be positive")
    # the kernel matrix of the pooled sample, built in place; its blocks are kxx, kyy, kxy
    np.negative(d2, out=d2)
    np.divide(d2, alpha, out=d2)
    np.exp(d2, out=d2)
    np.fill_diagonal(d2, 0.0)
    term_x = d2[:n, :n].sum() / (n * (n - 1))
    term_y = d2[n:, n:].sum() / (m * (m - 1))
    return float(term_x + term_y - 2.0 * d2[:n, n:].sum() / (n * m))


def _root(sq) -> float:
    return float(np.sqrt(max(sq, 0.0)))


def mmd(x, y, bandwidth: Optional[float] = None) -> float:
    """Square root of the unbiased MMD^2 estimate, clamped at 0 before the root.

    The bandwidth defaults to the median heuristic on the pooled sample.
    """
    return _root(mmd_squared(x, y, bandwidth))


def _ipm_pair(x, y, max_iters: int):
    """(mmd(x, y), *sinkhorn_w2(x, y, max_iters=max_iters)) from one pooled distance matrix.

    Sinkhorn's cost is the pooled matrix's cross block, _sq_distances(x, y) bit for
    bit; MMD then builds its kernel in the pooled matrix.
    """
    x, y = _canonical(x, y, 2)
    n = len(x)
    d2 = _pooled_sq_distances(x, y)
    w2, converged = _sinkhorn(d2[:n, n:], _EPSILON, max_iters, _TOL)
    return _root(_mmd_squared_pooled(d2, n)), w2, converged


def sinkhorn_w2(x, y, epsilon: float = _EPSILON, max_iters: int = 10_000,
                tol: float = _TOL):
    """Entropy-regularized 2-Wasserstein distance via stabilised scaling Sinkhorn.

    Uniform marginals a = 1/n, b = 1/m and cost C = |x-y|^2; returns
    (sqrt(transport cost), converged).  Epsilon is annealed geometrically from
    span/8 down to its target, 10 warm-up iterations per level, so small-epsilon
    runs make progress.  The updates alternate (g uses the new f) on the clouds in
    canonical order, so any order of the rows or of the arguments gives the same bits.

    The iterate is held in scaling form (Schmitzer 2019): potentials (f, g)
    absorbed into a kernel K = exp(max((f + g - C)/eps, -700)) and scalings
    (u, v) on top, so the dual potentials are f + eps*log(u) and g + eps*log(v).
    An iteration is two matrix-vector products, u = a/(K v) and v = b/(K^T u).

    A level at exactly half the previous epsilon starts from the squared
    kernel: folding the scalings into K makes it exp((f + g - C)/eps) for the
    folded potentials, and its square is the kernel at eps/2, made in four
    passes with no exp; its first iteration is a scaling one.  The square is
    clamped at e^-700 again, so K and the scalings stay normal numbers and the
    matrix-vector products stay off the slow subnormal path (squaring u and v
    instead of folding them would not).  The first level, a level at any other
    ratio (the last one, and one after levels a short budget skipped) and any
    iteration whose u or v leaves [1/tau, tau] or is not finite run in log form
    instead (log-sum-exp over the cost), once the scalings are folded into
    (f, g), and leave K behind.  Within that range a clamped entry of K weighs
    at most about 1e-200 of its row, and folds to at most e^-470, so its square
    is clamped as the log form would clamp it: the iterates are the log-domain
    ones up to rounding.

    Convergence is the L1 error of the row marginals, |u*(K v) - a|, read off
    the next u-update: after a v-update the column marginals are exact up to
    rounding.  A converged exit returns the checked iterate, so W2 is the value
    a check over the full plan would give.

    Scaling iterations run in windows of up to _WINDOW, whose scalings are
    range-checked once, together, when the window ends.  In a window with a
    scaling out of range or NaN, the first iteration that made one keeps the
    scalings before it and redoes its bad half in log form; the iterations
    after it are dropped, and the level resumes from there.  So the iterates,
    the log-form steps and the converged exit are the ones of checking every
    scaling as it is made.
    """
    x, y = _canonical(x, y, 1)
    if epsilon <= 0:
        raise UsageError("epsilon must be positive")
    return _sinkhorn(_sq_distances(x, y), epsilon, max_iters, tol)


def _sinkhorn(cost, epsilon, max_iters, tol):
    """sinkhorn_w2 on the cost matrix of its clouds in canonical order."""
    n, m = cost.shape
    a, b = 1.0 / n, 1.0 / m
    log_a = -np.log(n)
    f = np.zeros(n)
    g = np.zeros(m)
    u = np.ones(n)
    v = np.ones(m)
    kernel = np.empty(cost.shape)  # K, made by the log-form steps and the squared starts
    # a window's scalings, row i holding (u, v) after its iteration i, and the products' buffers
    scalings = np.empty((min(_WINDOW, max(max_iters, 1)), n + m))
    kv, ku, resid = np.empty(n), np.empty(m), np.empty(n)

    span = float(cost.max())
    eps_levels = []
    eps = max(span / 8.0, epsilon)
    while eps > epsilon:
        eps_levels.append(eps)
        eps /= 2.0
    eps_levels.append(epsilon)
    warmup_iters = 10

    def fold(eps):
        # moves the scalings into the potentials; the iterate is unchanged
        nonlocal f, g, u, v
        f = f + eps * np.log(u)
        g = g + eps * np.log(v)
        u = np.ones(n)
        v = np.ones(m)

    def log_step(eps, update_f):
        # an iteration (or its v-half) in log form; the g-update's exp terms are K
        # for g = -eps * (column peak), and v = b / (column sum) carries the rest
        nonlocal f, g, v
        fold(eps)
        if update_f:
            np.subtract(g[None, :], cost, out=kernel)
            np.divide(kernel, eps, out=kernel)
            f = eps * (log_a - _lse_inplace(kernel, axis=1))
        np.subtract(f[:, None], cost, out=kernel)
        np.divide(kernel, eps, out=kernel)
        g = -eps * exp_shifted_inplace(kernel, axis=0)
        v = b / kernel.sum(axis=0)

    def row_error(u, kv):
        np.multiply(u, kv, out=resid)
        np.subtract(resid, a, out=resid)
        np.abs(resid, out=resid)
        return resid.sum()

    def window(eps, iters, check):
        # up to `iters` scaling iterations whose scalings are range-checked together
        # at the end; returns (iterations made, converged)
        nonlocal u, v
        rows = scalings[:iters]
        u_i, v_i = u, v
        done, converged = 0, False
        with np.errstate(all="ignore"):  # past a scaling out of range, the rows are discarded
            for row in rows:
                np.matmul(kernel, v_i, out=kv)
                # checks the previous iteration's iterate; only iterates made at this eps count
                if check and row_error(u_i, kv) < tol:
                    converged = True
                    break
                u_i = np.divide(a, kv, out=row[:n])
                v_i = np.divide(b, np.matmul(u_i, kernel, out=ku), out=row[n:])
                done += 1
        if not done or _in_scaling_range(rows[:done]):
            if done:
                u, v = u_i.copy(), v_i.copy()
            return done, converged
        # the first bad row's iteration redoes its bad half in log form, as checking
        # each scaling when made would; the rows after it, and a converged exit
        # among them, are dropped
        for bad, row in enumerate(rows[:done]):
            u_ok = _in_scaling_range(row[:n])
            if not (u_ok and _in_scaling_range(row[n:])):
                break
        if bad:
            u, v = rows[bad - 1, :n], rows[bad - 1, n:]
        if u_ok:
            u = row[:n]
        log_step(eps, update_f=not u_ok)  # folds u and v before the rows are reused
        return bad + 1, False

    def sweep(eps, scale_eps, iters, check):
        # a level's iterations; the scalings arrive at the last level's epsilon, scale_eps
        if eps == scale_eps / 2.0:
            _square_folded_kernel(kernel, u, v)
            fold(scale_eps)
            made, _ = window(eps, 1, check=False)
        else:
            fold(scale_eps)
            log_step(eps, update_f=True)
            made = 1
        while made < iters:
            done, converged = window(eps, min(_WINDOW, iters - made), check)
            if converged:
                return True
            made += done
        return check and row_error(u, kernel @ v) < tol

    budget = max_iters
    scale_eps = eps_levels[0]  # u = v = 1 so far, which fold at any epsilon
    for eps in eps_levels[:-1]:
        iters = min(warmup_iters, budget)
        if iters > 0:
            sweep(eps, scale_eps, iters, check=False)
            scale_eps = eps
        budget -= iters
    converged = sweep(epsilon, scale_eps, max(budget, 1), check=True)
    fold(epsilon)

    # the plan, built in the kernel's buffer: its mass is about 1, so a clamped
    # entry (at most e^-700) is absorbed in the transport cost
    np.add(f[:, None], g[None, :], out=kernel)
    np.subtract(kernel, cost, out=kernel)
    np.divide(kernel, epsilon, out=kernel)
    exp_clamped_inplace(kernel)
    np.multiply(kernel, cost, out=kernel)
    return _root(kernel.sum()), bool(converged)


# scalings beyond [1/tau, tau] are folded into the potentials and the step redone in log form
_SCALING_BOUND = 1e50
_WINDOW = 32  # scaling iterations per range check
_KERNEL_FLOOR = math.exp(EXP_FLOOR)


def _square_folded_kernel(kernel, u, v):
    """K <- max((u K v)^2, e^-700) in place: the kernel at half the epsilon.

    u K v is exp((f + g - C)/eps) for the potentials with u and v folded in;
    its square is the same for eps/2.
    """
    np.multiply(kernel, u[:, None], out=kernel)
    np.multiply(kernel, v[None, :], out=kernel)
    np.square(kernel, out=kernel)
    np.maximum(kernel, _KERNEL_FLOOR, out=kernel)


def _in_scaling_range(w) -> bool:
    return bool(1.0 / _SCALING_BOUND <= w.min() and w.max() <= _SCALING_BOUND)  # False on NaN


def _lse_inplace(buf, axis):
    """Log-sum-exp of `buf` along `axis`, using `buf` as scratch (it is overwritten).

    By the clamp argument of exp_shifted_inplace the result equals the
    unclamped form.
    """
    peak = exp_shifted_inplace(buf, axis)
    return np.log(buf.sum(axis=axis)) + peak
