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
from .numerics.logspace import ess_fraction, exp_clamped_inplace, log_mean_exp, log_sum_exp

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
    """Jensen-Shannon divergence (base 2) of the samples' mode histogram, from
    their mode cells `cells`, from the truth `true_probs`.

    It reads 0 when the samples put each mode's true share in it and 1 when
    they miss the truth's support, so it shows mode collapse under any truth.
    """
    q = np.asarray(true_probs, dtype=float)
    if q.ndim != 1:
        raise UsageError("true_probs must be one probability vector over the modes")
    c = _validate_cells(cells, len(q))
    hist = np.bincount(c, minlength=len(q)) / len(c)
    return float(_js_rows(hist[None, :], q)[0] / np.log(2.0))


# ------------------------------------------------- integral probability metrics
_DIST_BLOCK = 64  # rows per block of the distance fill and of the median's band reads
# Sinkhorn's regularization as a share of the mean cost, and its tolerance on
# the L1 error of the row marginals, whose total mass is 1
_EPSILON_FRACTION = 0.05
_TOL = 1e-3
# a scaling beyond [1/tau, tau] is folded into the potentials and the kernel rebuilt
_SCALING_BOUND = 1e50
# the largest coordinate magnitude times sqrt(d) that MMD and W2 accept: every
# squared distance then stays finite, at most 4e300
_COORD_BOUND = 1e150


def _sq_distances(rows, cols, out):
    """out[i, j] = |rows[i] - cols[j]|^2 with the bits of scipy's cdist; returns `out`.

    The sum runs over the coordinates in order, scipy's summation order, one
    pass per coordinate over _DIST_BLOCK rows at a time.
    """
    cols_t = np.ascontiguousarray(cols.T)
    diff = np.empty((min(len(rows), _DIST_BLOCK), len(cols)))
    for start in range(0, len(rows), _DIST_BLOCK):
        block = out[start:start + _DIST_BLOCK]
        scratch = diff[:len(block)]
        block.fill(0.0)
        for k, col in enumerate(cols_t):
            np.subtract(rows[start:start + _DIST_BLOCK, k, None], col, out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            np.add(block, scratch, out=block)
    return out


def _pooled_blocks(x, y):
    """The pooled sample's squared distances in three blocks, with the bits of scipy's cdist.

    Returns (top, yy): top = [xx | xy], the pooled matrix's n rows of x, and yy,
    an (m, m) view of an (m, m + 1) buffer.  Each block is a non-contiguous
    view, which numpy sums row by row, as it sums the pooled matrix's blocks
    (a contiguous block is summed in another order).
    """
    n, m = len(x), len(y)
    top = _sq_distances(x, np.concatenate([x, y]), np.empty((n, n + m)))
    return top, _sq_distances(y, y, np.empty((m, m + 1))[:, :m])


def _median_sq_distance(xx, xy, yy) -> float:
    """np.median of the pooled sample's pairwise squared distances, bit for bit:
    of the strict upper triangles of xx and yy and all of xy, read in place.

    The two middle order statistics are selected exactly.  A fixed strided
    sample of the entries gives a bracket around their ranks; the entries below
    the bracket are counted and those inside it gathered and partitioned.  When
    the bracket misses a middle rank, the band widens to every entry.  A NaN
    entry lies inside any band and makes the median NaN, as in np.median;
    computing it here keeps np.median's NaN check (and the numpy.ma import it
    costs) out of the run.
    """
    n, m = xy.shape
    blocks = ((xx, True), (xy, False), (yy, True))
    total = n * (n - 1) // 2 + n * m + m * (m - 1) // 2
    half = total // 2  # the upper middle rank; the lower one is half - 1 when total is even
    low = (total - 1) // 2
    for lo, hi in (_bracket(blocks, total, low, half), (-np.inf, np.inf)):
        below, band = _band(blocks, lo, hi)
        if np.isnan(band).any():
            return float("nan")
        if below <= low and half < below + len(band):
            break
    band.partition(half - below)
    upper = band[half - below]
    if total % 2:
        return float(upper)
    return float((band[:half - below].max() + upper) / 2.0)


def _bracket(blocks, total, low, high):
    """Bounds around the entries of ranks low to high: the order statistics of a
    sample of about total^(2/3) entries four binomial standard deviations
    outside those ranks, or -inf and inf past the sample's ends.

    The sample is every stride-th entry of each block in row-major order; a
    stride prime to the row lengths moves the sampled columns from row to row.
    """
    n, m = blocks[1][0].shape  # the xy block's; xx's rows hold n entries, yy's m
    stride = max(1, round(total ** (1 / 3)))
    while math.gcd(stride, n * m) > 1:
        stride += 1
    sample = np.concatenate([_strided_sample(d2, stride, upper) for d2, upper in blocks])
    size = len(sample)
    margin = 2.0 * math.sqrt(size)
    i = math.floor(low * size / total - margin)
    j = math.ceil(high * size / total + margin)
    kth = [r for r in (i, j) if 0 <= r < size]
    if kth:
        sample.partition(kth)
    return (sample[i] if i >= 0 else -np.inf), (sample[j] if j < size else np.inf)


def _strided_sample(d2, stride, upper):
    """Every stride-th entry of d2 in row-major order; only those above the
    diagonal when `upper`."""
    rows, cols = np.divmod(np.arange(0, d2.size, stride), d2.shape[1])
    if upper:
        keep = rows < cols
        rows, cols = rows[keep], cols[keep]
    return d2[rows, cols]


def _band(blocks, lo, hi):
    """(the number of entries below lo, the entries neither below lo nor above hi)
    over the strict upper triangle of a block marked `upper` and all of another.

    The blocks are read _DIST_BLOCK rows at a time, so that the masks stay small.
    """
    below, band = 0, []
    for d2, upper in blocks:
        for start in range(0, len(d2), _DIST_BLOCK):
            stop = min(start + _DIST_BLOCK, len(d2))
            # the strict upper triangle of these rows lies right of the diagonal
            rows = d2[start:stop, start:] if upper else d2[start:stop]
            keep = ~np.tri(*rows.shape, dtype=bool) if upper else True
            under = np.less(rows, lo)
            under &= keep
            below += np.count_nonzero(under)
            inside = np.greater(rows, hi)
            inside |= under
            np.logical_not(inside, out=inside)
            inside &= keep
            band.append(rows[inside])
    return below, np.concatenate(band)


def _canonical(x, y, min_points):
    """The clouds as point sets: rows sorted lexicographically (+ 0.0 ties -0.0 with 0.0),
    the pair in byte order; UsageError unless each has `min_points` (n, d) points
    whose coordinates are finite and at most _COORD_BOUND / sqrt(d) in magnitude."""
    x, y = _clouds(x, y)
    if len(x) < min_points or len(y) < min_points:
        raise UsageError(f"need at least {min_points} point(s) in each sample")
    bound = _COORD_BOUND / math.sqrt(max(x.shape[1], 1))
    peak = np.maximum(np.abs(x).max(initial=0.0), np.abs(y).max(initial=0.0))
    if not peak <= bound:  # also on NaN
        raise UsageError(f"point coordinates must be finite and at most {bound:.3g} in "
                         f"magnitude, got {peak}")
    x, y = (c[np.lexsort(c.T[::-1])] + 0.0 for c in (x, y))
    return (y, x) if (x.shape, x.tobytes()) > (y.shape, y.tobytes()) else (x, y)


def _bandwidth(top, yy, bandwidth) -> float:
    """`bandwidth`, or by default the median heuristic on the pooled sample."""
    n = len(top)
    alpha = (_median_sq_distance(top[:, :n], top[:, n:], yy) if bandwidth is None
             else float(bandwidth))
    if alpha <= 0:
        raise UsageError("mmd bandwidth must be positive")
    return alpha


def _kernel(d2, alpha):
    """The squared-exponential kernel exp(-d2 / alpha), built in `d2`; returns it."""
    np.negative(d2, out=d2)
    np.divide(d2, alpha, out=d2)
    return np.exp(d2, out=d2)


def _off_diagonal_mean(kernel):
    """The mean of a within-cloud kernel block over pairs of distinct points."""
    np.fill_diagonal(kernel, 0.0)
    return kernel.sum() / (len(kernel) * (len(kernel) - 1))


def _mmd_squared_blocks(top, alpha, term_y) -> float:
    """MMD^2 from the x rows' blocks top = [xx | xy], whose kernel is built in
    place, and the yy block's kernel mean `term_y`."""
    n = len(top)
    _kernel(top, alpha)
    term_x = _off_diagonal_mean(top[:, :n])
    return float(term_x + term_y - 2.0 * top[:, n:].sum() / (n * (top.shape[1] - n)))


def _root(sq) -> float:
    return float(np.sqrt(max(sq, 0.0)))


def mmd(x, y, bandwidth: Optional[float] = None) -> float:
    """Square root of the unbiased MMD^2 estimate with a squared-exponential kernel,
    clamped at 0 before the root (the estimate may be negative).

    The bandwidth defaults to the median heuristic on the pooled sample.
    """
    x, y = _canonical(x, y, 2)
    top, yy = _pooled_blocks(x, y)
    alpha = _bandwidth(top, yy, bandwidth)
    return _root(_mmd_squared_blocks(top, alpha, _off_diagonal_mean(_kernel(yy, alpha))))


def _ipm_pair(x, y, max_iters: int):
    """(mmd(x, y), *sinkhorn_w2(x, y, max_iters=max_iters)) from the pooled sample's
    three distance blocks.

    The three blocks come from _pooled_blocks, and Sinkhorn's cost is the xy
    block, the matrix sinkhorn_w2 fills, bit for bit.  Sinkhorn runs once the
    yy block has given its kernel mean and gone, so its own kernel matrix joins
    two blocks, not three.
    """
    x, y = _canonical(x, y, 2)
    top, yy = _pooled_blocks(x, y)
    alpha = _bandwidth(top, yy, None)
    term_y = _off_diagonal_mean(_kernel(yy, alpha))
    del yy
    w2, converged = _sinkhorn(top[:, len(x):], max_iters)
    return _root(_mmd_squared_blocks(top, alpha, term_y)), w2, converged


def sinkhorn_w2(x, y, max_iters: int = 10_000):
    """Entropy-regularized 2-Wasserstein distance via stabilised scaling Sinkhorn.

    Uniform marginals a = 1/n, b = 1/m and cost C = |x-y|^2; returns
    (sqrt(transport cost of the entropic plan), converged).  The
    regularization is eps = _EPSILON_FRACTION times the mean cost, so W2
    carries an entropic bias of that size whatever the clouds' scale.  The
    updates alternate (g uses the new f) on the clouds in canonical order, so
    any order of the rows or of the arguments gives the same bits.

    The iterate is held in scaling form (Schmitzer 2019): potentials (f, g)
    absorbed into a kernel K = exp(max((f + g - C)/eps, -700)) and scalings
    (u, v) on top, so the dual potentials are f + eps*log(u) and g + eps*log(v).
    An iteration is two matrix-vector products, u = a/(K v) and v = b/(K^T u).
    A scaling that leaves [1/tau, tau] is folded into (f, g) and K rebuilt.
    K's entries are the plan's at the last fold, so at most 1; a row or
    column of clamped entries sends its scaling out of range at once, and it
    is folded before it can overflow.

    Convergence is the L1 error of the row marginals, |u*(K v) - a| < _TOL,
    read off the next u-update: after a v-update the column marginals are
    exact up to rounding.  A converged exit returns the checked iterate.
    """
    x, y = _canonical(x, y, 1)
    return _sinkhorn(_sq_distances(x, y, np.empty((len(x), len(y)))), max_iters)


def _sinkhorn(cost, max_iters):
    """sinkhorn_w2 on the cost matrix of its clouds in canonical order."""
    n, m = cost.shape
    a, b = 1.0 / n, 1.0 / m
    span = float(cost.max())
    if not math.isfinite(span):
        raise UsageError(f"W2 needs finite squared distances, got a largest one of {span}")
    if span == 0.0:
        return 0.0, True
    kernel = np.empty(cost.shape)  # K, and at the end the plan
    # the mean cost, summed as cost / span: a sum of costs near 4e300 would overflow
    eps = _EPSILON_FRACTION * span * float(np.divide(cost, span, out=kernel).mean())
    f, g = np.zeros(n), np.zeros(m)
    u, v = np.ones(n), np.ones(m)
    kv, ku, resid = np.empty(n), np.empty(m), np.empty(n)

    def rebuild():
        # folds the scalings into (f, g), which leaves the iterate as it is, and
        # builds K = exp((f + g - C)/eps), clamped
        f[:] += eps * np.log(u)
        g[:] += eps * np.log(v)
        u.fill(1.0)
        v.fill(1.0)
        np.add(f[:, None], g[None, :], out=kernel)
        np.subtract(kernel, cost, out=kernel)
        np.divide(kernel, eps, out=kernel)
        exp_clamped_inplace(kernel)

    def row_error():
        np.matmul(kernel, v, out=kv)
        np.multiply(u, kv, out=resid)
        np.subtract(resid, a, out=resid)
        np.abs(resid, out=resid)
        return resid.sum()

    rebuild()
    for _ in range(max_iters):
        if row_error() < _TOL:
            converged = True
            break
        np.divide(a, kv, out=u)
        if not _in_scaling_range(u):
            rebuild()
        np.divide(b, np.matmul(u, kernel, out=ku), out=v)
        if not _in_scaling_range(v):
            rebuild()
    else:
        converged = row_error() < _TOL

    # the plan, built in the kernel's buffer: its mass is about 1, so a clamped
    # entry (at most e^-700) is absorbed in the transport cost
    rebuild()
    np.multiply(kernel, cost, out=kernel)
    return _root(kernel.sum()), bool(converged)


def _in_scaling_range(w) -> bool:
    return bool(1.0 / _SCALING_BOUND <= w.min() and w.max() <= _SCALING_BOUND)  # False on NaN
