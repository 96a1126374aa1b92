import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from samplebench import metrics
from samplebench.errors import UsageError
from samplebench.metrics import _sq_distances, ejs, emc, mmd, sinkhorn_w2, weight_criteria
from samplebench.numerics import RngStream
from samplebench.targets.mixtures import MixtureSpec, make_mog_target


def criteria(log_w, forward=False, true_log_z=None):
    """weight_criteria's five numbers by name."""
    return dict(zip(("bound", "se", "log_z", "delta", "ess"),
                    weight_criteria(log_w, forward, true_log_z)))


# ---------------------------------------------------------------- elbo / eubo
def test_elbo_perfect_fit_is_zero():
    assert criteria([0.0, 0.0, 0.0])["bound"] == 0.0


def test_elbo_arithmetic_mean():
    assert criteria([0.0, math.log(4)])["bound"] == pytest.approx(math.log(2))


def test_eubo_perfect_fit():
    assert criteria([0.0, 0.0], forward=True)["bound"] == 0.0


def test_eubo_diverges_for_half_covered_target():
    # q covers one of two separated modes; half the target draws see tiny q density
    rng = RngStream(5, 0)
    n = 400
    modes = np.where(rng.uniform(size=n) < 0.5, 0.0, 20.0)
    x = modes + rng.normal(n)
    # q = N(0,1); gamma = balanced two-mode mixture (normalized)
    log_q = -0.5 * x**2 - 0.5 * math.log(2 * math.pi)
    log_gamma = np.logaddexp(-0.5 * x**2, -0.5 * (x - 20.0) ** 2) + math.log(0.5) - 0.5 * math.log(2 * math.pi)
    assert criteria(log_gamma - log_q, forward=True)["bound"] >= 50.0


@pytest.mark.parametrize("forward", [False, True])
def test_bound_standard_error_is_none_below_two_weights(forward):
    # one weight has no sample standard deviation; numpy's ddof=1 std warns and
    # gives NaN there, so the standard error is absent rather than computed
    one = criteria([-3.0], forward)
    assert one["bound"] == -3.0 and one["se"] is None and one["log_z"] == -3.0
    lw = np.array([0.0, 1.0, 3.0])
    assert criteria(lw, forward)["se"] == float(np.std(lw, ddof=1) / math.sqrt(3))


# ------------------------------------------------------------------- log Z
def test_log_z_constant_weights_both_directions():
    assert criteria([1.3, 1.3, 1.3])["log_z"] == pytest.approx(1.3, abs=1e-12)
    assert criteria([1.3, 1.3], forward=True)["log_z"] == pytest.approx(1.3, abs=1e-12)


def test_log_z_reverse_example():
    rev = criteria([0.0, math.log(4)], true_log_z=0.0)
    assert rev["log_z"] == pytest.approx(math.log(2.5), abs=1e-12)
    assert rev["delta"] == pytest.approx(math.log(2.5), abs=1e-12)
    assert criteria([0.0, math.log(4)])["delta"] is None  # no truth, no error


def test_log_z_forward_example():
    assert criteria([0.0, math.log(4)], forward=True)["log_z"] == pytest.approx(
        math.log(1.6), abs=1e-12)


def test_jensen_elbo_below_log_z_rev():
    rng = RngStream(6, 0)
    rev = criteria(rng.normal(100))
    assert rev["bound"] < rev["log_z"]
    const = criteria(np.full(10, 0.7))
    assert const["bound"] == pytest.approx(const["log_z"])


# ----------------------------------------------------------------------- ess
def test_ess_constant_weights_is_one():
    assert criteria([2.0, 2.0, 2.0])["ess"] == pytest.approx(1.0)
    assert criteria([2.0, 2.0], forward=True)["ess"] == pytest.approx(1.0)


def test_ess_reverse_2110():
    assert criteria(np.log([2.0, 1.0, 1.0, 1e-300]))["ess"] == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_ess_forward_14():
    assert criteria(np.log([1.0, 4.0]), forward=True)["ess"] == pytest.approx(0.64, rel=1e-12)


def test_ess_in_unit_interval():
    rng = RngStream(7, 0)
    for forward in (False, True):
        for _ in range(20):
            val = criteria(3.0 * rng.normal(50), forward)["ess"]
            assert 0.0 < val <= 1.0 + 1e-12


# ----------------------------------------------------------------------- emc
def test_emc_single_mode_is_zero():
    cells = np.full(10, 2)
    assert emc(cells, 4) == 0.0
    assert math.copysign(1.0, emc(cells, 4)) == 1.0  # mode collapse prints as 0.0, not -0.0


def test_emc_uniform_coverage_is_one():
    assert emc(np.arange(20) % 4, 4) == pytest.approx(1.0)


def test_emc_two_of_four_modes():
    assert emc(np.arange(20) % 2, 4) == pytest.approx(0.5)  # log_4(2)


def test_emc_aggregate_row_order_invariant():
    rng = RngStream(8, 0)
    cells = rng.integers(5, size=30)
    perm = np.argsort(rng.uniform(size=30))
    assert emc(cells, 5) == emc(cells[perm], 5)


# ----------------------------------------------------------------------- ejs
def test_ejs_matching_rows_zero():
    # every sample in the one mode that holds all of the truth's mass
    assert ejs(np.full(6, 1), np.array([0.0, 1.0, 0.0])) == 0.0


def test_ejs_disjoint_support_is_one():
    assert ejs(np.zeros(5, dtype=int), np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_ejs_onehot_vs_uniform_oracle():
    # direct summation: JS((1,0) || (1/2,1/2)) in bits
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    m = 0.5 * (p + q)
    kl_pm = sum(pi * math.log2(pi / mi) for pi, mi in zip(p, m) if pi > 0)
    kl_qm = sum(qi * math.log2(qi / mi) for qi, mi in zip(q, m) if qi > 0)
    expected = 0.5 * kl_pm + 0.5 * kl_qm
    assert ejs(np.array([0]), q) == pytest.approx(expected, rel=1e-12)


def test_ejs_tells_two_histograms_apart_under_a_uniform_truth():
    # every one-hot cell is equally far from a uniform truth, so a per-sample
    # mean would read the same for both; the histogram is what differs
    q = np.full(4, 0.25)
    spread = np.arange(40) % 4
    collapsed = np.zeros(40, dtype=int)
    assert ejs(spread, q) == 0.0
    assert ejs(collapsed, q) > 0.5
    assert ejs(np.arange(40) % 2, q) not in (ejs(spread, q), ejs(collapsed, q))


def test_ejs_reads_exact_draws_lower_than_collapse_onto_the_heavy_mode():
    q = np.array([0.9, 0.1])
    exact = (RngStream(9, 0).uniform(size=5000) < q[1]).astype(int)
    collapsed = np.zeros(5000, dtype=int)
    assert ejs(exact, q) < 1e-3 < ejs(collapsed, q)


# ---------------------------------------------------------------- mode cells
def _row_emc(rows):
    """EMC of (n, M) mode-probability rows: the base-M entropy of their mean."""
    q = rows.mean(axis=0)
    nz = q > 0
    return float(-(q[nz] * np.log(q[nz])).sum() / np.log(rows.shape[1])) + 0.0


def _row_ejs(rows, true_probs):
    """EJS of (n, M) mode-probability rows: the JS divergence of their mean from the
    truth, in bits."""
    return float(metrics._js_rows(rows.mean(axis=0)[None, :], true_probs)[0] / np.log(2.0))


def _cells_and_truths(n, n_modes, seed):
    # cells drawn from half the modes, so some stay empty; a truth with zero entries
    rng = RngStream(40, seed)
    used = rng.integers(n_modes, size=max(1, n_modes // 2))
    cells = used[rng.integers(len(used), size=n)]
    raw = rng.uniform(size=n_modes)
    raw[rng.uniform(size=n_modes) < 0.3] = 0.0
    raw[0] = max(raw[0], 0.5)
    return cells, (np.full(n_modes, 1.0 / n_modes), raw / raw.sum())


@pytest.mark.parametrize("n, n_modes", [(2, 2), (3, 80), (5, 2), (50, 7), (777, 40),
                                        (2000, 40), (5000, 2), (5000, 80)])
def test_cell_criteria_bitwise_equal_row_forms_on_one_hot_rows(n, n_modes):
    cells, truths = _cells_and_truths(n, n_modes, 7 * n + n_modes)
    rows = np.eye(n_modes)[cells]
    assert len(np.unique(cells)) < n_modes
    _assert_same_bits(emc(cells, n_modes), _row_emc(rows))
    for q in truths:
        _assert_same_bits(ejs(cells, q), _row_ejs(rows, q))


def _assert_same_bits(a, b):
    assert np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("cells, n_modes", [
    (np.array([0, 4]), 4),  # a cell past the last mode
    (np.array([-1, 0]), 4),
    (np.array([0.0, 1.0]), 4),  # not integers
    (np.array([[0, 1]]), 4),  # not (n,)
    (np.array([0, 0]), 1),  # one mode
])
def test_cell_criteria_invalid_cells(cells, n_modes):
    with pytest.raises(UsageError):
        emc(cells, n_modes)
    with pytest.raises(UsageError):
        ejs(cells, np.full(n_modes, 1.0 / n_modes))


def test_ejs_rejects_a_truth_that_is_not_a_vector():
    with pytest.raises(UsageError):
        ejs(np.array([0, 1]), np.full((2, 2), 0.25))


# ------------------------------------------------------------ distance matrix
@pytest.mark.parametrize("dim", [1, 2, 10, 50])
@pytest.mark.parametrize("n, m", [(1, 1), (1, 40), (40, 1), (64, 64), (65, 30), (150, 70)])
def test_sq_distances_bitwise_equals_cdist(dim, n, m):
    # row counts on, below and off the block size, with n != m, into a contiguous
    # buffer and into the pooled blocks' [xx | xy] buffer and padded yy view
    rng = RngStream(30, dim)
    x = 3.0 * rng.normal((n, dim))
    y = 3.0 * rng.normal((m, dim)) + 1.0
    _assert_bitwise(_sq_distances(x, y, np.empty((n, m))), cdist(x, y, "sqeuclidean"))
    pooled = np.concatenate([x, y])
    expected = cdist(pooled, pooled, "sqeuclidean")
    top, yy = metrics._pooled_blocks(x, y)
    _assert_bitwise(top, expected[:n])
    _assert_bitwise(yy, expected[n:, n:])


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _upper(d2):
    return d2[np.triu_indices(len(d2), k=1)]


def _pooled_median(x, y):
    """(the selected median of the pooled distance blocks, np.median of the
    pooled cdist matrix's strict upper triangle)."""
    top, yy = metrics._pooled_blocks(x, y)
    n = len(x)
    pooled = np.concatenate([x, y])
    expected = np.median(_upper(cdist(pooled, pooled, "sqeuclidean")))
    return metrics._median_sq_distance(top[:, :n], top[:, n:], yy), expected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 64, 65, 300, 301])
def test_median_upper_bitwise_equals_np_median(n):
    # n(n-1)/2 pooled pairs: odd and even counts, on continuous values and on
    # points of an integer lattice, whose distances tie
    rng = RngStream(31, n)
    for pts in (rng.normal((n, 3)), rng.integers(3, size=(n, 2)).astype(float)):
        got, expected = _pooled_median(pts[:n // 2], pts[n // 2:])
        assert np.float64(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [4, 5])
def test_median_upper_nan_entry_gives_nan(n):
    # a NaN in either cloud's triangle or in the cross block
    pts = RngStream(32, n).normal((n, 2))
    x, y = pts[:2], pts[2:]
    for block in range(3):
        top, yy = metrics._pooled_blocks(x, y)
        xx, xy = top[:, :2], top[:, 2:]
        d2 = (xx, xy, yy)[block]
        d2[0, 1] = d2[1, 0] = np.nan
        assert math.isnan(metrics._median_sq_distance(xx, xy, yy))
    assert math.isnan(_pooled_median(np.array([[np.nan, 0.0], [1.0, 2.0]]), pts)[0])


def test_median_selection_falls_back_to_every_entry_when_the_bracket_misses(monkeypatch):
    # the entries the strided sample reads are set to 0, below every other one,
    # so the bracket lies under both middle ranks and the band must widen
    target = make_mog_target(2, seed=0)
    x = target.exact_sampler(RngStream(34, 0), 90)
    y = target.exact_sampler(RngStream(34, 1), 70)
    top, yy = metrics._pooled_blocks(x, y)
    blocks = [top[:, :90], top[:, 90:], yy]
    strides, bands = [], []
    sample = metrics._strided_sample
    monkeypatch.setattr(metrics, "_strided_sample",
                        lambda d2, stride, upper: strides.append(stride) or sample(d2, stride, upper))
    metrics._median_sq_distance(*blocks)
    for d2, upper in zip(blocks, (True, False, True)):
        index = np.arange(d2.size, dtype=float).reshape(d2.shape)
        rows, cols = np.divmod(sample(index, strides[0], upper).astype(int), d2.shape[1])
        d2[rows, cols] = 0.0
        if upper:
            d2[cols, rows] = 0.0
    band = metrics._band
    monkeypatch.setattr(metrics, "_band",
                        lambda blocks, lo, hi: bands.append((lo, hi)) or band(blocks, lo, hi))
    got = metrics._median_sq_distance(*blocks)
    assert bands[-1] == (-np.inf, np.inf) and len(bands) == 2
    values = np.concatenate([_upper(blocks[0]), blocks[1].ravel(), _upper(blocks[2])])
    assert np.float64(got).tobytes() == np.median(values).tobytes()


def _cdist_mmd(x, y):
    """mmd as the pooled form computed it: scipy's cdist of the pooled sample,
    np.median of its strict upper triangle, and the kernel sums over the pooled
    matrix's blocks."""
    x, y = metrics._canonical(x, y, 2)
    n, m = len(x), len(y)
    pooled = np.concatenate([x, y])
    d2 = cdist(pooled, pooled, "sqeuclidean")
    alpha = float(np.median(_upper(d2)))
    kernel = np.exp(np.negative(d2) / alpha)
    np.fill_diagonal(kernel, 0.0)
    sq = (kernel[:n, :n].sum() / (n * (n - 1)) + kernel[n:, n:].sum() / (m * (m - 1))
          - 2.0 * kernel[:n, n:].sum() / (n * m))
    return float(np.sqrt(max(float(sq), 0.0)))


@pytest.mark.parametrize("dim", [2, 50])
def test_mmd_bitwise_equals_cdist_form_on_bench_shaped_clouds(dim):
    # 37 points put a pooled block of rows across the two clouds; 128 do not
    target = make_mog_target(dim, seed=0)
    for k in (37, 128):
        x = target.exact_sampler(RngStream(33, 0), k)
        y = target.exact_sampler(RngStream(33, 1), k) + 0.5 * RngStream(33, 2).normal((k, dim))
        assert mmd(x, y) == _cdist_mmd(x, y)


@pytest.mark.parametrize("k", [256, 512])
def test_ipm_pair_holds_three_distance_blocks(k):
    # xx, xy and yy are 3k^2 floats; the pooled matrix and a copy of its upper
    # triangle were 6k^2
    target = make_mog_target(2, seed=0)
    x = target.exact_sampler(RngStream(35, 0), k)
    y = target.exact_sampler(RngStream(35, 1), k) + 0.5 * RngStream(35, 2).normal((k, 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        metrics._ipm_pair(x, y, 300)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * k * k * 8


# ----------------------------------------------------------------------- mmd
def test_mmd_identical_samples_is_zero():
    x = RngStream(9, 0).normal((20, 3))
    assert mmd(x, x.copy()) == 0.0


def test_mmd_far_clusters_approach_sqrt2():
    rng = RngStream(10, 0)
    x = 1e-8 * rng.normal((40, 2))
    y = np.array([100.0, 0.0]) + 1e-8 * rng.normal((40, 2))
    # explicit bandwidth between cluster spread and separation
    assert mmd(x, y, bandwidth=1.0) == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_mmd_permutation_invariance():
    rng = RngStream(11, 0)
    x = rng.normal((25, 2))
    y = rng.normal((30, 2)) + 0.5
    base = mmd(x, y)
    perm_x = x[np.argsort(rng.uniform(size=len(x)))]
    perm_y = y[np.argsort(rng.uniform(size=len(y)))]
    assert mmd(perm_x, perm_y) == base


def test_mmd_squared_matches_triple_sum_oracle():
    # mmd is the root of the unbiased estimate clamped at 0; the first case's is negative
    rng = RngStream(12, 0)
    signs = []
    for n, m in [(10, 10), (23, 17), (50, 50)]:
        x = rng.normal((n, 3))
        y = rng.normal((m, 3)) + 0.3
        pooled = np.concatenate([x, y])
        d2 = cdist(pooled, pooled, "sqeuclidean")
        alpha = np.median(d2[np.triu_indices(len(d2), k=1)])
        fast = mmd(x, y)
        a = sum(
            math.exp(-np.sum((x[i] - x[j]) ** 2) / alpha)
            for i in range(n)
            for j in range(n)
            if i != j
        ) / (n * (n - 1))
        b = sum(
            math.exp(-np.sum((y[i] - y[j]) ** 2) / alpha)
            for i in range(m)
            for j in range(m)
            if i != j
        ) / (m * (m - 1))
        c = sum(
            math.exp(-np.sum((x[i] - y[j]) ** 2) / alpha) for i in range(n) for j in range(m)
        ) * (2.0 / (n * m))
        oracle = a + b - c
        signs.append(oracle > 0)
        if oracle > 0:
            assert fast**2 == pytest.approx(oracle, abs=1e-12)
        else:
            assert fast == 0.0
    assert signs == [False, True, True]


def test_mmd_too_few_points():
    with pytest.raises(UsageError):
        mmd(np.zeros((1, 2)), np.zeros((5, 2)))


@pytest.mark.parametrize("criterion", [mmd, sinkhorn_w2])
def test_ipm_clouds_of_different_dimension_raise(criterion):
    rng = RngStream(23, 0)
    with pytest.raises(UsageError):
        criterion(rng.normal((5, 2)), rng.normal((5, 3)))


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
def test_ipm_criteria_reject_points_they_cannot_measure(bad, side):
    # an inf coordinate, or one whose square overflows, makes a squared distance, and
    # so Sinkhorn's epsilon, inf; a NaN one makes mmd NaN
    clouds = [RngStream(42, 0).normal((20, 3)), RngStream(42, 1).normal((15, 3))]
    clouds[side][3, 1] = bad
    criteria = (mmd, lambda x, y: mmd(x, y, bandwidth=1.0), sinkhorn_w2,
                lambda x, y: metrics._ipm_pair(x, y, 50))
    for criterion in criteria:
        with pytest.raises(UsageError, match="must be finite"):
            criterion(*clouds)


@pytest.mark.parametrize("dim", [1, 50])
def test_ipm_criteria_measure_points_at_the_coordinate_bound(dim):
    # two points at opposite corners of the bound are 4 * 1e300 apart squared,
    # and every distance stays finite
    bound = metrics._COORD_BOUND / math.sqrt(dim)
    x = RngStream(43, 0).normal((20, dim))
    y = RngStream(43, 1).normal((15, dim))
    x[0], y[0] = bound, -bound
    assert math.isfinite(mmd(x, y))
    assert math.isfinite(mmd(x, y, bandwidth=1.0))
    top, _ = metrics._pooled_blocks(*metrics._canonical(x, y, 2))
    assert top.max() == pytest.approx(4e300, rel=1e-12)


def test_sinkhorn_rejects_a_cost_that_is_not_finite():
    cost = np.ones((3, 4))
    cost[1, 2] = np.inf
    with pytest.raises(UsageError, match="finite squared distances"):
        metrics._sinkhorn(cost, 10)


# ------------------------------------------------------------------- sinkhorn
def test_sinkhorn_identical_point():
    val, converged = sinkhorn_w2(np.zeros((1, 1)), np.zeros((1, 1)))
    assert val == 0.0
    assert converged
    # clouds of one point repeated: an all-zero cost is solved without iterating
    assert sinkhorn_w2(np.ones((3, 2)), np.ones((5, 2)), max_iters=0) == (0.0, True)


def test_sinkhorn_single_pair_distance():
    val, _ = sinkhorn_w2(np.array([[0.0]]), np.array([[3.0]]))
    assert val == pytest.approx(3.0, abs=1e-3)


def _entropic_w2_sq_bounds(x, y):
    """[OT0 - tol * max C, OT0 + eps * log n + tol * max C], the range of the
    entropic W2^2 of two clouds of n points each, with OT0 their exact OT cost.

    OT0 is the mean cost of an optimal assignment.  The entropic plan P minimizes
    <P, C> - eps * H(P) over the couplings, so <P, C> <= OT0 + eps * (H(P) - H(P0))
    for the assignment's plan P0, with H(P0) = log n and H(P) <= H(a) + H(b) = 2 log n;
    as a coupling, P costs at least OT0.  The solver's plan meets its row marginals
    only to _TOL in L1, and moving that much mass moves its cost by at most
    _TOL * max C.
    """
    cost = cdist(x, y, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    ot0 = cost[rows, cols].mean()
    eps = metrics._EPSILON_FRACTION * cost.mean()
    slack = metrics._TOL * cost.max()
    return ot0 - slack, ot0 + eps * math.log(len(x)) + slack


def test_sinkhorn_scalar_samples_as_one_column():
    # four scalar samples against the same shifted by 10: exact W2 is the shift,
    # and the entropic one reads about 10.07
    x, y = np.arange(4.0)[:, None], np.arange(10.0, 14.0)[:, None]
    val, converged = sinkhorn_w2(x, y)
    low, high = _entropic_w2_sq_bounds(x, y)
    assert low <= val ** 2 <= high
    assert converged


def _bench_shaped(dim):
    # 256 exact MoG draws against 256 perturbed draws
    target = make_mog_target(dim, seed=0)
    x = target.exact_sampler(RngStream(15, 0), 256)
    y = target.exact_sampler(RngStream(15, 1), 256) + 0.5 * RngStream(15, 2).normal((256, dim))
    return x, y


def _exact_pair(dim):
    # two independent sets of 256 exact MoG draws
    target = make_mog_target(dim, seed=0)
    return target.exact_sampler(RngStream(36, 0), 256), target.exact_sampler(RngStream(36, 1), 256)


@pytest.mark.parametrize("dim", [2, 50])
@pytest.mark.parametrize("clouds", [_exact_pair, _bench_shaped], ids=["exact", "bench-shaped"])
def test_sinkhorn_w2_lies_within_its_entropic_bounds_of_exact_ot(clouds, dim):
    x, y = clouds(dim)
    val, converged = sinkhorn_w2(x, y, max_iters=300)
    low, high = _entropic_w2_sq_bounds(x, y)
    assert converged
    assert low <= val ** 2 <= high


def test_sinkhorn_swap_symmetry_bit_identical():
    rng = RngStream(13, 0)
    x = rng.normal((12, 2))
    y = rng.normal((9, 2)) + 1.0
    vx, _ = sinkhorn_w2(x, y, max_iters=500)
    vy, _ = sinkhorn_w2(y, x, max_iters=500)
    assert vx == vy  # bitwise


def test_sinkhorn_monotone_as_clouds_merge():
    rng = RngStream(14, 0)
    x = rng.normal((30, 2))
    base_y = rng.normal((30, 2))
    vals = []
    for shift in [8.0, 6.0, 4.0, 2.0, 0.0]:
        y = base_y + np.array([shift, 0.0])
        val, _ = sinkhorn_w2(x, y, max_iters=2000)
        vals.append(val)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def _log_domain_sinkhorn_w2(x, y, max_iters=10_000):
    """Sinkhorn as plain log-domain updates of the potentials, unclamped, at the
    solver's epsilon and tolerance: the row-marginal error is checked before each
    f-update and once more after the last iteration."""
    x, y = metrics._canonical(x, y, 1)
    cost = cdist(x, y, "sqeuclidean")
    n, m = cost.shape
    eps = metrics._EPSILON_FRACTION * cost.mean()
    f, g = np.zeros(n), np.zeros(m)

    def log_plan():
        return (f[:, None] + g[None, :] - cost) / eps

    def row_error():
        return np.abs(np.exp(logsumexp(log_plan(), axis=1)) - 1.0 / n).sum()

    for _ in range(max_iters):
        if row_error() < metrics._TOL:
            break
        f = -eps * (math.log(n) + logsumexp((g[None, :] - cost) / eps, axis=1))
        g = -eps * (math.log(m) + logsumexp((f[:, None] - cost) / eps, axis=0))
    return math.sqrt((np.exp(log_plan()) * cost).sum()), bool(row_error() < metrics._TOL)


# the scaling iterates are the log-domain ones up to rounding (and to the clamp
# of K at e^-700, which changes no sum here), so the two agree far inside this
_REFERENCE_REL = 1e-9


@pytest.mark.parametrize("dim", [2, 50])
def test_sinkhorn_matches_reference_on_bench_shaped_clouds(dim):
    x, y = _bench_shaped(dim)
    val, converged = sinkhorn_w2(x, y, max_iters=300)
    ref_val, ref_converged = _log_domain_sinkhorn_w2(x, y, max_iters=300)
    assert val == pytest.approx(ref_val, rel=_REFERENCE_REL)
    assert converged and ref_converged


@pytest.mark.parametrize("max_iters, expected", [(57, False), (58, True), (10_000, True)])
def test_sinkhorn_matches_reference_when_converging_early(max_iters, expected):
    # the check first passes after the last iteration of a 58-iteration budget;
    # 10_000 exits early
    rng = RngStream(16, 0)
    x = rng.normal((20, 2))
    y = rng.normal((20, 2)) + 1.0
    val, converged = sinkhorn_w2(x, y, max_iters=max_iters)
    ref_val, ref_converged = _log_domain_sinkhorn_w2(x, y, max_iters=max_iters)
    assert val == pytest.approx(ref_val, rel=_REFERENCE_REL)
    assert converged is ref_converged is expected


def _collapsed_and_exact(dim):
    # a collapsed sampler, 256 points around one of the 40 MoG means, and 256 exact draws
    mean = MixtureSpec(40, dim, "gaussian", -40.0, 40.0, 12).draw_means()[0]
    collapsed = mean + RngStream(30, 0).normal((256, dim))
    exact = make_mog_target(dim).exact_sampler(RngStream(30, 1), 256)
    return collapsed, exact


def _uneven_exact(dim):
    target = make_mog_target(dim)
    return target.exact_sampler(RngStream(31, 0), 200), target.exact_sampler(RngStream(31, 1), 90)


@pytest.mark.parametrize("dim", [2, 50])
@pytest.mark.parametrize("clouds", [_collapsed_and_exact, _uneven_exact],
                         ids=["collapsed", "uneven"])
def test_sinkhorn_matches_reference_on_collapsed_and_uneven_clouds(clouds, dim):
    x, y = clouds(dim)
    val, converged = sinkhorn_w2(x, y, max_iters=300)
    ref_val, ref_converged = _log_domain_sinkhorn_w2(x, y, max_iters=300)
    assert val == pytest.approx(ref_val, rel=_REFERENCE_REL)
    assert converged and ref_converged


def test_sinkhorn_restabilised_steps_match_reference(monkeypatch):
    # a scaling range of [1/1.2, 1.2] folds the scalings and rebuilds the kernel
    # after the u half and after the v half of many iterations; folding leaves
    # the iterate as it is
    in_range = metrics._in_scaling_range
    rejected = Counter()

    def counting_in_range(w):
        ok = in_range(w)
        rejected[len(w)] += not ok
        return ok

    monkeypatch.setattr(metrics, "_SCALING_BOUND", 1.2)
    monkeypatch.setattr(metrics, "_in_scaling_range", counting_in_range)
    x, y = _uneven_exact(2)
    val, converged = sinkhorn_w2(x, y, max_iters=300)
    ref_val, ref_converged = _log_domain_sinkhorn_w2(x, y, max_iters=300)
    assert rejected[200] > 0 and rejected[90] > 0  # both halves of an iteration folded
    assert val == pytest.approx(ref_val, rel=_REFERENCE_REL)
    assert converged and ref_converged


def _cauchy(dim):
    # 100 and 80 points with standard Cauchy coordinates
    rng = RngStream(37, dim)
    return tuple(rng.normal((k, dim)) / rng.normal((k, dim)) for k in (100, 80))


def _one_outlier(dim):
    # 100 and 80 standard normal points, one of them moved to 1e4
    rng = RngStream(38, dim)
    x, y = rng.normal((100, dim)), rng.normal((80, dim))
    y[0] = 1e4
    return x, y


@pytest.mark.parametrize("clouds", [_cauchy, _one_outlier], ids=["cauchy", "outlier"])
def test_sinkhorn_converges_through_kernel_rebuilds_on_heavy_tails(monkeypatch, clouds):
    # a far point's row of the kernel is clamped at e^-700, its scaling leaves the
    # range, and the kernel is rebuilt.  Each plan meets its row marginals to _TOL
    # in L1 only, which moves its cost by at most _TOL * max C, so the two W2^2
    # differ by at most twice that
    builds = []
    build = metrics.exp_clamped_inplace
    monkeypatch.setattr(metrics, "exp_clamped_inplace", lambda buf: builds.append(1) or build(buf))
    x, y = clouds(2)
    val, converged = sinkhorn_w2(x, y)
    ref_val, ref_converged = _log_domain_sinkhorn_w2(x, y)
    assert len(builds) > 2  # the first kernel, at least one rebuild, and the plan
    assert converged and ref_converged
    bound = 2.0 * metrics._TOL * cdist(x, y, "sqeuclidean").max()
    assert abs(val ** 2 - ref_val ** 2) <= bound


@pytest.mark.parametrize("half_width", [1e8, 1e10])
def test_sinkhorn_w2_on_wide_clouds_is_at_most_the_largest_distance(half_width):
    # 30 and 20 points uniform on +-half_width (d=1); with an epsilon of 1e-3 on
    # costs near 4e20, W2 read 8.1e88 on +-1e8 and inf on +-1e10
    x = RngStream(39, 0).uniform(-half_width, half_width, (30, 1))
    y = RngStream(39, 1).uniform(-half_width, half_width, (20, 1))
    largest = math.sqrt(cdist(x, y, "sqeuclidean").max())
    for w2, converged in (sinkhorn_w2(x, y), metrics._ipm_pair(x, y, 300)[1:]):
        assert math.isfinite(w2) and w2 <= largest
        assert converged


@pytest.mark.parametrize("dim", [2, 50])
def test_ipm_pair_bitwise_equals_mmd_and_sinkhorn(dim):
    # one pooled distance matrix gives both criteria, the same in either argument
    # order: with the pair in one order, the cross block is never summed transposed
    x, y = _bench_shaped(dim)
    x, y = x[:128], y[:128]
    got = [metrics._ipm_pair(a, b, 300) for a, b in ((x, y), (y, x))]
    assert repr(got[0]) == repr(got[1]) == repr((mmd(x, y), *sinkhorn_w2(x, y, max_iters=300)))
    assert mmd(y, x) == mmd(x, y)


def _flipping_row_swap(x, y):
    """x with its first row swapped for a later one so that the raw bytes of x
    compare with those of y the other way round."""
    first = x.tobytes() > y.tobytes()
    row = next(i for i in range(1, len(x)) if (x[i].tobytes() > y[0].tobytes()) != first)
    order = np.arange(len(x))
    order[[0, row]] = order[[row, 0]]
    assert (x[order].tobytes() > y.tobytes()) != first
    return x[order]


@pytest.mark.parametrize("dim", [2, 50])
def test_ipm_criteria_bitwise_invariant_under_row_permutations(dim):
    # a change of solve or summation order would change the last bits of W2
    x, y = _bench_shaped(dim)
    rng = RngStream(40, 0)
    shuffled = [(_flipping_row_swap(x, y), y), (x, _flipping_row_swap(y, x))]
    shuffled += [(x[np.argsort(rng.uniform(size=len(x)))], y[np.argsort(rng.uniform(size=len(y)))])
                 for _ in range(3)]
    w2 = sinkhorn_w2(x, y, max_iters=300)
    pair = metrics._ipm_pair(x, y, 300)
    for a, b in shuffled:
        assert repr(sinkhorn_w2(a, b, max_iters=300)) == repr(w2)  # equal bits
        assert repr(metrics._ipm_pair(a, b, 300)) == repr(pair)


def test_ipm_criteria_read_negative_zero_as_zero():
    # clouds whose first coordinates are all zero: a -0.0 there would flip which
    # cloud comes first in byte order, and the last bits of W2 with it
    x, y = _bench_shaped(2)
    zero_x, neg_x, zero_y, neg_y = x.copy(), x.copy(), y.copy(), y.copy()
    zero_x[:, 0] = zero_y[:, 0] = 0.0
    neg_x[:, 0] = neg_y[:, 0] = -0.0
    pair = repr(metrics._ipm_pair(zero_x, zero_y, 300))
    assert repr(metrics._ipm_pair(neg_x, zero_y, 300)) == pair
    assert repr(metrics._ipm_pair(zero_x, neg_y, 300)) == pair
