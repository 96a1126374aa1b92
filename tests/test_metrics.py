import math
from collections import Counter

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from samplebench import metrics
from samplebench.errors import UsageError
from samplebench.metrics import (
    FORWARD,
    REVERSE,
    WeightedSamples,
    _lse_inplace,
    _median_upper,
    _sq_distances,
    ejs,
    elbo,
    emc,
    ess_estimates,
    eubo,
    log_z_estimates,
    mmd,
    mmd_squared,
    sinkhorn_w2,
)
from samplebench.numerics import RngStream
from samplebench.numerics.logspace import exp_clamped_inplace, exp_shifted_inplace
from samplebench.targets.mixtures import MixtureSpec, make_mog_target


def rws(log_w, direction=REVERSE):
    log_w = np.asarray(log_w, dtype=float)
    return WeightedSamples(np.zeros((len(log_w), 1)), log_w, direction)


# ---------------------------------------------------------------- elbo / eubo
def test_elbo_perfect_fit_is_zero():
    assert elbo(rws([0.0, 0.0, 0.0])) == 0.0


def test_elbo_arithmetic_mean():
    assert elbo(rws([0.0, math.log(4)])) == pytest.approx(math.log(2))


def test_elbo_rejects_forward():
    with pytest.raises(UsageError):
        elbo(rws([0.0], FORWARD))


def test_eubo_perfect_fit_and_direction():
    assert eubo(rws([0.0, 0.0], FORWARD)) == 0.0
    with pytest.raises(UsageError):
        eubo(rws([0.0]))


def test_eubo_diverges_for_half_covered_target():
    # q covers one of two separated modes; half the target draws see tiny q density
    rng = RngStream(5, 0)
    n = 400
    modes = np.where(rng.uniform(size=n) < 0.5, 0.0, 20.0)
    x = modes + rng.normal(n)
    # q = N(0,1); gamma = balanced two-mode mixture (normalized)
    log_q = -0.5 * x**2 - 0.5 * math.log(2 * math.pi)
    log_gamma = np.logaddexp(-0.5 * x**2, -0.5 * (x - 20.0) ** 2) + math.log(0.5) - 0.5 * math.log(2 * math.pi)
    ws = WeightedSamples(x[:, None], log_gamma - log_q, FORWARD)
    assert eubo(ws) >= 50.0


# ------------------------------------------------------------------- log Z
def test_log_z_constant_weights_both_directions():
    est_r, _ = log_z_estimates(rws([1.3, 1.3, 1.3]))
    est_f, _ = log_z_estimates(rws([1.3, 1.3], FORWARD))
    assert est_r == pytest.approx(1.3, abs=1e-12)
    assert est_f == pytest.approx(1.3, abs=1e-12)


def test_log_z_reverse_example():
    est, delta = log_z_estimates(rws([0.0, math.log(4)]), true_log_z=0.0)
    assert est == pytest.approx(math.log(2.5), abs=1e-12)
    assert delta == pytest.approx(math.log(2.5), abs=1e-12)


def test_log_z_forward_example():
    est, _ = log_z_estimates(rws([0.0, math.log(4)], FORWARD))
    assert est == pytest.approx(math.log(1.6), abs=1e-12)


def test_jensen_elbo_below_log_z_rev():
    rng = RngStream(6, 0)
    lw = rng.normal(100)
    ws = rws(lw)
    assert elbo(ws) < log_z_estimates(ws)[0]
    const = rws(np.full(10, 0.7))
    assert elbo(const) == pytest.approx(log_z_estimates(const)[0])


# ----------------------------------------------------------------------- ess
def test_ess_constant_weights_is_one():
    assert ess_estimates(rws([2.0, 2.0, 2.0])) == pytest.approx(1.0)
    assert ess_estimates(rws([2.0, 2.0], FORWARD)) == pytest.approx(1.0)


def test_ess_reverse_2110():
    ws = rws(np.log([2.0, 1.0, 1.0, 1e-300]))
    assert ess_estimates(ws) == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_ess_forward_14():
    ws = rws(np.log([1.0, 4.0]), FORWARD)
    assert ess_estimates(ws) == pytest.approx(0.64, rel=1e-12)


def test_ess_in_unit_interval():
    rng = RngStream(7, 0)
    for direction in (REVERSE, FORWARD):
        for _ in range(20):
            ws = rws(3.0 * rng.normal(50), direction)
            val = ess_estimates(ws)
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


# ---------------------------------------------------------------- mode cells
def _row_emc(rows):
    """EMC of (n, M) mode-probability rows: the base-M entropy of their mean."""
    q = rows.mean(axis=0)
    nz = q > 0
    return float(-(q[nz] * np.log(q[nz])).sum() / np.log(rows.shape[1])) + 0.0


def _row_ejs(rows, true_probs):
    """EJS of (n, M) mode-probability rows: their mean JS divergence from the truth, in bits."""
    return float(np.mean(metrics._js_rows(rows, true_probs)) / np.log(2.0))


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
    # row counts on, below and off the block size, with n != m
    rng = RngStream(30, dim)
    x = 3.0 * rng.normal((n, dim))
    y = 3.0 * rng.normal((m, dim)) + 1.0
    _assert_bitwise(_sq_distances(x, y), cdist(x, y, "sqeuclidean"))
    _assert_bitwise(_sq_distances(x), cdist(x, x, "sqeuclidean"))


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _upper(d2):
    return d2[np.triu_indices(len(d2), k=1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 64, 65])
def test_median_upper_bitwise_equals_np_median(n):
    # n(n-1)/2 pairs: odd and even counts, on continuous and on tied values
    rng = RngStream(31, n)
    x = rng.normal((n, 3))
    tied = rng.integers(3, size=(n, 2)).astype(float)
    for pts in (x, tied):
        d2 = cdist(pts, pts, "sqeuclidean")
        expected = np.median(_upper(d2))
        assert np.float64(_median_upper(d2)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [4, 5])
def test_median_upper_nan_entry_gives_nan(n):
    pts = RngStream(32, n).normal((n, 2))
    d2 = cdist(pts, pts, "sqeuclidean")
    d2[0, n - 1] = np.nan
    assert math.isnan(_median_upper(d2))
    assert math.isnan(np.median(_upper(d2)))


def _cdist_mmd(monkeypatch, x, y):
    """mmd as it was computed before the numpy distance routine: cdist and np.median."""
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_pooled_sq_distances",
                      lambda a, b: cdist(np.concatenate([a, b]), np.concatenate([a, b]),
                                         "sqeuclidean"))
        patch.setattr(metrics, "_median_upper", lambda d2: float(np.median(_upper(d2))))
        return mmd(x, y)


@pytest.mark.parametrize("dim", [2, 50])
def test_mmd_bitwise_equals_cdist_form_on_bench_shaped_clouds(monkeypatch, dim):
    target = make_mog_target(dim, seed=0)
    x = target.exact_sampler(RngStream(33, 0), 128)
    y = target.exact_sampler(RngStream(33, 1), 128) + 0.5 * RngStream(33, 2).normal((128, dim))
    assert mmd(x, y) == _cdist_mmd(monkeypatch, x, y)


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
    rng = RngStream(12, 0)
    for n, m in [(10, 10), (23, 17), (50, 50)]:
        x = rng.normal((n, 3))
        y = rng.normal((m, 3)) + 0.3
        pooled = np.concatenate([x, y])
        d2 = cdist(pooled, pooled, "sqeuclidean")
        alpha = np.median(d2[np.triu_indices(len(d2), k=1)])
        fast = mmd_squared(x, y)
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
        assert fast == pytest.approx(a + b - c, abs=1e-12)


def test_mmd_too_few_points():
    with pytest.raises(UsageError):
        mmd(np.zeros((1, 2)), np.zeros((5, 2)))


@pytest.mark.parametrize("criterion", [mmd, mmd_squared, sinkhorn_w2])
def test_ipm_clouds_of_different_dimension_raise(criterion):
    rng = RngStream(23, 0)
    with pytest.raises(UsageError):
        criterion(rng.normal((5, 2)), rng.normal((5, 3)))


# ------------------------------------------------------------------- sinkhorn
def test_sinkhorn_identical_point():
    val, converged = sinkhorn_w2(np.zeros((1, 1)), np.zeros((1, 1)))
    assert val == 0.0
    assert converged


def test_sinkhorn_single_pair_distance():
    val, _ = sinkhorn_w2(np.array([[0.0]]), np.array([[3.0]]))
    assert val == pytest.approx(3.0, abs=1e-3)


def test_sinkhorn_scalar_samples_as_one_column():
    # four scalar samples against the same shifted by 10: W2 is the shift
    val, converged = sinkhorn_w2(np.arange(4.0)[:, None], np.arange(10.0, 14.0)[:, None])
    assert val == pytest.approx(10.0, abs=1e-6)
    assert converged


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


def _reference_sinkhorn_w2(x, y, epsilon=1e-3, max_iters=10_000, tol=1e-6):
    """The straightforward loop: fresh temporaries, unclamped exp, both marginals checked."""
    x, y = metrics._canonical(x, y, 1)
    n, m = len(x), len(y)
    cost = cdist(x, y, "sqeuclidean")
    log_a = -np.log(n)
    log_b = -np.log(m)
    f = np.zeros(n)
    g = np.zeros(m)

    span = float(cost.max()) if cost.size else 1.0
    eps_levels = []
    eps = max(span / 8.0, epsilon)
    while eps > epsilon:
        eps_levels.append(eps)
        eps /= 2.0
    eps_levels.append(epsilon)
    warmup_iters = 10

    def sweep(eps, iters, check):
        nonlocal f, g
        for _ in range(iters):
            f = eps * (log_a - _lse_rows((g[None, :] - cost) / eps))
            g = eps * (log_b - _lse_cols((f[:, None] - cost) / eps))
            if check:
                log_plan = (f[:, None] + g[None, :] - cost) / eps
                err = np.abs(np.exp(_lse_rows(log_plan)) - 1.0 / n).sum()
                err += np.abs(np.exp(_lse_cols(log_plan)) - 1.0 / m).sum()
                if err < tol:
                    return True
        return False

    budget = max_iters
    for eps in eps_levels[:-1]:
        iters = min(warmup_iters, budget)
        sweep(eps, iters, check=False)
        budget -= iters
    converged = sweep(epsilon, max(budget, 1), check=True)

    plan = np.exp((f[:, None] + g[None, :] - cost) / epsilon)
    total = float(np.sum(np.sort((plan * cost).ravel())))
    return float(np.sqrt(max(total, 0.0))), converged


def _lse_rows(mat):
    m = mat.max(axis=1, keepdims=True)
    return (np.log(np.exp(mat - m).sum(axis=1, keepdims=True)) + m)[:, 0]


def _lse_cols(mat):
    m = mat.max(axis=0, keepdims=True)
    return (np.log(np.exp(mat - m).sum(axis=0, keepdims=True)) + m)[0, :]


@pytest.mark.parametrize("dim", [2, 50])
def test_sinkhorn_matches_reference_on_bench_shaped_clouds(dim):
    # 256 exact MoG draws against 256 perturbed draws; 300 iterations do not converge
    target = make_mog_target(dim, seed=0)
    x = target.exact_sampler(RngStream(15, 0), 256)
    y = target.exact_sampler(RngStream(15, 1), 256) + 0.5 * RngStream(15, 2).normal((256, dim))
    val, converged = sinkhorn_w2(x, y, max_iters=300)
    ref_val, ref_converged = _reference_sinkhorn_w2(x, y, max_iters=300)
    assert val == pytest.approx(ref_val, rel=1e-9)
    assert converged == ref_converged
    assert not converged


@pytest.mark.parametrize("max_iters, expected", [(78, False), (79, True), (10_000, True)])
def test_sinkhorn_matches_reference_when_converging_early(max_iters, expected):
    # the check first passes on the last iteration of a 79-iteration budget; 10_000 exits early
    rng = RngStream(16, 0)
    x = rng.normal((20, 2))
    y = rng.normal((20, 2)) + 1.0
    val, converged = sinkhorn_w2(x, y, epsilon=0.5, max_iters=max_iters)
    ref_val, ref_converged = _reference_sinkhorn_w2(x, y, epsilon=0.5, max_iters=max_iters)
    assert val == pytest.approx(ref_val, rel=1e-9)
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
    ref_val, ref_converged = _reference_sinkhorn_w2(x, y, max_iters=300)
    assert val == pytest.approx(ref_val, rel=1e-9)
    assert converged == ref_converged


def test_sinkhorn_restabilised_steps_match_reference(monkeypatch):
    # a scaling range of [1/1.2, 1.2] sends many u- and v-steps back to log form,
    # among them first steps after a squared level start
    in_range = metrics._in_scaling_range
    square = metrics._square_folded_kernel
    rejected = Counter()
    events = []

    def counting_in_range(w):
        ok = in_range(w)
        rejected[len(w)] += not ok
        events.append(ok)
        return ok

    def noting_square(kernel, u, v):
        events.append("squared")
        square(kernel, u, v)

    monkeypatch.setattr(metrics, "_SCALING_BOUND", 1.2)
    monkeypatch.setattr(metrics, "_in_scaling_range", counting_in_range)
    monkeypatch.setattr(metrics, "_square_folded_kernel", noting_square)
    x, y = _uneven_exact(2)
    val, converged = sinkhorn_w2(x, y, max_iters=300)
    ref_val, ref_converged = _reference_sinkhorn_w2(x, y, max_iters=300)
    assert rejected[200] > 0 and rejected[90] > 0  # both halves of an iteration fell back
    assert ("squared", False) in zip(events, events[1:])  # so did a squared start
    assert val == pytest.approx(ref_val, rel=1e-9)
    assert converged == ref_converged


def _bench_shaped(dim):
    # the clouds of test_sinkhorn_matches_reference_on_bench_shaped_clouds
    target = make_mog_target(dim, seed=0)
    x = target.exact_sampler(RngStream(15, 0), 256)
    y = target.exact_sampler(RngStream(15, 1), 256) + 0.5 * RngStream(15, 2).normal((256, dim))
    return x, y


@pytest.mark.parametrize("clouds, max_iters", [(_bench_shaped, 300), (_collapsed_and_exact, 30)],
                         ids=["bench-shaped", "short-budget"])
def test_sinkhorn_starts_only_non_halving_levels_in_log_form(monkeypatch, clouds, max_iters):
    # the first level and the last, whose epsilon is not half the one before, make the
    # two log-form f-updates; 30 iterations run 3 warm-up levels and skip the rest, so
    # the last level starts in log form after skipped ones
    lse = metrics._lse_inplace
    f_updates = []

    def counting_lse(buf, axis):
        f_updates.append(axis)
        return lse(buf, axis)

    monkeypatch.setattr(metrics, "_lse_inplace", counting_lse)
    x, y = clouds(2)
    val, converged = sinkhorn_w2(x, y, max_iters=max_iters)
    ref_val, ref_converged = _reference_sinkhorn_w2(x, y, max_iters=max_iters)
    assert len(f_updates) == 2
    assert val == pytest.approx(ref_val, rel=1e-9)
    assert converged == ref_converged


@pytest.mark.parametrize("dim", [2, 50])
@pytest.mark.parametrize("max_iters", [1, 5, 30, 100])
def test_sinkhorn_matches_reference_on_budgets_shorter_than_warmup(dim, max_iters):
    # the warm-up schedule wants 10 iterations per epsilon level; the last levels get none
    x, y = _collapsed_and_exact(dim)
    n_levels = math.ceil(math.log2(_sq_distances(x, y).max() / 8.0 / 1e-3))
    assert max_iters < 10 * n_levels
    val, converged = sinkhorn_w2(x, y, max_iters=max_iters)
    ref_val, ref_converged = _reference_sinkhorn_w2(x, y, max_iters=max_iters)
    assert ref_val > 1.0
    assert val == pytest.approx(ref_val, rel=1e-9)
    assert converged == ref_converged


def _per_iteration_sinkhorn_w2(x, y, epsilon=1e-3, max_iters=10_000, tol=1e-6, misses=None):
    """sinkhorn_w2 as it was before its scaling windows: every scaling range-checked as made.

    Each scaling out of range appends (level, iteration, half) to `misses`; the
    level's first iteration is iteration 0.
    """
    x, y = metrics._canonical(x, y, 1)
    n, m = len(x), len(y)
    cost = _sq_distances(x, y)
    a, b = 1.0 / n, 1.0 / m
    log_a = -np.log(n)
    f = np.zeros(n)
    g = np.zeros(m)
    u = np.ones(n)
    v = np.ones(m)
    kernel = np.empty_like(cost)
    misses = [] if misses is None else misses
    where = [0, 0]  # level, iteration

    span = float(cost.max()) if cost.size else 1.0
    eps_levels = []
    eps = max(span / 8.0, epsilon)
    while eps > epsilon:
        eps_levels.append(eps)
        eps /= 2.0
    eps_levels.append(epsilon)
    warmup_iters = 10

    def fold(eps):
        nonlocal f, g, u, v
        f = f + eps * np.log(u)
        g = g + eps * np.log(v)
        u = np.ones(n)
        v = np.ones(m)

    def log_step(eps, update_f):
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

    def iterate(eps, kv):
        nonlocal u, v
        u_next = a / kv
        if not metrics._in_scaling_range(u_next):
            misses.append((*where, "u"))
            log_step(eps, update_f=True)
            return
        u = u_next
        v_next = b / (u @ kernel)
        if not metrics._in_scaling_range(v_next):
            misses.append((*where, "v"))
            log_step(eps, update_f=False)
            return
        v = v_next

    def row_error(kv):
        return np.abs(u * kv - a).sum()

    def sweep(eps, scale_eps, iters, check):
        where[1] = 0
        if eps == scale_eps / 2.0:
            metrics._square_folded_kernel(kernel, u, v)
            fold(scale_eps)
            iterate(eps, kernel @ v)
        else:
            fold(scale_eps)
            log_step(eps, update_f=True)
        for i in range(1, iters):
            where[1] = i
            kv = kernel @ v
            if check and row_error(kv) < tol:
                return True
            iterate(eps, kv)
        return check and row_error(kernel @ v) < tol

    budget = max_iters
    scale_eps = eps_levels[0]
    for level, eps in enumerate(eps_levels[:-1]):
        where[0] = level
        iters = min(warmup_iters, budget)
        if iters > 0:
            sweep(eps, scale_eps, iters, check=False)
            scale_eps = eps
        budget -= iters
    where[0] = len(eps_levels) - 1
    converged = sweep(epsilon, scale_eps, max(budget, 1), check=True)
    fold(epsilon)

    np.add(f[:, None], g[None, :], out=kernel)
    np.subtract(kernel, cost, out=kernel)
    np.divide(kernel, epsilon, out=kernel)
    exp_clamped_inplace(kernel)
    np.multiply(kernel, cost, out=kernel)
    total = float(kernel.sum())
    return float(np.sqrt(max(total, 0.0))), bool(converged)


def _assert_matches_per_iteration(x, y, misses=None, **kwargs):
    val, converged = sinkhorn_w2(x, y, **kwargs)
    ref_val, ref_converged = _per_iteration_sinkhorn_w2(x, y, misses=misses, **kwargs)
    assert np.float64(val).tobytes() == np.float64(ref_val).tobytes()
    assert converged is ref_converged
    return converged


@pytest.mark.parametrize("dim", [2, 50])
def test_sinkhorn_windows_bitwise_equal_per_iteration_checks_on_bench_shaped_clouds(dim):
    misses = []
    _assert_matches_per_iteration(*_bench_shaped(dim), misses=misses, max_iters=300)
    assert misses == []  # every window passes its range check


def test_sinkhorn_windows_bitwise_equal_per_iteration_checks_in_a_narrow_range(monkeypatch):
    # [1/1.2, 1.2] sends nearly every window back to checked iterations
    monkeypatch.setattr(metrics, "_SCALING_BOUND", 1.2)
    misses = []
    _assert_matches_per_iteration(*_uneven_exact(2), misses=misses, max_iters=300)
    assert {half for *_, half in misses} == {"u", "v"}


def _window_position(iteration):
    # where a level's iteration falls: its first iteration runs alone, and the
    # windows run from iteration 1 on while the level has had no miss
    if iteration == 0:
        return "level-start"
    row = (iteration - 1) % metrics._WINDOW
    return "first" if row == 0 else "last" if row == metrics._WINDOW - 1 else "mid"


def _mid_window(iteration):
    return _window_position(iteration) == "mid"


@pytest.mark.parametrize("clouds, dim, bound, miss, position", [
    (_uneven_exact, 50, 5e3, (1, 4, "u"), "mid"),
    (_bench_shaped, 50, 1e4, (2, 8, "v"), "mid"),
    (_bench_shaped, 2, 1e5, (21, 31, "v"), "mid"),
    (_uneven_exact, 2, 1.8e5, (21, 65, "v"), "first"),
    (_bench_shaped, 50, 6e5, (24, 32, "v"), "last"),
    (_bench_shaped, 2, 5e4, (1, 0, "u"), "level-start"),
], ids=["u-half", "v-half", "checking-level", "first-row", "last-row", "level-start"])
def test_sinkhorn_window_with_a_miss_replays_per_iteration_checks(monkeypatch, clouds, dim,
                                                                  bound, miss, position):
    # (level, iteration, half) of a scaling out of range, at `position` in its window;
    # the first and last rows hold their level's first miss.  The checking level is
    # the 22nd of the bench-shaped d=2 clouds, and level 1 starts from the squared kernel
    in_range = metrics._in_scaling_range
    window_misses = []

    def noting_in_range(w):
        ok = in_range(w)
        if w.ndim == 2 and not ok:
            window_misses.append(len(w))
        return ok

    monkeypatch.setattr(metrics, "_SCALING_BOUND", bound)
    monkeypatch.setattr(metrics, "_in_scaling_range", noting_in_range)
    x, y = clouds(dim)
    misses = []
    _assert_matches_per_iteration(x, y, misses=misses, max_iters=300)
    assert miss in misses and _window_position(miss[1]) == position
    assert window_misses  # the windowed run found it and resumed after it


@pytest.mark.parametrize("max_iters, expected", [(78, False), (79, True), (10_000, True)])
def test_sinkhorn_converged_exit_inside_a_window_bitwise_equals_per_iteration(max_iters,
                                                                              expected):
    # the clouds of test_sinkhorn_matches_reference_when_converging_early: 10_000
    # exits at iteration 49 of the checking level, inside a window
    rng = RngStream(16, 0)
    x = rng.normal((20, 2))
    y = rng.normal((20, 2)) + 1.0
    converged = _assert_matches_per_iteration(x, y, epsilon=0.5, max_iters=max_iters)
    assert converged is expected
    assert _mid_window(49)


def test_sinkhorn_window_misses_on_a_converging_run_replay(monkeypatch):
    # a narrow range makes the windows of a converging run miss; the exit still matches
    monkeypatch.setattr(metrics, "_SCALING_BOUND", 3.0)
    rng = RngStream(16, 0)
    x = rng.normal((20, 2))
    y = rng.normal((20, 2)) + 1.0
    misses = []
    _assert_matches_per_iteration(x, y, misses=misses, epsilon=0.5, max_iters=10_000)
    assert misses


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
    # 300 iterations do not converge, so a change of solve or summation order would show
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
    # cloud comes first in byte order, and the unconverged W2 with it
    x, y = _bench_shaped(2)
    zero_x, neg_x, zero_y, neg_y = x.copy(), x.copy(), y.copy(), y.copy()
    zero_x[:, 0] = zero_y[:, 0] = 0.0
    neg_x[:, 0] = neg_y[:, 0] = -0.0
    pair = repr(metrics._ipm_pair(zero_x, zero_y, 300))
    assert repr(metrics._ipm_pair(neg_x, zero_y, 300)) == pair
    assert repr(metrics._ipm_pair(zero_x, neg_y, 300)) == pair


@pytest.mark.parametrize("axis", [0, 1])
def test_lse_clamp_matches_unclamped_form(axis):
    rng = RngStream(17, 0)
    shape = (64, 64)
    subnormal = rng.uniform(-745.0, -708.0, size=shape)  # exp gives subnormals
    zero = rng.uniform(-2000.0, -745.5, size=shape)  # exp gives exactly 0
    normal = rng.uniform(-30.0, 0.0, size=shape)
    mixed = np.where(rng.uniform(size=shape) < 0.5, subnormal, normal)
    for rows in (subnormal, zero, mixed):
        rows = rows.copy()
        rows[:, 0] = 0.0  # the shifted maximum of every row
        rows += rng.normal((64, 1))  # an offset per row
        mat = np.ascontiguousarray(rows if axis == 1 else rows.T)
        peak = mat.max(axis=axis, keepdims=True)
        expected = (np.log(np.exp(mat - peak).sum(axis=axis, keepdims=True)) + peak).squeeze(axis)
        assert np.array_equal(_lse_inplace(mat, axis=axis), expected)  # bitwise
