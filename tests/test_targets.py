import math
import re

import numpy as np
import pytest

from samplebench.errors import IngestionError, UsageError
from samplebench.harness.registry import DEFAULT_SIGMA0, TARGETS, build_target
from samplebench.metrics import mmd, sinkhorn_w2
from samplebench.numerics import RngStream
from samplebench.numerics.nets import DriftNet, drift_forward
from samplebench.targets import mixtures
from samplebench.targets import (
    DiagonalGaussian,
    MixtureSpec,
    make_brownian_target,
    make_funnel_target,
    make_gaussian_target,
    make_mixture_target,
    make_mog_target,
    make_mos_target,
    make_unnormalized_gaussian_target,
    load_regression_target,
)

LOG_2PI = math.log(2 * math.pi)


def fd_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += eps
        xm[j] -= eps
        g[j] = (f(xp) - f(xm)) / (2 * eps)
    return g


def assert_grad_matches(target, points, rtol=1e-5, atol=1e-7):
    for x in points:
        _, grad, _ = target.query(x[None, :], score=True)
        fd = fd_grad(lambda p: target.log_unnorm(p[None, :])[0], x)
        np.testing.assert_allclose(grad[0], fd, rtol=rtol, atol=atol)


@pytest.mark.parametrize(
    "factory,dim,scale",
    [
        (lambda: make_gaussian_target(3), 3, 1.0),
        (lambda: make_funnel_target(), 10, 1.5),
        (lambda: make_mog_target(2, seed=3), 2, 30.0),
        (lambda: make_mos_target(2, seed=3), 2, 10.0),
        (lambda: make_brownian_target(), 32, 0.8),
    ],
)
def test_gradients_match_finite_differences_at_50_points(factory, dim, scale):
    target = factory()
    rng = RngStream(100 + dim, 0)
    points = scale * rng.normal((50, dim))
    assert_grad_matches(target, points)


# --------------------------------------------------------------------- basics
CONTRACT_TARGETS = [("mog", {}), ("mog", {"dim": 50}), ("mos", {}), ("funnel", {}),
                    ("gaussian", {}), ("brownian", {}), ("logistic", None)]
CONTRACT_IDS = [n + (f"_d{p['dim']}" if p else "") for n, p in CONTRACT_TARGETS]
# the forms of the one counted query: value alone, value and score, and with the HVP
QUERY_FORMS = {"value": {"score": False}, "score": {"score": True},
               "hvp": {"score": True, "hvp": True}}


def _contract_target(name, params, csv_path):
    return build_target(name, {"csv_path": str(csv_path)} if params is None else params)


def _has_hvp(target):
    return target.score_hvp(np.zeros((1, target.dim)))[2] is not None


def test_fused_call_counts_one_nfe_per_point(toy_csv):
    # every form counts n and the closure none; the closure comes back only when
    # asked for, so a carried query pins none of the forward pass, and a target
    # without an HVP refuses that form before counting
    for name, params in CONTRACT_TARGETS:
        target = _contract_target(name, params, toy_csv)
        for n, form in zip((1, 7, 5), QUERY_FORMS):
            x = DEFAULT_SIGMA0[name] * RngStream(41, n).normal((n, target.dim))
            target.nfe.reset()
            if form == "hvp" and not _has_hvp(target):
                with pytest.raises(UsageError, match="has no score_hvp"):
                    target.query(x, **QUERY_FORMS[form])
                assert target.nfe.value == 0, name
                continue
            _, score, hvp = target.query(x, **QUERY_FORMS[form])
            assert target.nfe.value == n, (name, form)
            assert (score is None) == (form == "value") and (hvp is None) == (form != "hvp")
            if hvp is not None:
                assert hvp(np.ones((n, target.dim))).shape == (n, target.dim)
                assert target.nfe.value == n, name  # the HVP closure counts none


def _one_dimensional_calls():
    target = make_gaussian_target(2)
    net = DriftNet.init(dim=2, n_steps=8, rng=RngStream(0, 0))
    x, y = np.arange(4.0), np.arange(10.0, 14.0)  # read as 4 scalar samples, their W2 is 10
    return {
        **{f"target.query-{form}": lambda kw=kw: target.query(np.zeros(2), **kw)
           for form, kw in QUERY_FORMS.items()},
        "DiagonalGaussian.log_density": lambda: DiagonalGaussian.isotropic(2).log_density(
            np.zeros(2)),
        "mmd": lambda: mmd(x, y),
        "sinkhorn_w2": lambda: sinkhorn_w2(x, y),
        "drift_forward": lambda: drift_forward(net, np.zeros(2), 4, np.zeros(2)),
    }


@pytest.mark.parametrize("entry", sorted(_one_dimensional_calls()))
def test_one_dimensional_input_raises_at_every_public_boundary(entry):
    # one input format: a single point is the (1, d) batch x[None, :], never a 1-D array
    with pytest.raises(UsageError, match=r"\(n, "):
        _one_dimensional_calls()[entry]()


@pytest.mark.parametrize("name,params", CONTRACT_TARGETS, ids=CONTRACT_IDS)
def test_value_alone_bitwise_equals_the_fused_value(name, params, toy_csv):
    # the harness queries the exact draws once, with the score, and hands that
    # value to backward paths that otherwise read the value alone
    target = _contract_target(name, params, toy_csv)
    x = DEFAULT_SIGMA0[name] * RngStream(40, target.dim).normal((64, target.dim))
    forms = [f for f in QUERY_FORMS if f != "hvp" or _has_hvp(target)]
    values = {target.query(x, **QUERY_FORMS[form])[0].tobytes() for form in forms}
    assert len(values) == 1


def test_contract_cases_cover_every_shipped_target():
    assert {name for name, _ in CONTRACT_TARGETS} == set(TARGETS)


def test_nonfinite_point_rejected():
    t = make_gaussian_target(2)
    for form in QUERY_FORMS.values():
        with pytest.raises(UsageError, match="non-finite point"):
            t.query(np.array([[0.0, 1.0], [np.nan, 0.0]]), **form)
    assert t.nfe.value == 0


def test_standard_gaussian_score_is_minus_x():
    t = make_gaussian_target(4)
    x = np.array([[0.5, -1.0, 2.0, 0.0]])
    _, g, _ = t.query(x, score=True)
    np.testing.assert_allclose(g, -x, atol=1e-12)


# --------------------------------------------------------------------- funnel
def test_funnel_at_origin_matches_closed_form():
    t = make_funnel_target(10)
    (val,) = t.query(np.zeros((1, 10)), score=False)[0]
    expected = -0.5 * (LOG_2PI + math.log(9.0)) + 9 * (-0.5 * LOG_2PI)
    assert val == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(-10.2880, abs=5e-4)


def test_funnel_sampler_moments():
    t = make_funnel_target(10)
    x = t.exact_sampler(RngStream(1, 0), 200_000)
    assert np.std(x[:, 0]) == pytest.approx(3.0, abs=0.05)
    # conditionally whitened coordinates are standard normal
    z = x[:, 1:] * np.exp(-x[:, 0] / 2.0)[:, None]
    assert np.mean(z) == pytest.approx(0.0, abs=0.01)
    assert np.var(z) == pytest.approx(1.0, abs=0.02)


# ------------------------------------------------------------------- mixtures
def test_mog_means_deterministic_per_seed():
    a = MixtureSpec(40, 2, seed=11).draw_means()
    b = MixtureSpec(40, 2, seed=11).draw_means()
    np.testing.assert_array_equal(a, b)


def test_mog_is_normalized():
    t = make_mog_target(2, seed=0)
    assert t.true_log_z == 0.0


def test_mog_logdensity_at_isolated_mean():
    # craft a layout where component 0 sits far from the rest
    spec = MixtureSpec(40, 2, "gaussian", -40, 40, seed=0)
    means = spec.draw_means()
    # move component 0 away from everything
    far = means.copy()
    far[0] = [500.0, 500.0]

    t = make_mixture_target(spec)
    # use the real target but evaluate at a mean isolated by > 20 units
    dists = np.linalg.norm(means[None, :, :] - means[:, None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    isolated = int(np.argmax(dists.min(axis=1)))
    if dists.min(axis=1)[isolated] > 20:
        (val,) = t.query(means[isolated][None, :], score=False)[0]
        assert val == pytest.approx(-math.log(40) - LOG_2PI, abs=1e-6)
    # always check the fully controlled variant too
    spec2 = MixtureSpec(2, 2, "gaussian", -40, 40, seed=1)
    means2 = spec2.draw_means()
    if np.linalg.norm(means2[0] - means2[1]) > 20:
        t2 = make_mixture_target(spec2)
        (val,) = t2.query(means2[:1], score=False)[0]
        assert val == pytest.approx(-math.log(2) - LOG_2PI, abs=1e-6)


def test_mos_tails_are_cubic_per_coordinate():
    t = make_mos_target(1, seed=2)
    # far from all means, log gamma ~ -3 log|x| per coordinate
    v1, v2 = t.query(np.array([[1e4], [1e5]]), score=False)[0]
    slope = (v2 - v1) / (math.log(1e5) - math.log(1e4))
    assert slope == pytest.approx(-3.0, abs=0.01)


def test_mixture_sampler_component_frequencies():
    k = 8
    t = make_mixture_target(MixtureSpec(k, 2, "gaussian", -40, 40, seed=5))
    n = 100_000
    x = t.exact_sampler(RngStream(3, 0), n)
    idx = np.argmax(t.mode_model.prob(x), axis=1)
    p = 1.0 / k
    bound = 4 * math.sqrt(p * (1 - p) / n)
    freqs = np.bincount(idx, minlength=k) / n
    assert np.all(np.abs(freqs - p) < bound + 0.01)  # small slack for assignment error


def test_mode_rows_are_probability_vectors():
    t = make_mog_target(2, seed=0)
    rows = t.mode_model.prob(RngStream(4, 0).normal((100, 2)) * 40)
    assert np.all(rows >= 0)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["gaussian", "student_t2"])
def test_mode_prob_is_the_one_hot_of_the_cell(kind):
    t = make_mixture_target(MixtureSpec(7, 3, kind, -10, 10, seed=2))
    x = RngStream(4, 1).normal((300, 3)) * 10
    cells = t.mode_model.cell(x)
    assert cells.shape == (300,) and np.issubdtype(cells.dtype, np.integer)
    assert np.all((0 <= cells) & (cells < 7))
    expected = np.zeros((300, 7))
    expected[np.arange(300), cells] = 1.0
    np.testing.assert_array_equal(t.mode_model.prob(x), expected)


def test_mode_assign_tie_breaks_low_index():
    spec = MixtureSpec(2, 1, "gaussian", -10, 10, seed=0)
    means = spec.draw_means()
    midpoint = means.mean(axis=0)
    one_hot = make_mixture_target(spec).mode_model.prob(midpoint[None, :])[0]
    idx = int(np.argmax(one_hot))
    assert idx == 0
    np.testing.assert_array_equal(one_hot, [1.0, 0.0])


def test_mode_assign_nearest_mean_for_equal_isotropic():
    # a small d=2 layout and the benchmark's d=50 layout (40 components, seed 12)
    for spec in (MixtureSpec(6, 2, "gaussian", -40, 40, seed=7),
                 MixtureSpec(40, 50, "gaussian", -40, 40, seed=12)):
        means = spec.draw_means()
        rng = RngStream(8, 0)
        x = rng.uniform(-40, 40, (200, spec.dim))
        idx = np.argmax(make_mixture_target(spec).mode_model.prob(x), axis=1)
        nearest = np.argmin(np.linalg.norm(x[:, None, :] - means[None], axis=-1), axis=1)
        np.testing.assert_array_equal(idx, nearest)


def test_mode_self_consistency_on_separated_modes():
    # exact samples from component k come back as mode k >= 95% of the time
    spec = MixtureSpec(10, 2, "gaussian", -40, 40, seed=12)
    means = spec.draw_means()
    dists = np.linalg.norm(means[None] - means[:, None], axis=-1)
    np.fill_diagonal(dists, np.inf)
    t = make_mixture_target(spec)
    rng = RngStream(13, 0)
    for k in range(10):
        if dists[k].min() < 10:
            continue
        samples = means[k] + rng.normal((500, 2))
        idx = np.argmax(t.mode_model.prob(samples), axis=1)
        assert np.mean(idx == k) >= 0.95


def _mog_direct(means, x, v):
    """Value, score and HVP of the uniform MoG from the (n, K, d) offset tensor."""
    diff = means[None, :, :] - x[:, None, :]
    comp = -0.5 * np.sum(diff**2, axis=-1) - 0.5 * x.shape[1] * LOG_2PI
    w = np.exp(comp - comp.max(axis=1, keepdims=True))
    value = np.log(w.sum(axis=1)) + comp.max(axis=1) - math.log(len(means))
    r = w / w.sum(axis=1, keepdims=True)
    score = np.einsum("nk,nkd->nd", r, diff)
    dv = np.einsum("nkd,nd->nk", diff, v)
    hvp = np.einsum("nk,nkd->nd", r * dv, diff) - score * np.sum(score * v, axis=1)[:, None] - v
    return value, score, hvp


@pytest.mark.parametrize("dim", [2, 50])
def test_mog_expansion_matches_direct_form_out_to_3_sigma(dim):
    # Points: draws from the MoG proposal N(0, sigma0^2 I) clipped at 3 sigma0,
    # the 3-sigma0 corners (|x|^2 = 9 sigma0^2 d, 1.6e6 at d=50), and midpoints
    # between two means, where near-ties make the responsibilities sensitive.
    # Tolerance: both forms round terms as large as s = |x|^2 + max|mu|^2, so
    # each is off by a few eps * s (eps = 2.2e-16).  We allow 1e-14 * s on the
    # value, and ten times that on the score and on the HVP (per unit |v|):
    # near a tie, an error in a log-term shifts the responsibilities, which
    # moves the score by that error times a distance between means.
    sigma0 = DEFAULT_SIGMA0["mog"]
    target = make_mog_target(dim)
    means = MixtureSpec(40, dim, "gaussian", -40, 40, seed=12).draw_means()
    rng = RngStream(31, 0)
    z = rng.normal((300, dim))
    mid = 0.5 * (means[rng.integers(40, size=100)] + means[rng.integers(40, size=100)])
    x = np.concatenate([sigma0 * np.clip(z, -3, 3), 3 * sigma0 * np.sign(z), mid])
    v = rng.normal(x.shape)
    scale = np.sum(x * x, axis=1) + np.max(np.sum(means**2, axis=1))

    value, score, hvp = _mog_direct(means, x, v)
    value_mm, score_mm, _ = target.query(x, score=True)
    assert np.all(np.abs(value_mm - value) <= 1e-14 * scale)
    assert np.all(np.abs(target.log_unnorm(x) - value) <= 1e-14 * scale)
    assert np.all(np.abs(score_mm - score).max(axis=1) <= 1e-13 * scale)
    value_q, score_q, hvp_q = target.score_hvp(x)
    assert np.array_equal(value_q, value_mm) and np.array_equal(score_q, score_mm)
    hvp_err = np.abs(hvp_q(v) - hvp).max(axis=1)
    assert np.all(hvp_err <= 1e-13 * scale * np.linalg.norm(v, axis=1))


def _mos_direct(means, x):
    """Value, score and per-component log-terms of the uniform MoS from the (n, K, d) offsets."""
    diff = x[:, None, :] - means[None, :, :]
    comp = np.sum(mixtures.T2_LOG_NORM - 1.5 * np.log1p(diff**2 / 2.0), axis=-1)
    w = np.exp(comp - comp.max(axis=1, keepdims=True))
    value = np.log(w.sum(axis=1)) + comp.max(axis=1) - math.log(len(means))
    r = w / w.sum(axis=1, keepdims=True)
    return value, np.einsum("nk,nkd->nd", r, -3.0 * diff / (2.0 + diff**2)), comp


@pytest.mark.parametrize("n", [1, 7, 129, 2000])
@pytest.mark.parametrize("dim", [2, 50])
@pytest.mark.parametrize("kind", ["gaussian", "student_t2"])
def test_component_major_queries_match_direct_form_at_every_batch_size(kind, dim, n):
    # The shipped layouts, with the last two means copies of the first two, so
    # that those components tie exactly.  Points: draws near the tied means
    # first, then a shuffle of exact draws, midpoints of two means and proposal
    # draws clipped at 3 sigma0.  Tolerances are those derived in
    # test_mog_expansion_matches_direct_form_out_to_3_sigma, from s = |x|^2 + max|mu|^2:
    # the MoS log-terms are as large as d log(1 + s), far below s, so they hold a fortiori.
    gaussian = kind == "gaussian"
    spec = (MixtureSpec(40, dim, kind, -40, 40, seed=12) if gaussian
            else MixtureSpec(10, dim, kind, -10, 10, seed=0))
    means = spec.draw_means()
    k = len(means)
    means[k - 2:] = means[:2]
    spec.draw_means = lambda: means
    target = make_mixture_target(spec)
    rng = RngStream(32, dim)
    sigma0 = DEFAULT_SIGMA0["mog" if gaussian else "mos"]
    pool = np.concatenate([
        target.exact_sampler(rng, 700),
        0.5 * (means[rng.integers(k, size=700)] + means[rng.integers(k, size=700)]),
        sigma0 * np.clip(rng.normal((598, dim)), -3, 3)])
    pool = pool[np.argsort(rng.uniform(size=len(pool)))]
    x = np.concatenate([means[:2] + rng.normal((2, dim)), pool])[:n]
    v = rng.normal(x.shape)
    scale = np.sum(x * x, axis=1) + np.max(np.sum(means**2, axis=1))

    if gaussian:
        value, score, hvp = _mog_direct(means, x, v)
        value_q, score_q, hvp_q = target.score_hvp(x)
        hvp_err = np.abs(hvp_q(v) - hvp).max(axis=1)
        assert np.all(hvp_err <= 1e-13 * scale * np.linalg.norm(v, axis=1))
    else:
        value, score, comp = _mos_direct(means, x)
        value_q, score_q, _ = target.score_hvp(x)
    assert np.all(np.abs(value_q - value) <= 1e-14 * scale)
    assert np.all(np.abs(target.log_unnorm(x) - value) <= 1e-14 * scale)
    assert np.all(np.abs(score_q - score).max(axis=1) <= 1e-13 * scale)

    cells = target.mode_model.cell(x)
    assert cells.shape == (n,) and not np.any(cells >= k - 2)  # ties go to the lowest index
    if not gaussian:  # elementwise the same log-terms: the direct argmax, bitwise
        assert np.array_equal(cells, np.argmax(comp, axis=1))
        return
    # the nearest mean, wherever the two nearest differ by more than the log-terms'
    # rounding (1e-14 s each); elsewhere a mean within that rounding of the nearest
    half_sq = 0.5 * np.sum((x[:, None, :] - means[None, :, :]) ** 2, axis=-1)
    nearest = np.argmin(half_sq, axis=1)
    gap = np.diff(np.sort(half_sq, axis=1)[:, :2], axis=1)[:, 0]
    decided = gap > 2e-14 * scale
    assert np.array_equal(cells[decided], nearest[decided])
    assert np.all(half_sq[np.arange(n), cells] - half_sq.min(axis=1) <= 2e-14 * scale)


def _unclamped_log_sum_and_resp(comp):
    """The mixtures' softmax over (K, n) log-terms without clamp or in-place work,
    kept as a reference."""
    m = comp.max(axis=0)
    w = np.exp(comp - m)
    total = w.sum(axis=0)
    return np.log(total) + m, w * (1.0 / total)


def _mixture_queries(target, x, v):
    value, score, hvp = target.score_hvp(x)
    return [target.log_unnorm(x), value, score] + ([] if hvp is None else [hvp(v)])


@pytest.mark.parametrize("kind,dim,half_width", [
    ("gaussian", 2, 40.0), ("gaussian", 50, 40.0), ("student_t2", 50, 1000.0)])
def test_mixture_queries_bitwise_equal_unclamped_softmax(monkeypatch, kind, dim, half_width):
    # 2000 points, half near the means and half spread over the layout's box, so
    # that shifted log-terms fall both below -745 (exp underflows to 0) and in
    # the subnormal band (-745, -708), where the clamped softmax differs
    spec = MixtureSpec(40 if kind == "gaussian" else 10, dim, kind, -half_width, half_width,
                       seed=12)
    target = make_mixture_target(spec)
    means = spec.draw_means()
    rng = RngStream(5, 0)
    near = means[rng.integers(len(means), size=1000)]
    near = near + rng.normal((1000, dim)) * 10.0 ** rng.uniform(-1, 1, (1000, 1))
    spread = rng.uniform(-half_width, half_width, (1000, dim)) * rng.uniform(0, 1, (1000, 1)) ** 4
    x = np.concatenate([near, spread])
    v = rng.normal(x.shape)
    # per-component log-densities up to a constant, from the (n, K, d) offsets
    diff_sq = (x[:, None, :] - means[None, :, :]) ** 2
    if kind == "gaussian":
        comp = -0.5 * diff_sq.sum(axis=-1)
    else:
        comp = -1.5 * np.log1p(diff_sq / 2.0).sum(axis=-1)
    shifted = comp - comp.max(axis=1, keepdims=True)
    assert np.any(shifted < -745) and np.any((-745 < shifted) & (shifted < -708))

    batches = [(x, v), (x[:128], v[:128])]
    got = [_mixture_queries(target, *batch) for batch in batches]
    monkeypatch.setattr(mixtures, "_log_sum_and_resp", _unclamped_log_sum_and_resp)
    expected = [_mixture_queries(target, *batch) for batch in batches]
    for batch_got, batch_expected in zip(got, expected, strict=True):
        for a, b in zip(batch_got, batch_expected, strict=True):
            assert np.array_equal(a, b)  # bitwise


@pytest.mark.parametrize("target", [make_mog_target(2), make_mog_target(50), make_mos_target(2)],
                         ids=["mog_d2", "mog_d50", "mos_d2"])
def test_mixture_queries_leave_inputs_unmodified(target):
    rng = RngStream(6, 0)
    x = rng.uniform(-40, 40, (300, target.dim))
    v = rng.normal(x.shape)
    x_copy, v_copy = x.copy(), v.copy()
    _mixture_queries(target, x, v)
    assert np.array_equal(x, x_copy) and np.array_equal(v, v_copy)


# ------------------------------------------------------ logistic regression
@pytest.fixture
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    rng = RngStream(21, 0)
    n = 40
    f1 = rng.normal(n)
    f2 = rng.normal(n) * 2.0 + 1.0
    labels = (f1 + 0.5 * f2 + 0.3 * rng.normal(n) > 0).astype(int)
    lines = ["f1,f2,label"] + [f"{a},{b},{c}" for a, b, c in zip(f1, f2, labels)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_logistic_value_at_zero(toy_csv):
    t = load_regression_target(toy_csv, prior_scale=1.0)
    n = 40
    expected = n * math.log(0.5) - (t.dim / 2) * math.log(2 * math.pi * 1.0)
    assert t.query(np.zeros((1, t.dim)), score=False)[0][0] == pytest.approx(expected, abs=1e-9)


def test_logistic_gradient_at_zero(toy_csv):
    t = load_regression_target(toy_csv, prior_scale=1.0)
    # read back the standardized design matrix through the gradient identity
    (g,) = t.query(np.zeros((1, t.dim)), score=True)[1]
    fd = fd_grad(lambda p: t.log_unnorm(p[None, :])[0], np.zeros(t.dim))
    np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_logistic_gradients_at_random_points(toy_csv):
    t = load_regression_target(toy_csv)
    assert_grad_matches(t, RngStream(22, 0).normal((20, t.dim)))


def test_logistic_separable_scan_monotone_until_prior_wins(tmp_path):
    path = tmp_path / "sep.csv"
    path.write_text("f,label\n-1.0,0\n1.0,1\n")
    t = load_regression_target(path, prior_scale=1.0)
    alphas = np.linspace(0.0, 6.0, 25)
    vals = t.query(alphas[:, None], score=False)[0]
    diffs = np.diff(vals)
    # increases along the separating direction, then the prior dominates
    assert diffs[0] > 0
    assert vals[-1] < max(vals)
    peak = int(np.argmax(vals))
    assert np.all(diffs[:peak] > 0)


def test_logistic_rejects_non_binary_labels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f,label\n0.1,2\n0.2,0\n")
    with pytest.raises(IngestionError, match="label"):
        load_regression_target(path)


def test_logistic_rejects_constant_column(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("f1,f2,label\n1.0,0.3,0\n1.0,0.9,1\n")
    with pytest.raises(IngestionError, match="f1"):
        load_regression_target(path)


@pytest.mark.parametrize("rows, error", [
    ("0.1,0.3,0\n0.2,1\n", "line 3, column 3 (label) is missing"),  # before: no line named
    ("0.1,0.3,0\n0.2,0.4,1,7\n", "line 3, column 4 has no header"),
    ("0.1,nan,0\n0.2,0.4,1\n", "line 2, column 2 (f2) is nan, not a finite number"),
    ("0.1,0.3,0\n-inf,0.4,1\n", "line 3, column 1 (f1) is -inf, not a finite number"),
    ("0.1,0.3,0\n0.2,x,1\n", "line 3, column 2 (f2) is 'x', not a number"),
], ids=["short", "long", "nan", "inf", "text"])
def test_logistic_names_the_line_and_column_of_a_bad_row(tmp_path, rows, error):
    # before, a nan or inf feature was accepted, and every seed's MFVI diverged
    path = tmp_path / "bad.csv"
    path.write_text("f1,f2,label\n" + rows)
    with pytest.raises(IngestionError, match=re.escape(f"{path}: {error}")):
        load_regression_target(path)


# ---------------------------------------------------------------- score HVPs
# The former `score_hvp(x, v)` formulas, each recomputing its forward pass, kept
# as oracles: the fused query's `hvp` closure must equal them bitwise, except the
# MoG's, which applies the same covariance in its centred form (`_mog_hvp_rounding`).
def _mog_hvp_oracle(means):
    half_sq_means = 0.5 * np.sum(means**2, axis=1, keepdims=True)

    def hvp(x, v):
        comp = means @ x.T  # (K, n)
        comp -= half_sq_means
        _, r = mixtures._log_sum_and_resp(comp)
        m = r.T @ means
        rv = means @ v.T
        rv *= r
        return rv.T @ means - m * np.sum(m * v, axis=1, keepdims=True) - v

    return hvp


def _logistic_hvp_oracle(u, var_w):
    def hvp(x, v):
        sig = 1.0 / (1.0 + np.exp(-(x @ u.T)))
        w = sig * (1.0 - sig)
        return -v / var_w - (w * (v @ u.T)) @ u

    return hvp


U64 = 2.0**-53  # float64's unit roundoff


def _mog_hvp_rounding(k, d, h_norm):
    """Entrywise bound, per unit |v| of the row, on |centred - former| of the MoG HVP.

    Both forms read the same responsibilities r and the same rounded products
    s_k = r_k (mu_k.v); every term they sum is at most M^2 |v|, M = max |mu_k|.
    The former form sums the K terms s_k mu_k, forms m = r.mu and m.v (K and
    K + d terms) and their product, then subtracts twice: (3K + d + 6) u M^2 |v|.
    The centred form sums the K products s_k, subtracts r_k times that sum, sums
    the K rows and subtracts v: (3K + 6) u M^2 |v|.  Its m.v is the sum of the
    rounded s_k, a further (d + 1) u M^2 |v| from the exact m.v.  With
    h_norm = M^2 + 1 >= M^2 the two forms differ by at most
    (6K + 2d + 13) u h_norm |v|.
    """
    return (6 * k + 2 * d + 13) * U64 * h_norm


def _hvp_case(name, csv_path):
    """(target, points, former HVP, bound on the Hessian's spectral norm, entrywise
    bound per unit |v| on the closure's difference from the former HVP)."""
    rng = RngStream(60, 0)
    if name.startswith("mog"):
        dim = int(name[len("mog_d"):])
        target = make_mog_target(dim)
        means = MixtureSpec(40, dim, "gaussian", -40, 40, seed=12).draw_means()
        # exact draws, where the mass is, and midpoints of two means, where the
        # responsibilities turn fastest; Cov_r(mu) - I has norm <= max |mu|^2 + 1
        mid = 0.5 * (means[rng.integers(40, size=64)] + means[rng.integers(40, size=64)])
        x = np.concatenate([target.exact_sampler(rng, 64), mid])
        h_norm = np.max(np.sum(means**2, axis=1)) + 1.0
        return target, x, _mog_hvp_oracle(means), h_norm, _mog_hvp_rounding(40, dim, h_norm)
    if name == "logistic":
        target = load_regression_target(csv_path, prior_scale=1.5)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        features = data[:, :-1]
        u = (features - features.mean(axis=0)) / features.std(axis=0)
        # -I/var - U^T diag(s(1-s)) U, with s(1-s) <= 1/4
        return (target, 2.0 * rng.normal((64, target.dim)), _logistic_hvp_oracle(u, 2.25),
                1.0 / 2.25 + 0.25 * np.linalg.norm(u, 2) ** 2, 0.0)
    target = (make_gaussian_target(3, 2.0, 1.0) if name == "gaussian"
              else make_unnormalized_gaussian_target(3, 0.5))
    var = 4.0 if name == "gaussian" else 0.25
    return target, 3.0 * rng.normal((64, 3)), lambda x, v: -v / var, 1.0 / var, 0.0


def _assert_matches_former(hv, former, v, rounding):
    """`hv` equals `former` within `rounding` per unit |v| of each row; bitwise at 0."""
    bound = rounding * np.linalg.norm(v, axis=1, keepdims=True)
    assert np.all(np.abs(hv - former) <= bound)


HVP_TARGETS = ["mog_d2", "mog_d50", "logistic", "gaussian", "unnorm_gaussian"]


@pytest.mark.parametrize("name", HVP_TARGETS)
def test_score_hvp_closure_matches_central_difference_symmetry_and_former_formula(name, toy_csv):
    target, x, former_hvp, h_norm, rounding = _hvp_case(name, toy_csv)
    rng = RngStream(61, 0)
    v, w = rng.normal(x.shape), rng.normal(x.shape)
    value, score, hvp = target.score_hvp(x)
    hv, hw = hvp(v), hvp(w)
    # the value and score are the fused query's bitwise, and the HVP the former
    # formula's within the two forms' rounding (bitwise but for the MoG)
    value_fused, score_fused, _ = target.query(x, score=True)
    assert np.array_equal(value, value_fused) and np.array_equal(score, score_fused)
    _assert_matches_former(hv, former_hvp(x, v), v, rounding)
    _assert_matches_former(hw, former_hvp(x, w), w, rounding)

    # central difference of the score along v.  Truncation is h^2 |D^3 log gamma|;
    # rounding is that of the score divided by 2h, largest at the d=50 ties, whose
    # log-terms |x.mu| ~ 1e4 make the responsibilities' rounding about 4e-6 of |Hv|
    h = 1e-5
    fd = (target.query(x + h * v, score=True)[1]
          - target.query(x - h * v, score=True)[1]) / (2.0 * h)
    norm = np.linalg.norm
    assert np.all(norm(fd - hv, axis=1) <= 1e-5 * (norm(hv, axis=1) + norm(v, axis=1)))

    # symmetry w^T H v = v^T H w; each side rounds at about d eps |H| |v| |w| (d <= 50)
    asym = np.abs(np.sum(w * hv, axis=1) - np.sum(v * hw, axis=1))
    assert np.all(asym <= 1e-13 * h_norm * norm(v, axis=1) * norm(w, axis=1))


@pytest.mark.parametrize("name", ["mog_d2", "mog_d50"])
def test_mog_hvp_closure_holds_no_n_by_d_array(name):
    # the closure keeps the (K, n) responsibilities and never forms m = r.mu; its
    # output is the former formula's (m kept from the forward pass) within rounding
    target, x, former_hvp, _, rounding = _hvp_case(name, None)
    n, d = x.shape
    assert n != 40
    _, _, hvp = target.score_hvp(x)
    held = [cell.cell_contents for cell in hvp.__closure__]
    assert not [a for a in held if isinstance(a, np.ndarray) and a.shape == (n, d)]
    v = RngStream(62, 0).normal(x.shape)
    _assert_matches_former(hvp(v), former_hvp(x, v), v, rounding)


def test_hvp_cases_cover_every_shipped_target_that_has_one(toy_csv):
    with_hvp = {name for name, params in CONTRACT_TARGETS
                if _has_hvp(_contract_target(name, params, toy_csv))}
    assert with_hvp == {"mog", "gaussian", "logistic"}  # ROADMAP item 7 adds the other three
    assert {name.split("_d")[0] for name in HVP_TARGETS} >= with_hvp


# ------------------------------------------------------------------- brownian
def test_brownian_dimension():
    assert make_brownian_target().dim == 32


def test_brownian_matches_gaussian_chain_oracle():
    t = make_brownian_target(observation_seed=11)
    rng = RngStream(30, 0)
    x = rng.normal((5, 30))
    theta = np.column_stack([np.zeros((5, 2)), x])  # log-scales 0 -> alphas 1

    # independent plain-Gaussian evaluation of the same generative story
    from samplebench.targets.brownian import OBS_INDICES, PRIOR_SCALE, _simulate_observations

    y = _simulate_observations(11)

    def oracle(xrow):
        lp = 2 * (-0.5 * LOG_2PI - math.log(PRIOR_SCALE))  # two N(0, 4) priors at 0
        prev = 0.0
        for i in range(30):
            lp += -0.5 * LOG_2PI - 0.5 * (xrow[i] - prev) ** 2
            prev = xrow[i]
        for j, i in enumerate(OBS_INDICES):
            lp += -0.5 * LOG_2PI - 0.5 * (y[j] - xrow[i]) ** 2
        return lp

    vals = t.log_unnorm(theta)
    expected = [oracle(row) for row in x]
    np.testing.assert_allclose(vals, expected, rtol=1e-12)
