import math

import numpy as np
import pytest

from samplebench.errors import UsageError
from samplebench.kernels import (
    AnnealedPath,
    HmcConfig,
    annealed_logdensity,
    hmc_step,
    mh_step,
)
from samplebench.metrics import mmd
from samplebench.numerics import RngStream
from samplebench.targets import DiagonalGaussian, make_gaussian_target, make_unnormalized_gaussian_target

LOG_2PI = math.log(2 * math.pi)


def std_path(n_steps=8, dim=1, sigma0=1.0):
    return AnnealedPath.linear(
        DiagonalGaussian.isotropic(dim, sigma0), make_gaussian_target(dim), n_steps
    )


def gaussian_fused(x):
    x = np.atleast_2d(x)
    return -0.5 * np.sum(x**2, axis=1), -x


# ------------------------------------------------------------- annealing path
def test_path_rejects_bad_betas():
    with pytest.raises(UsageError):
        AnnealedPath(DiagonalGaussian.isotropic(1), make_gaussian_target(1),
                     np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(UsageError):
        AnnealedPath(DiagonalGaussian.isotropic(1), make_gaussian_target(1),
                     np.array([0.1, 0.5, 1.0]))


def test_annealed_endpoints():
    path = std_path(4, 2)
    x = np.array([[0.3, -0.8]])
    v0, _ = annealed_logdensity(path, 0, x)
    vt, _ = annealed_logdensity(path, 4, x)
    np.testing.assert_allclose(v0, path.proposal.log_density(x))
    np.testing.assert_allclose(vt, path.target.log_unnorm(x))


def test_annealed_midpoint_average_of_gaussians():
    # pi0 = N(0,1), gamma = unnormalized N(0,1): value at beta=.5 is the average
    target = make_unnormalized_gaussian_target(1, scale=1.0)
    path = AnnealedPath(DiagonalGaussian.isotropic(1), target, np.array([0.0, 0.5, 1.0]))
    x = np.array([[0.7]])
    val, _ = annealed_logdensity(path, 1, x)
    lp0 = path.proposal.log_density(x)[0]
    lg = target.log_unnorm(x)[0]
    assert val[0] == pytest.approx(0.5 * (lp0 + lg), abs=1e-12)


def test_annealed_affine_in_beta():
    path = std_path(10, 3)
    x = RngStream(1, 0).normal((5, 3))
    lp0 = path.proposal.log_density(x)
    lg = path.target.log_unnorm(x)
    for t in range(11):
        val = annealed_logdensity(path, t, x, with_grad=False)
        beta = path.betas[t]
        np.testing.assert_allclose(val, (1 - beta) * lp0 + beta * lg, rtol=1e-12)


def test_annealed_no_nfe_at_base():
    path = std_path(4, 2)
    path.target.nfe.reset()
    annealed_logdensity(path, 0, np.zeros((3, 2)))
    assert path.target.nfe.value == 0
    annealed_logdensity(path, 1, np.zeros((3, 2)))
    assert path.target.nfe.value == 3


def test_annealed_index_range():
    path = std_path(4, 1)
    with pytest.raises(UsageError):
        annealed_logdensity(path, 5, np.zeros((1, 1)))


# ------------------------------------------------------------------------- mh
def test_mh_uphill_always_accepted():
    rng = RngStream(2, 0)
    logdensity = lambda pts: -0.5 * np.sum(pts**2, axis=1)
    # start far out: essentially every proposal toward the origin is uphill
    x = np.full((200, 1), 50.0)
    _, accepted, _ = mh_step(x, logdensity, 0.5, rng)
    prop_uphill = accepted.mean()
    assert prop_uphill > 0.45  # about half of proposals move inward, all accepted
    # construct explicit uphill proposals: with scale tiny acceptance is ~1 anyway


def test_mh_tiny_scale_acceptance_near_one():
    rng = RngStream(3, 0)
    logdensity = lambda pts: -0.5 * np.sum(pts**2, axis=1)
    x = rng.normal((100, 1))
    total = 0
    accepted_count = 0
    for _ in range(100):  # 10^4 steps at scale 1e-6
        x, accepted, _ = mh_step(x, logdensity, 1e-6, rng)
        accepted_count += accepted.sum()
        total += len(accepted)
    assert accepted_count / total > 0.999


def test_mh_long_run_moments():
    rng = RngStream(4, 0)
    logdensity = lambda pts: -0.5 * np.sum(pts**2, axis=1)
    x = rng.normal((100, 1))
    draws = []
    for step in range(1000):  # 10^5 total draws at the classic 2.4 scale
        x, _, _ = mh_step(x, logdensity, 2.4, rng)
        if step >= 100:
            draws.append(x.copy())
    pooled = np.concatenate(draws).ravel()
    assert abs(pooled.mean()) < 0.05
    assert abs(pooled.var() - 1.0) < 0.1


# ------------------------------------------------------------------------ hmc
def test_leapfrog_reversibility():
    from samplebench.kernels import _leapfrog

    rng = RngStream(5, 0)
    x0 = rng.normal((6, 3))
    p0 = rng.normal((6, 3))
    val0, grad0 = gaussian_fused(x0)
    x1, p1, val1, grad1 = _leapfrog(x0, p0, 0.15, 10, gaussian_fused, val0, grad0)
    x2, p2, _, _ = _leapfrog(x1, -p1, 0.15, 10, gaussian_fused, val1, grad1)
    np.testing.assert_allclose(x2, x0, atol=1e-8)
    np.testing.assert_allclose(-p2, p0, atol=1e-8)


def test_hmc_energy_error_quarters_when_step_halved():
    from samplebench.kernels import _leapfrog

    rng = RngStream(6, 0)
    x0 = rng.normal((2000, 2))
    p0 = rng.normal((2000, 2))
    val0, grad0 = gaussian_fused(x0)

    def mean_abs_dh(eps, n_steps):
        x1, p1, val1, _ = _leapfrog(x0, p0, eps, n_steps, gaussian_fused, val0, grad0)
        h0 = -val0 + 0.5 * np.sum(p0**2, axis=1)
        h1 = -val1 + 0.5 * np.sum(p1**2, axis=1)
        return np.abs(h1 - h0).mean()

    # halve the step while doubling the count: same integration time
    ratio = mean_abs_dh(0.2, 10) / mean_abs_dh(0.1, 20)
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_hmc_long_run_moments_d10():
    rng = RngStream(7, 0)
    fused = gaussian_fused
    cfg = HmcConfig(leapfrog_steps=10, step_size_low=0.5, step_size_high=0.5)
    x = rng.normal((100, 10)) * 2.0
    draws = []
    for step in range(1000):
        x, _, _ = hmc_step(x, fused, cfg, rng)
        if step >= 100:
            draws.append(x.copy())
    pooled = np.concatenate(draws)
    per_coord_var = pooled.var(axis=0)
    assert np.all(np.abs(per_coord_var - 1.0) < 0.1)


def test_hmc_rejects_nonfinite_energy():
    rng = RngStream(8, 0)

    def exploding(pts):
        pts = np.atleast_2d(pts)
        val = -0.5 * np.sum(pts**2, axis=1)
        val = np.where(np.abs(pts[:, 0]) > 1.5, np.nan, val)
        return val, -pts

    cfg = HmcConfig(leapfrog_steps=3, step_size_low=1.0, step_size_high=1.0)
    x = np.zeros((50, 1))
    x2, accepted, _ = hmc_step(x, exploding, cfg, rng)
    # trajectories that hit the nan region must be rejected in place
    assert np.all(np.isfinite(x2))


# -------------------------------------------------- detailed-balance surrogate
@pytest.mark.parametrize("kind", ["mh", "hmc"])
def test_chain_matches_exact_draws_via_mmd_permutation(kind):
    rng = RngStream(17, 0)
    dim = 2
    x = rng.normal((60, dim))
    draws = []
    # trajectory length ~ pi/2 decorrelates Gaussian phase space in one step
    cfg = HmcConfig(leapfrog_steps=5, step_size_low=0.31, step_size_high=0.31)
    for step in range(120):
        if kind == "mh":
            x, _, _ = mh_step(x, lambda pts: -0.5 * np.sum(pts**2, axis=1), 1.2, rng)
        else:
            x, _, _ = hmc_step(x, gaussian_fused, cfg, rng)
        if step >= 40 and step % 5 == 0:  # thin
            draws.append(x.copy())
    chain = np.concatenate(draws)[:600]
    exact = RngStream(18, 0).normal((600, dim))
    observed = mmd(chain, exact)

    pooled = np.concatenate([chain, exact])
    perm_rng = RngStream(19, 0)
    null = []
    for _ in range(100):
        perm = np.argsort(perm_rng.uniform(size=len(pooled)))
        shuffled = pooled[perm]
        null.append(mmd(shuffled[:600], shuffled[600:]))
    assert observed < np.quantile(null, 0.95)
