import math

import numpy as np
import pytest

from samplebench.errors import UsageError
from samplebench.kernels import (
    AnnealedPath,
    HmcConfig,
    MhConfig,
    _leapfrog,
    annealed_logdensity,
    hmc_step,
    mh_step,
)
from samplebench.metrics import mmd
from samplebench.numerics import RngStream
from samplebench.targets import (
    DiagonalGaussian,
    TargetDensity,
    make_gaussian_target,
    make_mog_target,
    make_mos_target,
    make_unnormalized_gaussian_target,
)

LOG_2PI = math.log(2 * math.pi)


def std_path(n_steps=8, dim=1, sigma0=1.0):
    return AnnealedPath.linear(
        DiagonalGaussian.isotropic(dim, sigma0), make_gaussian_target(dim), n_steps
    )


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
def last_temperature_path(target):
    """A one-step path, so pi_T at t = 1 is the target gamma itself."""
    return AnnealedPath(DiagonalGaussian.isotropic(target.dim), target, np.array([0.0, 1.0]))


def std_normal_path(dim=1):
    return last_temperature_path(make_unnormalized_gaussian_target(dim))


def mh_cfg(scale, n_substeps=1):
    return MhConfig(n_substeps=n_substeps, scale_low=scale, scale_high=scale)


def test_mh_uphill_always_accepted():
    rng = RngStream(2, 0)
    path = std_normal_path()
    # start far out: essentially every proposal toward the origin is uphill
    x = np.full((200, 1), 50.0)
    _, accepted, _ = mh_step(path, 1, x, path.target.query(x, score=False), mh_cfg(0.5), rng)
    prop_uphill = accepted.mean()
    assert prop_uphill > 0.45  # about half of proposals move inward, all accepted


def test_mh_tiny_scale_acceptance_near_one():
    rng = RngStream(3, 0)
    path = std_normal_path()
    x = rng.normal((100, 1))
    query = path.target.query(x, score=False)
    total = 0
    accepted_count = 0
    for _ in range(100):  # 10^4 steps at scale 1e-6
        x, accepted, query = mh_step(path, 1, x, query, mh_cfg(1e-6), rng)
        accepted_count += accepted.sum()
        total += len(accepted)
    assert accepted_count / total > 0.999


def test_mh_long_run_moments():
    rng = RngStream(4, 0)
    path = std_normal_path()
    x = rng.normal((100, 1))
    query = path.target.query(x, score=False)
    draws = []
    for step in range(1000):  # 10^5 total draws at the classic 2.4 scale
        x, _, query = mh_step(path, 1, x, query, mh_cfg(2.4), rng)
        if step >= 100:
            draws.append(x.copy())
    pooled = np.concatenate(draws).ravel()
    assert abs(pooled.mean()) < 0.05
    assert abs(pooled.var() - 1.0) < 0.1


# ------------------------------------------------------------------------ hmc
def _leapfrog_from(path, x, p, eps, n_steps):
    """The leapfrog at pi_T from (x, p); returns (x_L, p_L, the Hamiltonian at both ends)."""
    t = path.n_steps
    val0, score0 = annealed_logdensity(path, t, x)
    xn, pn, query = _leapfrog(path, t, x, p, eps, n_steps, score0)
    val = annealed_logdensity(path, t, xn, with_grad=False, query=query)
    return xn, pn, -val0 + 0.5 * np.sum(p**2, axis=1), -val + 0.5 * np.sum(pn**2, axis=1)


def test_leapfrog_reversibility():
    rng = RngStream(5, 0)
    path = std_normal_path(3)
    x0 = rng.normal((6, 3))
    p0 = rng.normal((6, 3))
    x1, p1, _, _ = _leapfrog_from(path, x0, p0, 0.15, 10)
    x2, p2, _, _ = _leapfrog_from(path, x1, -p1, 0.15, 10)
    np.testing.assert_allclose(x2, x0, atol=1e-8)
    np.testing.assert_allclose(-p2, p0, atol=1e-8)


def test_hmc_energy_error_quarters_when_step_halved():
    rng = RngStream(6, 0)
    path = std_normal_path(2)
    x0 = rng.normal((2000, 2))
    p0 = rng.normal((2000, 2))

    def mean_abs_dh(eps, n_steps):
        _, _, h0, h1 = _leapfrog_from(path, x0, p0, eps, n_steps)
        return np.abs(h1 - h0).mean()

    # halve the step while doubling the count: same integration time
    ratio = mean_abs_dh(0.2, 10) / mean_abs_dh(0.1, 20)
    assert ratio == pytest.approx(4.0, rel=0.2)


def test_hmc_long_run_moments_d10():
    rng = RngStream(7, 0)
    path = std_normal_path(10)
    cfg = HmcConfig(leapfrog_steps=10, step_size_low=0.5, step_size_high=0.5)
    x = rng.normal((100, 10)) * 2.0
    query = path.target.query(x, score=True)
    draws = []
    for step in range(1000):
        x, _, query = hmc_step(path, 1, x, query, cfg, rng)
        if step >= 100:
            draws.append(x.copy())
    pooled = np.concatenate(draws)
    per_coord_var = pooled.var(axis=0)
    assert np.all(np.abs(per_coord_var - 1.0) < 0.1)


def test_hmc_rejects_nonfinite_energy():
    cfg = HmcConfig(leapfrog_steps=3, step_size_low=0.8, step_size_high=0.8)
    x = np.zeros((50, 1))
    for bad in (np.nan, np.inf):  # an inf value is a -inf energy, which would always accept

        def exploding(pts, bad=bad):
            val = -0.5 * np.sum(pts**2, axis=1)
            val = np.where(np.abs(pts[:, 0]) > 1.5, bad, val)
            return val, -pts, None

        path = last_temperature_path(TargetDensity(1, lambda pts: exploding(pts)[0], exploding))
        x2, accepted, (lg, gg, _) = hmc_step(path, 1, x, path.target.query(x, score=True), cfg,
                                             RngStream(8, 0))
        # trajectories that end in the non-finite region must be rejected in place
        assert 0 < accepted.sum() < len(x)
        assert np.all(np.abs(x2) <= 1.5) and np.all(np.isfinite(lg))
        assert np.all(x2[~accepted] == 0.0) and np.all(gg[~accepted] == 0.0)


# --------------------------------------------- the raw query the sweep carries
CONTRACT_TARGETS = {
    "mog_d2": (lambda: make_mog_target(2, seed=0), 60.0),
    "mog_d50": (lambda: make_mog_target(50, seed=0), 60.0),
    "mos_d2": (lambda: make_mos_target(2, seed=0), 15.0),
}


@pytest.mark.parametrize("kind", ["hmc", "mh"])
@pytest.mark.parametrize("target_name", sorted(CONTRACT_TARGETS))
def test_kernels_return_the_fresh_query_at_x_prime_and_cost_n_times_steps(target_name, kind):
    # the sweep reads the returned query as the target's at x': accepted rows take
    # the proposal's, rejected rows keep x's, and one call costs n queries per step
    make, sigma0 = CONTRACT_TARGETS[target_name]
    target = make()
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(target.dim, sigma0), target, 4)
    n, steps = 37, 4
    x = path.proposal.sample(RngStream(1, 0), n)
    score = kind == "hmc"
    step, cfg = ((hmc_step, HmcConfig(leapfrog_steps=steps, step_size_low=2.0, step_size_high=2.0))
                 if score else (mh_step, mh_cfg(10.0, steps)))
    query = target.query(x, score=score)
    target.nfe.reset()
    x2, accepted, new = step(path, 2, x, query, cfg, RngStream(2, 0))
    cost = target.nfe.value
    fresh = target.query(x2, score=score)
    assert cost == n * steps
    assert 0 < accepted.sum() < n
    assert np.all(x2[~accepted] == x[~accepted])
    assert new[2] is None and (new[1] is None) == (not score)
    for got, want, kept in zip(new[:2] if score else new[:1], fresh, query):
        assert got.tobytes() == want.tobytes()
        assert got[~accepted].tobytes() == kept[~accepted].tobytes()


# -------------------------------------------------- detailed-balance surrogate
@pytest.mark.parametrize("kind", ["mh", "hmc"])
def test_chain_matches_exact_draws_via_mmd_permutation(kind):
    rng = RngStream(17, 0)
    dim = 2
    x = rng.normal((60, dim))
    draws = []
    # trajectory length ~ pi/2 decorrelates Gaussian phase space in one step
    cfg = HmcConfig(leapfrog_steps=5, step_size_low=0.31, step_size_high=0.31)
    path = std_normal_path(dim)
    query = path.target.query(x, score=kind == "hmc")
    for step in range(120):
        if kind == "mh":
            x, _, query = mh_step(path, 1, x, query, mh_cfg(1.2), rng)
        else:
            x, _, query = hmc_step(path, 1, x, query, cfg, rng)
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
