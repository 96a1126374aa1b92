import itertools
import math

import numpy as np
import pytest

from samplebench import sis
from samplebench.errors import DegenerateWeightsError, TrainingError, UsageError
from samplebench.kernels import (
    AnnealedPath,
    HmcConfig,
    MhConfig,
    annealed_logdensity,
)
from samplebench.numerics import AdamState, RngStream, Tape, adam_step
from samplebench.numerics.logspace import ess_fraction, log_mean_exp, log_sum_exp
from samplebench.sis import (
    AffineFlow,
    ParticleSystem,
    backward_transport_logweights,
    craft_train,
    resample_multinomial,
    smc_run,
)
from samplebench.targets import (
    DiagonalGaussian,
    TargetDensity,
    make_gaussian_target,
    make_mog_target,
    make_mos_target,
    make_unnormalized_gaussian_target,
)


def hmc_cfg(step=0.3):
    return HmcConfig(leapfrog_steps=10, step_size_low=step, step_size_high=step)


# --------------------------------------------------------------- ess fraction
def test_ess_uniform_weights():
    assert ess_fraction(np.zeros(10)) == pytest.approx(1.0)


def test_ess_one_hot():
    lw = np.full(8, -np.inf)
    lw[3] = 0.0
    assert ess_fraction(lw) == pytest.approx(1.0 / 8.0)


def test_ess_2110():
    assert ess_fraction(np.log([2.0, 1.0, 1.0, 1e-12])) == pytest.approx(2.0 / 3.0, rel=1e-6)


# ----------------------------------------------------------------- resampling
def test_resample_uniform_keeps_uniform_weights():
    rng = RngStream(1, 0)
    ps = ParticleSystem(rng.normal((20, 2)), np.zeros(20))
    out = resample_multinomial(ps, rng)
    assert out.n_particles == 20
    np.testing.assert_allclose(out.log_weights, 0.0, atol=1e-12)
    # every output row must be one of the inputs
    for row in out.positions:
        assert any(np.array_equal(row, orig) for orig in ps.positions)


def test_resample_one_hot_copies_single_particle():
    rng = RngStream(2, 0)
    positions = np.arange(10, dtype=float)[:, None]
    lw = np.full(10, -np.inf)
    lw[4] = 0.0
    out = resample_multinomial(ParticleSystem(positions, lw), rng)
    np.testing.assert_array_equal(out.positions, np.full((10, 1), 4.0))


def test_resample_binomial_concentration():
    # N = 10^4 particles at two sites with weights (3/4, 1/4): copy counts land
    # within 4 binomial sigmas of (7500, 2500)
    rng = RngStream(3, 0)
    n = 10_000
    ps = ParticleSystem(
        np.repeat(np.array([[0.0], [1.0]]), n // 2, axis=0),
        np.repeat(np.log([0.75 / (n // 2), 0.25 / (n // 2)]), n // 2),
    )
    out = resample_multinomial(ps, rng)
    n_zero = np.sum(out.positions == 0.0)
    sigma = math.sqrt(n * 0.75 * 0.25)
    assert abs(n_zero - 0.75 * n) < 4 * sigma


def test_resample_preserves_mass_and_resets_ess():
    rng = RngStream(4, 0)
    lw = RngStream(5, 0).normal(50)
    ps = ParticleSystem(RngStream(6, 0).normal((50, 3)), lw)
    out = resample_multinomial(ps, rng)
    assert ess_fraction(out.log_weights) == pytest.approx(1.0)
    # total mass preserved: N * mean(w) carried into every weight
    assert log_sum_exp(out.log_weights) == pytest.approx(log_sum_exp(lw), abs=1e-9)


# ------------------------------------------------------------------- smc runs
def test_smc_identical_endpoints_never_resamples():
    # gamma normalized equal to pi0: all increments vanish
    target = make_gaussian_target(2)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2), target, 6)
    res = smc_run(path, hmc_cfg(0.5), 64, RngStream(7, 0))
    assert res.log_z == pytest.approx(0.0, abs=1e-12)
    assert res.elbo == pytest.approx(0.0, abs=1e-12)
    assert all(d["ess_fraction"] == pytest.approx(1.0) for d in res.diagnostics)
    assert not any(d["resampled"] for d in res.diagnostics)


def test_smc_gaussian_to_gaussian_unbiased():
    # pi0 = N(0, 2^2), gamma = exp(-x^2/2): Z = sqrt(2 pi)
    target = make_unnormalized_gaussian_target(1, scale=1.0)
    true_z = math.sqrt(2 * math.pi)
    estimates = []
    for run in range(100):
        path = AnnealedPath.linear(DiagonalGaussian.isotropic(1, 2.0), target, 8)
        res = smc_run(path, hmc_cfg(0.5), 64, RngStream(1000, run))
        estimates.append(math.exp(res.log_z))
    estimates = np.asarray(estimates)
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    assert abs(estimates.mean() - true_z) < 3 * se + 1e-12


def test_smc_no_resampling_logz_identity():
    target = make_unnormalized_gaussian_target(2, scale=1.5)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 3.0), target, 10)
    res = smc_run(path, hmc_cfg(0.4), 128, RngStream(8, 0), resample_threshold=0.0)
    lw = res.particles.log_weights
    assert res.log_z == pytest.approx(log_sum_exp(lw) - math.log(len(lw)), abs=1e-12)


def test_smc_degenerate_weights_error():
    target = make_gaussian_target(1)
    bad = make_gaussian_target(1)
    bad.log_unnorm = lambda x: np.full(len(np.atleast_2d(x)), -np.inf)
    bad.score_hvp = lambda x: (bad.log_unnorm(x), np.zeros_like(x), None)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(1), bad, 4)
    with pytest.raises(DegenerateWeightsError) as err:
        smc_run(path, hmc_cfg(), 16, RngStream(9, 0))
    assert err.value.temperature_index == 1


def test_smc_weight_update_enumeration_oracle():
    # 3 temperatures on a 2-point state space: sum over paths of q * w equals
    # sum_x gamma(x) exactly, with pi_t-invariant Metropolis moves
    pi0 = np.array([0.5, 0.5])
    gamma = np.array([0.2, 1.7])
    betas = np.array([0.0, 0.35, 0.7, 1.0])
    log_pi0 = np.log(pi0)
    log_gamma = np.log(gamma)

    def gamma_t(beta):
        return np.exp((1 - beta) * log_pi0 + beta * log_gamma)

    def metropolis_kernel(beta):
        dens = gamma_t(beta)
        k = np.zeros((2, 2))
        for i in range(2):
            j = 1 - i
            move = 0.5 * min(1.0, dens[j] / dens[i])
            k[i, j] = move
            k[i, i] = 1.0 - move
        return k

    kernels = [metropolis_kernel(b) for b in betas[1:]]
    total = 0.0
    for path_states in itertools.product([0, 1], repeat=4):
        q = pi0[path_states[0]]
        log_w = 0.0
        for t in range(1, 4):
            prev = path_states[t - 1]
            log_w += (betas[t] - betas[t - 1]) * (log_gamma[prev] - log_pi0[prev])
            q *= kernels[t - 1][prev, path_states[t]]
        total += q * math.exp(log_w)
    assert total == pytest.approx(gamma.sum(), abs=1e-12)


# ---------------------------------------------------------------- affine flow
def test_affine_flow_roundtrip_1000():
    rng = RngStream(10, 0)
    for _ in range(1000):
        d = int(rng.integers(5)) + 1
        flow = AffineFlow(rng.normal(d), 0.5 * rng.normal(d))
        x = rng.normal(d)
        err = np.max(np.abs(flow.inverse(flow.apply(x)) - x))
        assert err < 1e-9


def test_affine_flow_logdet():
    flow = AffineFlow(np.zeros(3), np.full(3, math.log(2.0)))
    assert flow.log_det == pytest.approx(3 * math.log(2.0))
    ident = AffineFlow.identity(4)
    assert ident.log_det == 0.0
    np.testing.assert_array_equal(ident.apply(np.arange(4.0)), np.arange(4.0))


def test_identity_flow_reduces_to_ais_increment():
    target = make_unnormalized_gaussian_target(2, scale=1.5)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 3.0), target, 5)
    flows = [AffineFlow.identity(2) for _ in range(5)]
    res_flow = smc_run(path, hmc_cfg(0.4), 64, RngStream(11, 0), flows=flows,
                       resample_threshold=0.0)
    res_ais = smc_run(path, hmc_cfg(0.4), 64, RngStream(11, 0), resample_threshold=0.0)
    assert res_flow.log_z == pytest.approx(res_ais.log_z, abs=1e-9)
    np.testing.assert_allclose(res_flow.particles.log_weights,
                               res_ais.particles.log_weights, atol=1e-9)


# ---------------------------------------------------------- backward transport
def test_backward_identical_endpoints_constant_weights():
    target = make_gaussian_target(2)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2), target, 6)
    samples = target.exact_sampler(RngStream(12, 0), 200)
    lw = backward_transport_logweights(path, hmc_cfg(0.5), samples, RngStream(13, 0))
    np.testing.assert_allclose(lw, 0.0, atol=1e-12)  # log Z = 0, optimal increments


def test_backward_single_step_is_plain_importance_weight():
    target = make_unnormalized_gaussian_target(1, scale=1.3)
    path = AnnealedPath(DiagonalGaussian.isotropic(1, 2.0), target, np.array([0.0, 1.0]))
    samples = target.exact_sampler(RngStream(14, 0), 50)
    lw = backward_transport_logweights(path, hmc_cfg(0.5), samples, RngStream(15, 0))
    expected = target.log_unnorm(samples) - path.proposal.log_density(samples)
    np.testing.assert_allclose(lw, expected, atol=1e-12)


@pytest.mark.parametrize("flows", [False, True])
def test_backward_sweep_makes_one_move_fewer_than_temperatures(monkeypatch, flows):
    # the weights are complete after the t = 1 increment; no move towards pi_0 follows
    big_t = 5
    target = make_mog_target(2, seed=0)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 60.0), target, big_t)
    moved_to = []
    move = sis._mcmc_move

    def counting_move(x, path, t, *args):
        moved_to.append(t)
        return move(x, path, t, *args)

    monkeypatch.setattr(sis, "_mcmc_move", counting_move)
    samples = target.exact_sampler(RngStream(18, 0), 10)
    flow_list = [AffineFlow.identity(2) for _ in range(big_t)] if flows else None
    backward_transport_logweights(path, hmc_cfg(0.5), samples, RngStream(19, 0), flows=flow_list)
    assert moved_to == list(range(big_t - 1, 0, -1))


def test_hmc_move_builds_pi_t_only_where_the_metropolis_test_reads_it(monkeypatch):
    # the inner leapfrog positions x_1..x_{L-1} read the score alone; pi_t's value
    # is built at x and at the proposed point x_L, while each position costs 1 NFE
    target = make_mog_target(2, seed=0)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 60.0), target, 4)
    x = path.proposal.sample(RngStream(1, 0), 8)
    query = target.query(x, score=True)
    built = []
    log_density = path.proposal.log_density
    monkeypatch.setattr(path.proposal, "log_density",
                        lambda pts: built.append(len(pts)) or log_density(pts))
    target.nfe.reset()
    sis._mcmc_move(x, path, 2, hmc_cfg(0.5), RngStream(2, 0), query)
    assert built == [8, 8]
    assert target.nfe.value == 8 * hmc_cfg().leapfrog_steps


def test_backward_forward_z_identity_gaussian():
    # E_pi[1/w] = 1/Z exactly; batch means give an honest standard error
    target = make_unnormalized_gaussian_target(1, scale=1.0)
    true_z = math.sqrt(2 * math.pi)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(1, 2.0), target, 6)
    batch_means = []
    for rep in range(40):
        samples = target.exact_sampler(RngStream(16, rep), 2000)
        lw = backward_transport_logweights(path, hmc_cfg(0.5), samples, RngStream(17, rep))
        batch_means.append(np.exp(-lw).mean())
    batch_means = np.asarray(batch_means)
    se = batch_means.std(ddof=1) / math.sqrt(len(batch_means))
    assert abs(batch_means.mean() - 1.0 / true_z) < 3 * se


# ---------------------------------------------------------------- craft train
def test_craft_identity_flows_match_ais_at_init():
    target = make_unnormalized_gaussian_target(2, scale=1.5)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 2.0), target, 4)
    flows = [AffineFlow.identity(2) for _ in range(4)]
    # zero iterations of training leaves flows at identity
    trained, trace = craft_train(path, flows, hmc_cfg(0.4), 0, 32, RngStream(18, 0))
    for f in trained:
        np.testing.assert_array_equal(f.shift, np.zeros(2))
        np.testing.assert_array_equal(f.log_scale, np.zeros(2))


def test_craft_updates_each_flows_arrays_in_place():
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 2.0), make_gaussian_target(2), 3)
    flows = [AffineFlow.identity(2) for _ in range(3)]
    held = [(f.shift, f.log_scale) for f in flows]
    trained, _ = craft_train(path, flows, hmc_cfg(0.4), 3, 16, RngStream(20, 0),
                             learning_rate=5e-2)
    assert trained is flows
    for f, (shift, log_scale) in zip(flows, held):
        assert f.shift is shift and f.log_scale is log_scale
        assert np.any(shift != 0.0) and np.any(log_scale != 0.0)


def test_craft_training_improves_elbo_on_shifted_gaussian():
    # proposal N(0, 1), target N(3, 0.7^2): affine flows can bridge exactly
    rng = RngStream(19, 0)
    target = make_gaussian_target(2, scale=0.7, mean=3.0)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 1.0), target, 6)
    flows = [AffineFlow.identity(2) for _ in range(6)]
    trained, trace = craft_train(path, flows, hmc_cfg(0.25), 150, 128, rng,
                                 learning_rate=5e-2)
    assert np.mean(trace[-10:]) > np.mean(trace[:10]) + 0.05
    assert np.mean(trace[-10:]) > -0.2  # close to log Z = 0


@pytest.mark.parametrize("resampling", [True, False])
@pytest.mark.parametrize("kernel", ["hmc", "mh"])
def test_craft_zero_learning_rate_iteration_matches_flow_sweep(kernel, resampling):
    # training runs the evaluation sweep plus a flow update before each
    # reweight; with a zero step the update is a no-op, so one iteration's
    # mean log weight is that of smc_run on the same flows and stream
    target = make_gaussian_target(2, scale=0.7, mean=3.0)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 1.0), target, 6)
    rng = RngStream(20, 0)
    flows = [AffineFlow(0.3 * rng.normal(2), 0.1 * rng.normal(2)) for _ in range(6)]
    cfg = hmc_cfg(0.3) if kernel == "hmc" else MhConfig(n_substeps=3, scale_low=0.5,
                                                          scale_high=0.5)
    settings = {"resample_threshold": 0.9 if resampling else 0.0}
    res = smc_run(path, cfg, 64, RngStream(21, 0), flows=flows, **settings)
    _, trace = craft_train(path, flows, cfg, 1, 64, RngStream(21, 0), learning_rate=0.0,
                           **settings)
    assert any(d["resampled"] for d in res.diagnostics) == resampling
    assert trace[0] == pytest.approx(np.mean(res.particles.log_weights), abs=1e-12)


def test_craft_non_finite_tempered_density_is_a_training_error():
    # a standard normal cut off at radius 1; proposal draws at std 100 lie beyond it
    def fused(x):
        val = -0.5 * np.sum(x**2, axis=1)
        return np.where(np.linalg.norm(x, axis=1) < 1.0, val, -np.inf), -x, None

    target = TargetDensity(2, lambda x: fused(x)[0], fused)
    path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 100.0), target, 4)
    flows = [AffineFlow.identity(2) for _ in range(4)]
    with pytest.raises(TrainingError, match="non-finite CRAFT loss at temperature 1"):
        craft_train(path, flows, hmc_cfg(), 1, 16, RngStream(22, 0))


# ------------------------------------------ bit-identity with the former loops
# The AIS loops of smc_run and backward_transport_logweights as they stood
# before the shared sweep, kept verbatim (flow branches and the diagnostics
# switch dropped) as references for the sweep's AIS form, with the generic
# kernels they called, which took a density callable, kept verbatim below.
def _reference_mh_step(x, logdensity, proposal_scale, rng: RngStream, current_logdensity=None):
    """One Gaussian random-walk Metropolis step, vectorized over rows of x.

    Returns (x', accepted, logdensity at x').
    """
    if proposal_scale <= 0:
        raise UsageError("proposal_scale must be positive")
    lp = logdensity(x) if current_logdensity is None else np.asarray(current_logdensity)
    prop = x + proposal_scale * rng.normal(x.shape)
    lp_prop = logdensity(prop)
    log_u = np.log(rng.uniform(size=len(x)))
    accepted = log_u < (lp_prop - lp)
    new_x = np.where(accepted[:, None], prop, x)
    new_lp = np.where(accepted, lp_prop, lp)
    return new_x, accepted, new_lp


def _reference_leapfrog(x, p, eps, n_steps, fused, val0, grad0, score=None):
    """Leapfrog integration of H = -logdensity + |p|^2/2.

    The initial (value, gradient) is supplied by the caller; fresh queries
    happen only at the visited positions x_1..x_L.  The momentum updates at
    x_1..x_{L-1} read the gradient alone, from `score(x)` when given; the
    value is read only at x_L, for the Metropolis test.
    """
    p = p + 0.5 * eps * grad0
    xn = x
    for _ in range(n_steps - 1):
        xn = xn + eps * p
        p = p + eps * (fused(xn)[1] if score is None else score(xn))
    xn = xn + eps * p
    val, grad = fused(xn)
    p = p + 0.5 * eps * grad
    return xn, p, val, grad


def _reference_hmc_step(x, fused_logdensity_and_grad, cfg: HmcConfig, rng: RngStream,
                        beta: float = 1.0, current=None, score=None):
    """One HMC step with fresh momenta and a Metropolis correction on total energy.

    `current` may carry a cached (value, grad) at x to avoid re-querying, and
    `score` a gradient-only view of the density for the leapfrog's inner
    positions, where no value is read.
    Returns (x', accepted, (value, grad) at x').
    """
    eps = cfg.step_size(beta)
    if current is None:
        val0, grad0 = fused_logdensity_and_grad(x)
    else:
        val0, grad0 = current
    p0 = rng.normal(x.shape)
    xn, p, val, grad = _reference_leapfrog(x, p0, eps, cfg.leapfrog_steps,
                                           fused_logdensity_and_grad, val0, grad0, score)
    h0 = -val0 + 0.5 * np.sum(p0**2, axis=1)
    h1 = -val + 0.5 * np.sum(p**2, axis=1)
    delta = h0 - h1
    delta = np.where(np.isfinite(delta), delta, -np.inf)  # non-finite energy: reject
    accepted = np.log(rng.uniform(size=len(x))) < delta
    new_x = np.where(accepted[:, None], xn, x)
    new_val = np.where(accepted, val, val0)
    new_grad = np.where(accepted[:, None], grad, grad0)
    return new_x, accepted, (new_val, new_grad)


def _reference_move(x, path, t, kernel_cfg, rng, cached):
    beta = path.betas[t]
    if isinstance(kernel_cfg, HmcConfig):
        fused = lambda pts: annealed_logdensity(path, t, pts)
        new_x, accepted, cache = _reference_hmc_step(x, fused, kernel_cfg, rng, beta=beta,
                                                     current=cached)
        return new_x, accepted, cache
    if isinstance(kernel_cfg, MhConfig):
        logdensity = lambda pts: annealed_logdensity(path, t, pts, with_grad=False)
        lp = cached[0] if cached is not None else None
        accept_any = np.zeros(len(x), dtype=bool)
        for _ in range(kernel_cfg.n_substeps):
            x, accepted, lp = _reference_mh_step(x, logdensity, kernel_cfg.scale(beta), rng,
                                                 current_logdensity=lp)
            accept_any |= accepted
        return x, accept_any, (lp, None)
    raise UsageError(f"unknown kernel config {type(kernel_cfg).__name__}")


def _reference_smc_run(path, kernel_cfg, n_particles, rng, resample_threshold=0.3,
                       resampling_enabled=True):
    big_t = path.n_steps
    x = path.proposal.sample(rng, n_particles)
    log_w = np.zeros(n_particles)
    diagnostics = []
    needs_grad = isinstance(kernel_cfg, HmcConfig)

    for t in range(1, big_t + 1):
        beta_prev, beta = path.betas[t - 1], path.betas[t]
        # AIS increment (beta_t - beta_{t-1}) (log gamma - log pi0) at x_{t-1};
        # fused so the gradient doubles as the HMC initial state
        lp0 = path.proposal.log_density(x)
        lg, gg, _ = path.target.query(x, score=needs_grad)
        log_w = log_w + (beta - beta_prev) * (lg - lp0)
        if needs_grad:
            g0 = path.proposal.grad_log_density(x)
            cache_val = (1.0 - beta) * lp0 + beta * lg
            cache_grad = (1.0 - beta) * g0 + beta * gg
            cached = (cache_val, cache_grad)
        else:
            cached = ((1.0 - beta) * lp0 + beta * lg, None)

        if not np.isfinite(log_w).any():
            raise DegenerateWeightsError(t)

        ess = ess_fraction(log_w)
        resampled = False
        if resampling_enabled and ess < resample_threshold:
            carry = log_mean_exp(log_w)
            probs = np.exp(log_w - log_sum_exp(log_w))
            probs = probs / probs.sum()
            idx = rng.choice(n_particles, size=n_particles, p=probs)
            x = x[idx]
            log_w = np.full(n_particles, carry)
            cached = (cached[0][idx], cached[1][idx] if cached[1] is not None else None)
            resampled = True

        x, accepted, _ = _reference_move(x, path, t, kernel_cfg, rng, cached)
        diagnostics.append(
            {"t": t, "ess_fraction": ess, "resampled": resampled,
             "acceptance": float(np.mean(accepted))}
        )

    log_z = log_mean_exp(log_w)
    elbo = float(np.mean(log_w[np.isfinite(log_w)]))
    return x, log_w, float(log_z), elbo, diagnostics


def _reference_backward(path, kernel_cfg, target_samples, rng):
    x = np.atleast_2d(np.asarray(target_samples, dtype=float))
    big_t = path.n_steps
    log_w = np.zeros(len(x))
    for t in range(big_t, 0, -1):
        beta_prev, beta = path.betas[t - 1], path.betas[t]
        lp0 = path.proposal.log_density(x)
        lg = path.target.query(x, score=False)[0]
        log_w = log_w + (beta - beta_prev) * (lg - lp0)
        # move targeting pi_{t-1}
        if isinstance(kernel_cfg, HmcConfig):
            fused = lambda pts, s=t - 1: annealed_logdensity(path, s, pts)
            x, _, _ = _reference_hmc_step(x, fused, kernel_cfg, rng, beta=beta_prev)
        else:
            logdensity = lambda pts, s=t - 1: annealed_logdensity(path, s, pts, with_grad=False)
            lp = None
            for _ in range(kernel_cfg.n_substeps):
                x, _, lp = _reference_mh_step(x, logdensity, kernel_cfg.scale(beta_prev), rng,
                                              current_logdensity=lp)
    return log_w


REFERENCE_KERNELS = {
    "hmc": HmcConfig(leapfrog_steps=5, step_size_low=0.5, step_size_high=0.3),
    "mh": MhConfig(n_substeps=4, scale_low=2.0, scale_high=1.0),
}
REFERENCE_TARGETS = {
    "mog_d2": (lambda: make_mog_target(2, seed=0), 60.0),
    "mog_d50": (lambda: make_mog_target(50, seed=0), 60.0),
    "mos_d2": (lambda: make_mos_target(2, seed=0), 15.0),
}


def _reference_path(target_name):
    make, sigma0 = REFERENCE_TARGETS[target_name]
    target = make()
    return AnnealedPath.linear(DiagonalGaussian.isotropic(target.dim, sigma0), target, 12)


def _assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("resampling", [True, False])
@pytest.mark.parametrize("kernel", ["hmc", "mh"])
@pytest.mark.parametrize("target_name", sorted(REFERENCE_TARGETS))
def test_smc_run_ais_bitwise_equals_reference_loop(target_name, kernel, resampling):
    path = _reference_path(target_name)
    cfg = REFERENCE_KERNELS[kernel]
    res = smc_run(path, cfg, 64, RngStream(5, 1), resample_threshold=0.5 if resampling else 0.0)
    x, log_w, log_z, elbo, diagnostics = _reference_smc_run(
        path, cfg, 64, RngStream(5, 1), resample_threshold=0.5, resampling_enabled=resampling)
    _assert_bitwise(res.particles.positions, x)
    _assert_bitwise(res.particles.log_weights, log_w)
    assert (res.log_z, res.elbo) == (log_z, elbo)
    assert res.diagnostics == diagnostics
    assert any(d["resampled"] for d in diagnostics) == resampling


@pytest.mark.parametrize("kernel", ["hmc", "mh"])
@pytest.mark.parametrize("target_name", sorted(REFERENCE_TARGETS))
def test_backward_ais_bitwise_equals_reference_loop(target_name, kernel):
    path = _reference_path(target_name)
    cfg = REFERENCE_KERNELS[kernel]
    samples = path.target.exact_sampler(RngStream(3, 0), 50)
    lw = backward_transport_logweights(path, cfg, samples, RngStream(4, 0))
    _assert_bitwise(lw, _reference_backward(path, cfg, samples, RngStream(4, 0)))


@pytest.mark.parametrize("kernel", ["hmc", "mh"])
@pytest.mark.parametrize("target_name", sorted(REFERENCE_TARGETS))
def test_backward_ais_from_a_given_query_bitwise_equals_reference_loop(target_name, kernel):
    # the harness makes the fused query at the target samples once and passes it in
    path = _reference_path(target_name)
    cfg = REFERENCE_KERNELS[kernel]
    samples = path.target.exact_sampler(RngStream(3, 0), 50)
    query = path.target.query(samples, score=True)
    path.target.nfe.reset()
    lw = backward_transport_logweights(path, cfg, samples, RngStream(4, 0), query=query)
    steps = cfg.leapfrog_steps if kernel == "hmc" else cfg.n_substeps
    assert path.target.nfe.value == 50 * (path.n_steps - 1) * steps  # the moves alone
    _assert_bitwise(lw, _reference_backward(path, cfg, samples, RngStream(4, 0)))


# The sweep reads each target query the last move made at a row index, where the
# references query afresh at another: 37 rows do not fill BLAS row tiles evenly,
# and resampling at every temperature moves every particle to a new row.
@pytest.mark.parametrize("kernel", ["hmc", "mh"])
@pytest.mark.parametrize("target_name", sorted(REFERENCE_TARGETS))
def test_smc_run_ais_bitwise_with_uneven_rows_and_resampling_each_temperature(target_name,
                                                                             kernel):
    path = _reference_path(target_name)
    cfg = REFERENCE_KERNELS[kernel]
    res = smc_run(path, cfg, 37, RngStream(6, 2), resample_threshold=1.0)
    x, log_w, log_z, elbo, diagnostics = _reference_smc_run(path, cfg, 37, RngStream(6, 2),
                                                            resample_threshold=1.0)
    _assert_bitwise(res.particles.positions, x)
    _assert_bitwise(res.particles.log_weights, log_w)
    assert (res.log_z, res.elbo) == (log_z, elbo)
    assert res.diagnostics == diagnostics
    assert all(d["resampled"] for d in diagnostics)


@pytest.mark.parametrize("kernel", ["hmc", "mh"])
@pytest.mark.parametrize("target_name", sorted(REFERENCE_TARGETS))
def test_backward_ais_bitwise_with_uneven_rows(target_name, kernel):
    path = _reference_path(target_name)
    cfg = REFERENCE_KERNELS[kernel]
    samples = path.target.exact_sampler(RngStream(3, 1), 37)
    lw = backward_transport_logweights(path, cfg, samples, RngStream(4, 1))
    _assert_bitwise(lw, _reference_backward(path, cfg, samples, RngStream(4, 1)))


# craft_train as it stood when each flow update took its gradient from the
# autodiff tape, kept verbatim as the reference for the closed-form gradient,
# apart from its Adam update, which now takes the list of the flow's arrays.
def _reference_craft_train(path, flows, kernel_cfg, iterations, n_particles, rng,
                           learning_rate=1e-2, resample_threshold=0.3):
    adam_states = [AdamState.init([f.shift, f.log_scale], learning_rate=learning_rate)
                   for f in flows]

    def update_flow(t, x):
        # tape loss: - mean[ log gamma_t(T(x)) + log|det T| ]
        flow = flows[t - 1]
        tape = Tape()
        shift = tape.leaf(flow.shift)
        log_scale = tape.leaf(flow.log_scale)
        y = log_scale.exp() * x + shift
        val, grad = annealed_logdensity(path, t, y.value)
        dens = tape.custom(np.sum(val) / n_particles, [y],
                           lambda adj: (adj * grad / n_particles,), op="annealed_logdensity")
        loss = -(dens + log_scale.sum())
        if not np.isfinite(loss.value):
            raise TrainingError(f"non-finite CRAFT loss at temperature {t}")
        g_shift, g_ls = tape.grad(loss, [shift, log_scale])
        adam_step([flow.shift, flow.log_scale], [g_shift, g_ls], adam_states[t - 1])

    elbo_trace = []
    for it in range(1, iterations + 1):
        x = path.proposal.sample(rng, n_particles)
        ps, _ = sis._sweep(path, kernel_cfg, x, rng, flows,
                           resample_threshold=resample_threshold, before_reweight=update_flow)
        elbo_trace.append(float(np.mean(ps.log_weights)))
    return flows, elbo_trace


@pytest.mark.parametrize("kernel", ["hmc", "mh"])
@pytest.mark.parametrize("target_name", sorted(REFERENCE_TARGETS))
def test_craft_closed_form_bitwise_equals_tape_update(target_name, kernel):
    path = _reference_path(target_name)
    cfg = REFERENCE_KERNELS[kernel]
    flows, trace = craft_train(path, [AffineFlow.identity(path.target.dim)
                                      for _ in range(path.n_steps)],
                               cfg, 20, 37, RngStream(7, 3), learning_rate=5e-2)
    ref_flows, ref_trace = _reference_craft_train(path, [AffineFlow.identity(path.target.dim)
                                                         for _ in range(path.n_steps)],
                                                  cfg, 20, 37, RngStream(7, 3),
                                                  learning_rate=5e-2)
    for flow, ref in zip(flows, ref_flows):
        _assert_bitwise(flow.shift, ref.shift)
        _assert_bitwise(flow.log_scale, ref.log_scale)
    _assert_bitwise(np.array(trace), np.array(ref_trace))
    assert not np.array_equal(flows[0].shift, np.zeros(path.target.dim))


@pytest.mark.parametrize("kernel,target_name,n", [("hmc", "mog_d2", 37), ("mh", "mog_d50", 33)])
def test_resampling_false_is_threshold_zero_and_the_former_switch_bitwise(kernel, target_name,
                                                                          n, monkeypatch):
    # a config's `resampling: false` reaches the sweep as the threshold 0, which no
    # ESS fraction in (0, 1] falls below: SMC is bitwise the former loop with its
    # switch off, diagnostics included, and CRAFT training never resamples
    from samplebench.harness.registry import _smc_sampler

    path = _reference_path(target_name)
    cfg = REFERENCE_KERNELS[kernel]
    p = {"kernel": kernel, "leapfrog_steps": 5, "step_size_low": 0.5, "step_size_high": 0.3,
         "mh_substeps": 4, "scale_low": 2.0, "scale_high": 1.0, "n_steps": path.n_steps,
         "particles": n, "resample_threshold": 0.9, "resampling": False}
    sampler = _smc_sampler(p, path.proposal, path.target)
    assert (sampler.kernel_cfg, sampler.resample_threshold) == (cfg, 0.0)
    res = smc_run(sampler.path, sampler.kernel_cfg, n, RngStream(6, 2),
                  resample_threshold=sampler.resample_threshold)
    x, log_w, log_z, elbo, diagnostics = _reference_smc_run(
        path, cfg, n, RngStream(6, 2), resample_threshold=0.9, resampling_enabled=False)
    _assert_bitwise(res.particles.positions, x)
    _assert_bitwise(res.particles.log_weights, log_w)
    assert (res.log_z, res.elbo) == (log_z, elbo)
    assert res.diagnostics == diagnostics
    assert min(d["ess_fraction"] for d in diagnostics) < 0.9  # the switch, not the ESS, held

    def no_resampling(ps, rng):
        raise AssertionError("resampled at threshold 0")

    monkeypatch.setattr(sis, "resample_multinomial", no_resampling)
    flows = [AffineFlow.identity(path.target.dim) for _ in range(path.n_steps)]
    craft_train(sampler.path, flows, sampler.kernel_cfg, 3, n, RngStream(7, 3),
                learning_rate=5e-2, resample_threshold=sampler.resample_threshold)
