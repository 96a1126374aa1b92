import math

import numpy as np
import pytest
from scipy.integrate import quad

from samplebench.errors import UsageError
from samplebench.numerics import RngStream, Tape
from samplebench.targets import DiagonalGaussian, make_gaussian_target, make_mog_target
from samplebench.vi import mfvi_train


def test_logdensity_standard_at_zero():
    q = DiagonalGaussian(np.zeros(1), np.zeros(1))
    assert q.log_density(np.zeros((1, 1)))[0] == pytest.approx(-0.918939, abs=1e-6)


def test_logdensity_rejects_wrong_dimension():
    q = DiagonalGaussian(np.zeros(2), np.zeros(2))
    with pytest.raises(UsageError, match="dimension mismatch"):
        q.log_density(np.zeros((4, 3)))


def test_logdensity_shift_invariance():
    rng = RngStream(1, 0)
    m = rng.normal(3)
    delta = rng.normal(3)
    q_shift = DiagonalGaussian(m, np.full(3, 0.3))
    q_zero = DiagonalGaussian(np.zeros(3), np.full(3, 0.3))
    assert q_shift.log_density((m + delta)[None, :])[0] == pytest.approx(
        q_zero.log_density(delta[None, :])[0], abs=1e-12
    )


def test_logdensity_integrates_to_one():
    q = DiagonalGaussian(np.array([0.4]), np.array([-0.2]))
    val, _ = quad(lambda x: math.exp(q.log_density(np.array([[x]]))[0]), -10, 10,
                  epsabs=1e-12)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_mfvi_converges_on_standard_normal():
    target = make_gaussian_target(1)
    q, trace = mfvi_train(target, init_scale=3.0, batch_size=128, iterations=2500,
                          learning_rate=0.02, rng=RngStream(2, 0))
    assert abs(q.mean[0]) < 0.05
    assert abs(q.log_std[0]) < 0.05
    assert np.mean(trace.elbo[-50:]) == pytest.approx(0.0, abs=0.01)


def test_checkpoint_fires_at_a_mark_whose_step_is_skipped():
    # a non-finite ELBO skips the update, not the evaluation due at that iteration
    target = make_gaussian_target(1)
    fused, calls = target.log_unnorm_and_grad, []

    def nan_on_third_call(x):
        calls.append(len(x))
        val, grad = fused(x)
        return (np.full_like(val, np.nan) if len(calls) == 3 else val), grad

    target.log_unnorm_and_grad = nan_on_third_call
    fired = []
    mfvi_train(target, 1.0, 8, 4, 0.05, RngStream(8, 0), checkpoints=[2, 3, 4],
               checkpoint_hook=lambda it, q: fired.append((it, q.mean.copy())))
    assert [it for it, _ in fired] == [2, 3, 4]
    assert np.array_equal(fired[0][1], fired[1][1])  # iteration 3 made no update


def test_mfvi_elbo_below_log_z():
    # ELBO estimate <= true log Z (= 0) up to 3 SE, at arbitrary parameters
    target = make_mog_target(2, seed=3)
    rng = RngStream(4, 0)
    for rep in range(20):
        q = DiagonalGaussian(rng.normal(2) * 5.0, rng.normal(2) * 0.5 + 1.0)
        x = q.sample(rng, 500)
        lw = target.log_unnorm(x) - q.log_density(x)
        se = lw.std(ddof=1) / math.sqrt(len(lw))
        assert lw.mean() <= 0.0 + 3 * se


def test_reverse_logz_zero_when_target_is_q():
    # w = gamma/q with gamma := q exactly: log Z_r estimate is exactly 0
    q = DiagonalGaussian(np.array([0.7, -0.2]), np.array([0.1, -0.4]))
    x = q.sample(RngStream(5, 0), 400)
    lw = q.log_density(x) - q.log_density(x)
    from samplebench.metrics import WeightedSamples, log_z_estimates

    est, _ = log_z_estimates(WeightedSamples(x, lw, "reverse"))
    assert est == 0.0


def test_single_sample_gradient_matches_fd():
    target = make_mog_target(1, n_components=5, seed=6)
    rng = RngStream(7, 0)
    eps = rng.normal((1, 1))
    mean0 = np.array([0.5])
    ls0 = np.array([0.2])

    def elbo_at(mean, ls):
        x = mean + np.exp(ls) * eps
        lq = -float(np.sum(ls)) - 0.5 * math.log(2 * math.pi) - 0.5 * float(np.sum(eps**2))
        return float(target.log_unnorm(x)[0]) - lq

    tape = Tape()
    mean = tape.leaf(mean0)
    ls = tape.leaf(ls0)
    x = mean + ls.exp() * eps
    val, grad = target.logdensity_and_grad(x.value)
    log_gamma = tape.custom(val, [x], lambda adj, g=grad: (adj[:, None] * g,), "lg")
    # single-sample ELBO: log gamma(x) - log q(x) with log q = -sum(ls) - const
    elbo_var = log_gamma.sum() + ls.sum() + (0.5 * math.log(2 * math.pi)
                                             + 0.5 * float(np.sum(eps**2)))
    g_mean, g_ls = tape.grad(elbo_var, [mean, ls])

    h = 1e-6
    fd_mean = (elbo_at(mean0 + h, ls0) - elbo_at(mean0 - h, ls0)) / (2 * h)
    fd_ls = (elbo_at(mean0, ls0 + h) - elbo_at(mean0, ls0 - h)) / (2 * h)
    assert g_mean[0] == pytest.approx(fd_mean, rel=1e-4)
    assert g_ls[0] == pytest.approx(fd_ls, rel=1e-4)
