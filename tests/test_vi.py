import math

import numpy as np
import pytest
from scipy.integrate import quad

from samplebench.errors import TrainingError, UsageError
from samplebench.numerics import AdamState, RngStream, Tape, adam_step
from samplebench.numerics.logspace import LOG_2PI
from samplebench.targets import (
    DiagonalGaussian,
    TargetDensity,
    make_gaussian_target,
    make_mog_target,
    make_mos_target,
)
from samplebench.metrics import weight_criteria
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
    assert np.mean(trace[-50:]) == pytest.approx(0.0, abs=0.01)


def test_checkpoint_fires_at_a_mark_whose_step_is_skipped():
    # a non-finite ELBO skips the update, not the evaluation due at that iteration
    target = make_gaussian_target(1)
    fused, calls = target.score_hvp, []

    def nan_on_third_call(x):
        calls.append(len(x))
        val, grad, hvp = fused(x)
        return (np.full_like(val, np.nan) if len(calls) == 3 else val), grad, hvp

    target.score_hvp = nan_on_third_call
    fired = []
    mfvi_train(target, 1.0, 8, 4, 0.05, RngStream(8, 0), checkpoints=[2, 3, 4],
               checkpoint_hook=lambda it, q: fired.append((it, q.mean.copy())))
    assert [it for it, _ in fired] == [2, 3, 4]
    assert np.array_equal(fired[0][1], fired[1][1])  # iteration 3 made no update


def test_mfvi_updates_q_arrays_in_place():
    # every checkpoint sees the same mean and log_std objects, and they move
    held = []
    q, _ = mfvi_train(make_gaussian_target(2, mean=1.0), 2.0, 16, 5, 0.05, RngStream(9, 0),
                      checkpoints=[1, 5],
                      checkpoint_hook=lambda it, q: held.append((q.mean, q.log_std,
                                                                 q.mean.copy())))
    for mean, log_std, _ in held:
        assert mean is q.mean and log_std is q.log_std
    assert not np.array_equal(held[0][2], q.mean)
    assert not np.array_equal(q.log_std, np.full(2, np.log(2.0)))


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
    assert weight_criteria(lw, False)[2] == 0.0


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
    val, grad, _ = target.query(x.value, score=True)
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


def _radius_target(radius):
    """A standard normal cut off at `radius`: log gamma is -inf beyond it."""
    def fused(x):
        val = -0.5 * np.sum(x**2, axis=1)
        return np.where(np.linalg.norm(x, axis=1) < radius, val, -np.inf), -x, None

    return TargetDensity(2, lambda x: fused(x)[0], fused)


def test_mfvi_diverges_at_the_third_non_finite_elbo_in_a_row():
    # at std 1e6 every draw lies beyond the radius: two skipped steps pass, the third raises
    target = _radius_target(1.0)
    _, trace = mfvi_train(target, 1e6, 4, 2, 0.01, RngStream(9, 0))
    assert trace == [-np.inf, -np.inf]
    with pytest.raises(TrainingError, match="MFVI diverged at iteration 3"):
        mfvi_train(target, 1e6, 4, 3, 0.01, RngStream(9, 0))


def test_mfvi_finite_elbo_resets_the_divergence_streak():
    target = make_gaussian_target(2)
    fused, calls = target.score_hvp, []

    def inf_on_some_calls(x):
        calls.append(len(x))
        val, grad, hvp = fused(x)
        val = np.full_like(val, -np.inf) if len(calls) in (1, 2, 4, 5, 7, 8, 9) else val
        return val, grad, hvp

    target.score_hvp = inf_on_some_calls
    _, trace = mfvi_train(target, 1.0, 8, 8, 0.05, RngStream(8, 0))
    assert [bool(np.isfinite(e)) for e in trace] == [False, False, True, False, False,
                                                     True, False, False]
    calls.clear()
    with pytest.raises(TrainingError, match="MFVI diverged at iteration 9"):
        mfvi_train(target, 1.0, 8, 9, 0.05, RngStream(8, 0))


# ------------------------------------------ bit-identity with the former loop
# mfvi_train as it stood when it took its gradient from the autodiff tape, kept
# verbatim as the reference for the closed-form gradient, apart from its Adam
# update, which now takes the list of q's arrays, and its trace, which is now a
# plain list of ELBO estimates.
def _reference_mfvi_train(target, init_scale, batch_size, iterations, learning_rate, rng):
    q = DiagonalGaussian.isotropic(target.dim, init_scale)
    adam = AdamState.init([q.mean, q.log_std], learning_rate=learning_rate)
    trace = []
    bad_streak = 0

    for it in range(1, iterations + 1):
        eps = rng.normal((batch_size, target.dim))
        tape = Tape()
        mean = tape.leaf(q.mean)
        log_std = tape.leaf(q.log_std)
        x = mean + log_std.exp() * eps
        xv = x.value
        gamma_val, gamma_grad, _ = target.query(xv, score=True)
        log_gamma = tape.custom(
            gamma_val, [x], lambda adj, g=gamma_grad: (adj[:, None] * g,), op="log_gamma"
        )
        # log q at its own sample reduces to -sum(log_std) - |eps|^2/2 - const
        log_q = log_std.sum() * -1.0 - 0.5 * target.dim * LOG_2PI \
            - 0.5 * float(np.mean(np.sum(eps**2, axis=1)))
        loss = log_gamma.mean() * -1.0 + log_q
        elbo_est = -float(loss.value)
        trace.append(elbo_est)
        if not np.isfinite(elbo_est):  # skip the update; a mark still fires
            bad_streak += 1
            if bad_streak >= 3:
                raise TrainingError(f"MFVI diverged at iteration {it}")
        else:
            bad_streak = 0
            g_mean, g_ls = tape.grad(loss, [mean, log_std])
            adam_step([q.mean, q.log_std], [g_mean, g_ls], adam)
    return q, trace


REFERENCE_TARGETS = {
    "mog_d2": (lambda: make_mog_target(2, seed=0), 60.0),
    "mog_d50": (lambda: make_mog_target(50, seed=0), 60.0),
    "mos_d2": (lambda: make_mos_target(2, seed=0), 15.0),
}


@pytest.mark.parametrize("batch_size", [1, 37, 512])
@pytest.mark.parametrize("target_name", sorted(REFERENCE_TARGETS))
def test_mfvi_closed_form_bitwise_equals_tape_loop(target_name, batch_size):
    make, sigma0 = REFERENCE_TARGETS[target_name]
    target = make()
    q, trace = mfvi_train(target, sigma0, batch_size, 200, 5e-2, RngStream(11, 0))
    ref_q, ref_trace = _reference_mfvi_train(target, sigma0, batch_size, 200, 5e-2,
                                             RngStream(11, 0))
    assert q.mean.tobytes() == ref_q.mean.tobytes()
    assert q.log_std.tobytes() == ref_q.log_std.tobytes()
    assert np.array(trace).tobytes() == np.array(ref_trace).tobytes()
    assert np.all(np.isfinite(trace))
