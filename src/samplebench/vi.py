"""Gaussian mean-field variational inference with reparameterized ELBO training."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingError
from .numerics.adam import AdamState, adam_step
from .numerics.logspace import LOG_2PI
from .numerics.rng import RngStream
from .targets.base import TargetDensity
from .targets.gaussian import DiagonalGaussian


@dataclass
class MfviTrace:
    elbo: list = field(default_factory=list)


def mfvi_train(target: TargetDensity, init_scale: float, batch_size: int, iterations: int,
               learning_rate: float, rng: RngStream, checkpoints=(),
               checkpoint_hook=None) -> tuple:
    """Adam ascent on the reparameterized ELBO estimate mean[log gamma(x) - log q(x)].

    With x_i = mean + std * eps_i, the loss -ELBO has the closed-form
    reparameterized gradient sum_i w_i in the mean and
    -1 + sum_i (w_i * eps_i) * std in log_std, where w_i = -grad log gamma(x_i) / n.
    q starts at mean 0 with every std `init_scale`, and Adam updates its mean and
    log_std arrays in place.  Returns (q, trace), q a DiagonalGaussian.
    `checkpoint_hook(iteration, q)` fires after the update at each iteration in
    `checkpoints`.
    """
    q = DiagonalGaussian.isotropic(target.dim, init_scale)
    adam = AdamState.init([q.mean, q.log_std], learning_rate=learning_rate)
    trace = MfviTrace()
    bad_streak = 0

    for it in range(1, iterations + 1):
        eps = rng.normal((batch_size, target.dim))
        std = np.exp(q.log_std)
        gamma_val, gamma_grad, _ = target.query(q.mean + std * eps, score=True)
        # log q at its own sample reduces to -sum(log_std) - |eps|^2/2 - const
        log_q = -np.sum(q.log_std) - 0.5 * target.dim * LOG_2PI \
            - 0.5 * float(np.mean(np.sum(eps**2, axis=1)))
        elbo_est = float(np.sum(gamma_val) * (1.0 / batch_size) - log_q)
        trace.elbo.append(elbo_est)
        if not np.isfinite(elbo_est):  # skip the update; a mark still fires
            bad_streak += 1
            if bad_streak >= 3:
                raise TrainingError(f"MFVI diverged at iteration {it}")
        else:
            bad_streak = 0
            w = gamma_grad * -(1.0 / batch_size)  # d loss / d x_i
            g_mean, g_ls = w.sum(axis=0), -1.0 + (w * eps).sum(axis=0) * std
            adam_step([q.mean, q.log_std], [g_mean, g_ls], adam)
        if it in checkpoints:
            checkpoint_hook(it, q)
    return q, trace
