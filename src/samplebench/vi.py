"""Gaussian mean-field variational inference with reparameterized ELBO training."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import TrainingError, UsageError
from .numerics.adam import AdamState, adam_step
from .numerics.logspace import LOG_2PI
from .numerics.rng import RngStream
from .numerics.tape import Tape
from .targets.base import TargetDensity


@dataclass
class MeanFieldGaussian:
    mean: np.ndarray
    log_std: np.ndarray

    @classmethod
    def init(cls, dim: int, scale: float = 1.0) -> "MeanFieldGaussian":
        # paper-style initialization: mean at 0, spread set by the target support
        return cls(np.zeros(dim), np.full(dim, np.log(float(scale))))

    @property
    def dim(self) -> int:
        return len(self.mean)

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        return self.mean + np.exp(self.log_std) * rng.normal((n, self.dim))


def mfvi_logdensity(q: MeanFieldGaussian, x):
    """Exact normalized log N(x | mean, diag(exp(2 log_std)))."""
    single = np.ndim(x) == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != q.dim:
        raise UsageError(f"dimension mismatch: {x.shape[1]} != {q.dim}")
    z = (x - q.mean) / np.exp(q.log_std)
    out = -0.5 * np.sum(z**2, axis=1) - np.sum(q.log_std) - 0.5 * q.dim * LOG_2PI
    return float(out[0]) if single else out


@dataclass
class MfviTrace:
    elbo: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)


def mfvi_train(target: TargetDensity, init_scale: float, batch_size: int, iterations: int,
               learning_rate: float, rng: RngStream, checkpoint_hook=None,
               n_checkpoints: int = 0, q: Optional[MeanFieldGaussian] = None) -> tuple:
    """Adam ascent on the reparameterized ELBO estimate mean[log gamma(x) - log q(x)].

    Returns (q, trace).  `checkpoint_hook(iteration, q)` fires at evenly spaced
    iterations when given.
    """
    q = q or MeanFieldGaussian.init(target.dim, init_scale)
    adam = AdamState.init(2 * target.dim, learning_rate=learning_rate)
    trace = MfviTrace()
    checkpoint_iters = set()
    if checkpoint_hook is not None and n_checkpoints > 0:
        # a set, not np.unique: np.unique imports numpy.ma on first use
        marks = np.linspace(1, max(iterations, 1), n_checkpoints).astype(int)
        checkpoint_iters = set(marks.tolist())
    bad_streak = 0

    for it in range(1, iterations + 1):
        eps = rng.normal((batch_size, target.dim))
        tape = Tape()
        mean = tape.leaf(q.mean)
        log_std = tape.leaf(q.log_std)
        x = mean + log_std.exp() * eps
        xv = x.value
        gamma_val, gamma_grad = target.logdensity_and_grad(xv)
        log_gamma = tape.custom(
            gamma_val, [x], lambda adj, g=gamma_grad: (adj[:, None] * g,), op="log_gamma"
        )
        # log q at its own sample reduces to -sum(log_std) - |eps|^2/2 - const
        log_q = log_std.sum() * -1.0 - 0.5 * target.dim * LOG_2PI \
            - 0.5 * float(np.mean(np.sum(eps**2, axis=1)))
        loss = log_gamma.mean() * -1.0 + log_q
        elbo_est = -float(loss.value)
        trace.elbo.append(elbo_est)
        if not np.isfinite(elbo_est):
            bad_streak += 1
            if bad_streak >= 3:
                raise TrainingError(f"MFVI diverged at iteration {it}")
            continue
        bad_streak = 0
        g_mean, g_ls = tape.grad(loss, [mean, log_std])
        packed, adam = adam_step(np.concatenate([q.mean, q.log_std]),
                                 np.concatenate([g_mean, g_ls]), adam)
        q.mean, q.log_std = packed[: target.dim], packed[target.dim :]
        if it in checkpoint_iters:
            checkpoint_hook(it, q)
            trace.checkpoints.append(it)
    return q, trace
