"""Geometric annealing path and MCMC transition kernels.

The annealed family is gamma_t(x) = pi0(x)^(1-beta_t) * gamma(x)^beta_t on a
strictly increasing beta grid with endpoints exactly 0 and 1.  Kernels are
vectorized over chains; each fused target query counts one NFE per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .numerics.rng import RngStream
from .targets.base import TargetDensity
from .targets.gaussian import DiagonalGaussian


@dataclass
class AnnealedPath:
    proposal: DiagonalGaussian
    target: TargetDensity
    betas: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float)
        if b[0] != 0.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
            raise UsageError("betas must increase strictly from exactly 0 to exactly 1")
        self.betas = b

    @classmethod
    def linear(cls, proposal, target, n_steps: int) -> "AnnealedPath":
        return cls(proposal, target, np.linspace(0.0, 1.0, n_steps + 1))

    @property
    def n_steps(self) -> int:
        return len(self.betas) - 1


def target_query(target: TargetDensity, x, with_grad: bool):
    """The raw query (log gamma, grad log gamma or None) at x; one NFE per point."""
    if with_grad:
        return target.logdensity_and_grad(x)
    return target.log_density(x), None


def annealed_logdensity(path: AnnealedPath, t: int, x, with_grad: bool = True, query=None):
    """(1-beta_t) log pi0 + beta_t log gamma and its gradient.

    `query` is a raw target query at x already made (see `target_query`); without
    one the target is queried here, and only when beta_t > 0, so tempering at
    the proposal endpoint is free.
    """
    if not 0 <= t <= path.n_steps:
        raise UsageError(f"temperature index {t} outside [0, {path.n_steps}]")
    beta = path.betas[t]
    lp0 = path.proposal.log_density(x)
    if beta == 0.0:
        return (lp0, path.proposal.grad_log_density(x)) if with_grad else lp0
    lg, gg = target_query(path.target, x, with_grad) if query is None else query
    value = (1.0 - beta) * lp0 + beta * lg
    return (value, annealed_score(path, t, x, gg)) if with_grad else value


def annealed_score(path: AnnealedPath, t: int, x, grad_log_gamma):
    """The gradient of `annealed_logdensity` at x, from the target score there; no NFE."""
    beta = path.betas[t]
    return (1.0 - beta) * path.proposal.grad_log_density(x) + beta * grad_log_gamma


@dataclass
class HmcConfig:
    leapfrog_steps: int = 10
    step_size_low: float = 0.2    # used while beta_t < 0.5
    step_size_high: float = 0.2   # used once beta_t >= 0.5

    def __post_init__(self):
        if self.leapfrog_steps < 1 or self.step_size_low <= 0 or self.step_size_high <= 0:
            raise UsageError("leapfrog_steps >= 1 and positive step sizes required")

    def step_size(self, beta: float) -> float:
        return self.step_size_high if beta >= 0.5 else self.step_size_low


@dataclass
class MhConfig:
    n_substeps: int = 10          # one eval each; the move's query also gives the next reweight
    scale_low: float = 1.0
    scale_high: float = 1.0

    def __post_init__(self):
        if self.n_substeps < 1 or self.scale_low <= 0 or self.scale_high <= 0:
            raise UsageError("n_substeps >= 1 and positive scales required")

    def scale(self, beta: float) -> float:
        return self.scale_high if beta >= 0.5 else self.scale_low


def mh_step(x, logdensity, proposal_scale, rng: RngStream, current_logdensity=None):
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


def _leapfrog(x, p, eps, n_steps, fused, val0, grad0, score=None):
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


def hmc_step(x, fused_logdensity_and_grad, cfg: HmcConfig, rng: RngStream, beta: float = 1.0,
             current=None, score=None):
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
    xn, p, val, grad = _leapfrog(x, p0, eps, cfg.leapfrog_steps, fused_logdensity_and_grad,
                                 val0, grad0, score)
    h0 = -val0 + 0.5 * np.sum(p0**2, axis=1)
    h1 = -val + 0.5 * np.sum(p**2, axis=1)
    delta = h0 - h1
    delta = np.where(np.isfinite(delta), delta, -np.inf)  # non-finite energy: reject
    accepted = np.log(rng.uniform(size=len(x))) < delta
    new_x = np.where(accepted[:, None], xn, x)
    new_val = np.where(accepted, val, val0)
    new_grad = np.where(accepted[:, None], grad, grad0)
    return new_x, accepted, (new_val, new_grad)
