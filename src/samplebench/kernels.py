"""Geometric annealing path and MCMC transition kernels.

The annealed family is gamma_t(x) = pi0(x)^(1-beta_t) * gamma(x)^beta_t on a
strictly increasing beta grid with endpoints exactly 0 and 1.  The kernels
move chains (the rows of x) towards pi_t on that path.  Each is given the raw
target query at x (log gamma, with its gradient for HMC) and returns the one
at x', so a caller that carries the query never queries x again; pi_t and its
score follow from it and the analytic proposal.  Each target query counts one
NFE per point.
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


def mh_step(path: AnnealedPath, t: int, x, log_gamma, cfg: MhConfig, rng: RngStream):
    """`cfg.n_substeps` Gaussian random-walk Metropolis steps targeting pi_t, vectorized
    over rows of x, given log gamma at x; each substep queries the target at its proposals.

    Returns (x', accepted in any substep, log gamma at x').
    """
    scale = cfg.scale(path.betas[t])
    lp = annealed_logdensity(path, t, x, with_grad=False, query=(log_gamma, None))
    accept_any = np.zeros(len(x), dtype=bool)
    for _ in range(cfg.n_substeps):
        prop = x + scale * rng.normal(x.shape)
        lg_prop = path.target.log_density(prop)
        lp_prop = annealed_logdensity(path, t, prop, with_grad=False, query=(lg_prop, None))
        accepted = np.log(rng.uniform(size=len(x))) < (lp_prop - lp)
        x = np.where(accepted[:, None], prop, x)
        lp, log_gamma = np.where(accepted, lp_prop, lp), np.where(accepted, lg_prop, log_gamma)
        accept_any |= accepted
    return x, accept_any, log_gamma


def _leapfrog(path: AnnealedPath, t: int, x, p, eps, n_steps, score):
    """Leapfrog integration of H = -log pi_t + |p|^2/2 from x, where pi_t's score is `score`.

    Each position x_1..x_L costs one target query per row; the momentum
    updates read pi_t's score alone.  Returns (x_L, p_L, raw target query at x_L).
    """
    p = p + 0.5 * eps * score
    for _ in range(n_steps - 1):
        x = x + eps * p
        p = p + eps * annealed_score(path, t, x, path.target.logdensity_and_grad(x)[1])
    x = x + eps * p
    query = path.target.logdensity_and_grad(x)
    p = p + 0.5 * eps * annealed_score(path, t, x, query[1])
    return x, p, query


def hmc_step(path: AnnealedPath, t: int, x, query, cfg: HmcConfig, rng: RngStream):
    """One HMC step targeting pi_t with fresh momenta and a Metropolis correction on
    total energy, given the raw target query (log gamma, grad log gamma) at x.

    pi_t's value is built only at x and at the proposed point x_L, where the
    test reads it; a non-finite energy rejects.  Costs L target queries per row.
    Returns (x', accepted, raw target query at x').
    """
    val0, score0 = annealed_logdensity(path, t, x, query=query)
    p0 = rng.normal(x.shape)
    xn, p, new = _leapfrog(path, t, x, p0, cfg.step_size(path.betas[t]), cfg.leapfrog_steps,
                           score0)
    val = annealed_logdensity(path, t, xn, with_grad=False, query=new)
    h0 = -val0 + 0.5 * np.sum(p0**2, axis=1)
    h1 = -val + 0.5 * np.sum(p**2, axis=1)
    delta = h0 - h1
    delta = np.where(np.isfinite(delta), delta, -np.inf)  # non-finite energy: reject
    accepted = np.log(rng.uniform(size=len(x))) < delta
    return (np.where(accepted[:, None], xn, x), accepted,
            (np.where(accepted, new[0], query[0]), np.where(accepted[:, None], new[1], query[1])))
