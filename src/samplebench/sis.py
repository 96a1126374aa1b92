"""Sequential importance sampling: one annealed sweep behind AIS/SMC, CRAFT
flow training, log-Z estimation and backward transport of target samples.

Per temperature the sweep reweights, then (forward only) checks the ESS and
maybe resamples, then makes an MCMC move at the new temperature.  The AIS
increment (beta_b - beta_a)(log gamma - log pi0) at x takes one target query,
which also gives the value and gradient of pi_b at x that start the move.
The flow (AFT/CRAFT) increment pi_b(T x) + log|det T| - pi_a(x) reads pi_a(x)
from the previous move and queries only pi_b(T x), which starts the next move.
Backward transport runs the same sweep from pi_T down to pi_0 through the
inverse flows and subtracts the increments.

Weight bookkeeping uses a carry scheme: resampling sets every log weight to
the log-mean of the current weights, so the final log-mean-exp of the system
is exactly the product-of-epoch-averages SMC estimator, and without
resampling it reduces to the plain importance-sampling estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateWeightsError, TrainingError, UsageError
from .kernels import AnnealedPath, HmcConfig, MhConfig, annealed_logdensity, hmc_step, mh_step
from .numerics.adam import AdamState, adam_step
from .numerics.logspace import ess_fraction, log_mean_exp, log_sum_exp
from .numerics.rng import RngStream
from .numerics.tape import Tape


@dataclass
class ParticleSystem:
    positions: np.ndarray    # (N, d)
    log_weights: np.ndarray  # (N,)
    # log pi_t at positions (and its gradient, HMC only) as the sweep last computed it
    value: Optional[np.ndarray] = None
    grad: Optional[np.ndarray] = None

    @property
    def n_particles(self) -> int:
        return len(self.positions)


@dataclass
class AffineFlow:
    """Diagonal affine map x -> x * exp(log_scale) + shift; log|det| = sum(log_scale)."""

    shift: np.ndarray
    log_scale: np.ndarray

    @classmethod
    def identity(cls, dim: int) -> "AffineFlow":
        return cls(np.zeros(dim), np.zeros(dim))

    def apply(self, x):
        return x * np.exp(self.log_scale) + self.shift

    def inverse(self, y):
        return (y - self.shift) * np.exp(-self.log_scale)

    @property
    def log_det(self) -> float:
        return float(np.sum(self.log_scale))


def resample_multinomial(ps: ParticleSystem, rng: RngStream) -> ParticleSystem:
    """Multinomial resampling; weights reset to their log-mean (carry); caches follow particles."""
    lw = ps.log_weights
    carry = log_mean_exp(lw)
    probs = np.exp(lw - log_sum_exp(lw))
    probs = probs / probs.sum()
    idx = rng.choice(len(lw), size=len(lw), p=probs)
    return ParticleSystem(ps.positions[idx], np.full(len(lw), carry),
                          None if ps.value is None else ps.value[idx],
                          None if ps.grad is None else ps.grad[idx])


@dataclass
class SmcResult:
    particles: ParticleSystem
    log_z: float
    elbo: float
    diagnostics: list


def _mcmc_move(x, path, t, kernel_cfg, rng, cached):
    """One MCMC transition targeting pi_t, given the cached (value, grad) at x."""
    beta = path.betas[t]
    if isinstance(kernel_cfg, HmcConfig):
        fused = lambda pts: annealed_logdensity(path, t, pts)
        return hmc_step(x, fused, kernel_cfg, rng, beta=beta, current=cached)
    if isinstance(kernel_cfg, MhConfig):
        logdensity = lambda pts: annealed_logdensity(path, t, pts, with_grad=False)
        lp = cached[0]
        accept_any = np.zeros(len(x), dtype=bool)
        for _ in range(kernel_cfg.n_substeps):
            x, accepted, lp = mh_step(x, logdensity, kernel_cfg.scale(beta), rng,
                                      current_logdensity=lp)
            accept_any |= accepted
        return x, accept_any, (lp, None)
    raise UsageError(f"unknown kernel config {type(kernel_cfg).__name__}")


def _reweight(path, a, b, ps, flow, backward, with_grad):
    """The increment from pi_a to pi_b; leaves log pi_b (and grad) at the new positions in ps."""
    x, beta = ps.positions, path.betas[b]
    if flow is None:  # AIS: (beta_b - beta_a)(log gamma - log pi0) at x, one query
        lp0 = path.proposal.log_density(x)
        if with_grad:
            lg, gg = path.target.logdensity_and_grad(x)
            g0 = path.proposal.grad_log_density(x)
            ps.grad = g0 if beta == 0.0 else (1.0 - beta) * g0 + beta * gg
        else:
            lg, ps.grad = path.target.log_density(x), None
        ps.value = lp0 if beta == 0.0 else (1.0 - beta) * lp0 + beta * lg
        return (beta - path.betas[a]) * (lg - lp0)
    # flow: pi_b(T x) + log|det T| - pi_a(x), T inverted backward; pi_a(x) comes
    # from the last move, so only the sweep's first step queries it
    prev = ps.value if ps.value is not None else annealed_logdensity(path, a, x, with_grad=False)
    ps.positions = flow.inverse(x) if backward else flow.apply(x)
    new = annealed_logdensity(path, b, ps.positions, with_grad=with_grad)
    ps.value, ps.grad = new if with_grad else (new, None)
    return ps.value + (-flow.log_det if backward else flow.log_det) - prev


def _sweep(path, kernel_cfg, x, rng, flows=None, backward=False, resample_threshold=0.3,
           resampling_enabled=True, before_reweight=lambda t, x: None):
    """The annealed sweep from x with zero weights; returns (ParticleSystem, diagnostics).

    Forward runs t = 1..T from pi_{t-1} to pi_t.  Backward runs t = T..1 from
    pi_t to pi_{t-1}, never resamples, subtracts each increment, and makes
    T - 1 moves: the weights are complete before a move towards pi_0.
    `before_reweight(t, positions)` runs at the start of each temperature.
    """
    big_t = path.n_steps
    if flows is not None and len(flows) != big_t:
        raise UsageError("need one flow per temperature")
    with_grad = isinstance(kernel_cfg, HmcConfig)
    sign = -1.0 if backward else 1.0
    ps = ParticleSystem(x, np.zeros(len(x)))
    diagnostics = []
    for t in (range(big_t, 0, -1) if backward else range(1, big_t + 1)):
        a, b = (t, t - 1) if backward else (t - 1, t)
        before_reweight(t, ps.positions)
        flow = None if flows is None else flows[t - 1]
        ps.log_weights = ps.log_weights + sign * _reweight(path, a, b, ps, flow, backward,
                                                           with_grad)

        ess, resampled = None, False
        if not backward:
            if not np.isfinite(ps.log_weights).any():
                raise DegenerateWeightsError(t)
            ess = ess_fraction(ps.log_weights)
            resampled = bool(resampling_enabled and ess < resample_threshold)
            if resampled:
                ps = resample_multinomial(ps, rng)

        if backward and b == 0:
            break
        ps.positions, accepted, (ps.value, ps.grad) = _mcmc_move(
            ps.positions, path, b, kernel_cfg, rng, (ps.value, ps.grad))
        diagnostics.append({"t": t, "ess_fraction": ess, "resampled": resampled,
                            "acceptance": float(np.mean(accepted))})
    return ps, diagnostics


def smc_run(path: AnnealedPath, kernel_cfg, n_particles: int, rng: RngStream,
            resample_threshold: float = 0.3, resampling_enabled: bool = True,
            flows: Optional[list] = None) -> SmcResult:
    """The forward sweep from proposal draws, in the AIS form or, with flows given
    (one AffineFlow per temperature, index 1..T), the flow form."""
    if n_particles < 2:
        raise UsageError("need at least 2 particles")
    x = path.proposal.sample(rng, n_particles)
    ps, diagnostics = _sweep(path, kernel_cfg, x, rng, flows,
                             resample_threshold=resample_threshold,
                             resampling_enabled=resampling_enabled)
    log_w = ps.log_weights
    return SmcResult(ps, float(log_mean_exp(log_w)), float(np.mean(log_w[np.isfinite(log_w)])),
                     diagnostics)


def backward_transport_logweights(path: AnnealedPath, kernel_cfg, target_samples,
                                  rng: RngStream, flows: Optional[list] = None) -> np.ndarray:
    """The sweep run backward from exact target samples, from pi_T down to pi_0.

    Returns the per-sample extended forward log-weights for EUBO / ESS_f / Z_f.
    """
    x = np.atleast_2d(np.asarray(target_samples, dtype=float))
    ps, _ = _sweep(path, kernel_cfg, x, rng, flows, backward=True)
    return ps.log_weights


def craft_train(path: AnnealedPath, flows: list, kernel_cfg, iterations: int,
                n_particles: int, rng: RngStream, learning_rate: float = 1e-2,
                resample_threshold: float = 0.3, resampling_enabled: bool = True,
                checkpoints=(), checkpoint_hook=None):
    """Train one diagonal affine flow per temperature on the running SMC sweep.

    Before each temperature's reweight, that temperature's flow takes one Adam
    step on the negative expected log incremental weight; gradients flow
    through shift and log_scale on the tape.  The flows are updated in place,
    and `checkpoint_hook(iteration, flows)` fires after each iteration in
    `checkpoints`.  Returns (flows, elbo_trace), the trace holding each
    iteration's mean final log weight.
    """
    adam_states = [AdamState.init(2 * len(f.shift), learning_rate=learning_rate) for f in flows]

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
        packed, adam_states[t - 1] = adam_step(np.concatenate([flow.shift, flow.log_scale]),
                                               np.concatenate([g_shift, g_ls]),
                                               adam_states[t - 1])
        flow.shift, flow.log_scale = np.split(packed, 2)

    elbo_trace = []
    for it in range(1, iterations + 1):
        x = path.proposal.sample(rng, n_particles)
        ps, _ = _sweep(path, kernel_cfg, x, rng, flows, resample_threshold=resample_threshold,
                       resampling_enabled=resampling_enabled, before_reweight=update_flow)
        elbo_trace.append(float(np.mean(ps.log_weights)))
        if it in checkpoints:
            checkpoint_hook(it, flows)
    return flows, elbo_trace
