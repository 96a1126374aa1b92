"""Sequential importance sampling: one annealed sweep behind AIS/SMC, CRAFT
flow training, log-Z estimation and backward transport of target samples.

Per temperature the sweep reweights, then (forward only) resamples when the
ESS fraction, which lies in (0, 1], is below the threshold, so a threshold of
0 never resamples; then it makes an MCMC move at the new temperature.  The
particles carry the raw target query (`TargetDensity.query`'s triple: log
gamma, and its gradient for HMC) at their positions, as the last move left it:
the kernels (`kernels.hmc_step`, `kernels.mh_step`) take it at x and return it
at x'.  pi_t and its gradient follow from it and the analytic proposal at no
NFE.  The AIS increment (beta_b - beta_a)(log gamma - log pi0) at x reads that
query, so only the sweep's first temperature queries the target: it costs
1 + L queries per particle for L leapfrog steps or MH substeps, and each later
one costs L.
The flow (AFT/CRAFT) increment pi_b(T x) + log|det T| - pi_a(x) reads pi_a(x)
from the query and queries only pi_b(T x), which starts the next move.
Backward transport runs the same sweep from pi_T down to pi_0 through the
inverse flows and subtracts the increments; given the query at the target
samples, its first reweight queries nothing.  An HMC move builds pi_t's
value only at the proposed point, where the Metropolis test reads it; the
inner leapfrog positions read the score alone.

Weight bookkeeping uses a carry scheme: resampling sets every log weight to
the log-mean of the current weights, so the final log-mean-exp of the system
is exactly the product-of-epoch-averages SMC estimator, and without
resampling it reduces to the plain importance-sampling estimator.  The sweep
keeps only the weights: `metrics.weight_criteria(log_weights, False)` reads
that log Z, the ELBO and the ESS off them.
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


@dataclass
class ParticleSystem:
    positions: np.ndarray    # (N, d)
    log_weights: np.ndarray  # (N,)
    # the raw target query at positions, (log gamma, its gradient (HMC only), None),
    # as the sweep last made it; None before its first query
    query: Optional[tuple] = None

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
    """Multinomial resampling; weights reset to their log-mean (carry); queries follow particles."""
    lw = ps.log_weights
    carry = log_mean_exp(lw)
    probs = np.exp(lw - log_sum_exp(lw))
    probs = probs / probs.sum()
    idx = rng.choice(len(lw), size=len(lw), p=probs)
    query = None if ps.query is None else tuple(None if a is None else a[idx] for a in ps.query)
    return ParticleSystem(ps.positions[idx], np.full(len(lw), carry), query)


@dataclass
class SmcResult:
    particles: ParticleSystem
    diagnostics: list


def _mcmc_move(x, path, t, kernel_cfg, rng, query):
    """One MCMC transition targeting pi_t from x, given the raw target query at x.

    Returns (x', accepted, the raw target query at x').
    """
    if isinstance(kernel_cfg, HmcConfig):
        return hmc_step(path, t, x, query, kernel_cfg, rng)
    if isinstance(kernel_cfg, MhConfig):
        return mh_step(path, t, x, query, kernel_cfg, rng)
    raise UsageError(f"unknown kernel config {type(kernel_cfg).__name__}")


def _reweight(path, a, b, ps, flow, backward, with_grad):
    """The increment from pi_a to pi_b; leaves the raw target query at the new positions in ps.

    Only the sweep's first step queries the target at x; later steps read the
    last move's query.
    """
    x = ps.positions
    if flow is None:  # AIS: (beta_b - beta_a)(log gamma - log pi0) at x
        if ps.query is None:
            ps.query = path.target.query(x, score=with_grad)
        return (path.betas[b] - path.betas[a]) * (ps.query[0] - path.proposal.log_density(x))
    # flow: pi_b(T x) + log|det T| - pi_a(x), T inverted backward
    prev = annealed_logdensity(path, a, x, with_grad=False, query=ps.query)
    ps.positions = flow.inverse(x) if backward else flow.apply(x)
    ps.query = (path.target.query(ps.positions, score=with_grad)
                if path.betas[b] > 0.0 else None)  # pi_0 is free
    new = annealed_logdensity(path, b, ps.positions, with_grad=False, query=ps.query)
    return new + (-flow.log_det if backward else flow.log_det) - prev


def _sweep(path, kernel_cfg, x, rng, flows=None, backward=False, resample_threshold=0.3,
           before_reweight=lambda t, x: None, query=None):
    """The annealed sweep from x with zero weights; returns (ParticleSystem, diagnostics).

    Forward runs t = 1..T from pi_{t-1} to pi_t.  Backward runs t = T..1 from
    pi_t to pi_{t-1}, never resamples, subtracts each increment, and makes
    T - 1 moves: the weights are complete before a move towards pi_0.
    `before_reweight(t, positions)` runs at the start of each temperature.
    `query`, a raw target query at x already made, spares the first reweight
    its own.
    """
    big_t = path.n_steps
    if flows is not None and len(flows) != big_t:
        raise UsageError("need one flow per temperature")
    with_grad = isinstance(kernel_cfg, HmcConfig)
    sign = -1.0 if backward else 1.0
    ps = ParticleSystem(x, np.zeros(len(x)), query)
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
            resampled = bool(ess < resample_threshold)
            if resampled:
                ps = resample_multinomial(ps, rng)

        if backward and b == 0:
            break
        ps.positions, accepted, ps.query = _mcmc_move(ps.positions, path, b, kernel_cfg, rng,
                                                      ps.query)
        diagnostics.append({"t": t, "ess_fraction": ess, "resampled": resampled,
                            "acceptance": float(np.mean(accepted))})
    return ps, diagnostics


def smc_run(path: AnnealedPath, kernel_cfg, n_particles: int, rng: RngStream,
            resample_threshold: float = 0.3, flows: Optional[list] = None) -> SmcResult:
    """The forward sweep from proposal draws, in the AIS form or, with flows given
    (one AffineFlow per temperature, index 1..T), the flow form.

    Returns the final particles and the per-temperature diagnostics; the
    estimates are `metrics.weight_criteria(result.particles.log_weights, False)`.
    """
    if n_particles < 2:
        raise UsageError("need at least 2 particles")
    x = path.proposal.sample(rng, n_particles)
    ps, diagnostics = _sweep(path, kernel_cfg, x, rng, flows,
                             resample_threshold=resample_threshold)
    return SmcResult(ps, diagnostics)


def backward_transport_logweights(path: AnnealedPath, kernel_cfg, target_samples,
                                  rng: RngStream, flows: Optional[list] = None,
                                  query=None) -> np.ndarray:
    """The sweep run backward from exact target samples, from pi_T down to pi_0.

    `query` is the target query with its score at the samples, when already
    made; without it the first reweight makes its own.
    Returns the per-sample extended forward log-weights for EUBO / ESS_f / Z_f.
    """
    ps, _ = _sweep(path, kernel_cfg, target_samples, rng, flows, backward=True, query=query)
    return ps.log_weights


def craft_train(path: AnnealedPath, flows: list, kernel_cfg, iterations: int,
                n_particles: int, rng: RngStream, learning_rate: float = 1e-2,
                resample_threshold: float = 0.3, checkpoints=(), checkpoint_hook=None):
    """Train one diagonal affine flow per temperature on the running SMC sweep.

    Before each temperature's reweight, that temperature's flow takes one Adam
    step on the negative expected log incremental weight.  With y_i = s * x_i
    + shift and s = exp(log_scale), its reparameterized gradient is closed
    form: sum_i w_i in shift and -1 + sum_i (w_i * x_i) * s in log_scale, where
    w_i = -grad log pi_t(y_i) / n.  Adam updates each flow's shift and
    log_scale arrays in place, and `checkpoint_hook(iteration, flows)` fires
    after each iteration in `checkpoints`.  Returns (flows, elbo_trace), the
    trace holding each iteration's mean final log weight.
    """
    adam_states = [AdamState.init([f.shift, f.log_scale], learning_rate=learning_rate)
                   for f in flows]

    def update_flow(t, x):
        # loss: - mean[ log pi_t(T(x)) ] - log|det T|
        flow = flows[t - 1]
        scale = np.exp(flow.log_scale)
        val, grad = annealed_logdensity(path, t, scale * x + flow.shift)
        if not np.isfinite(np.sum(val) / n_particles + np.sum(flow.log_scale)):
            raise TrainingError(f"non-finite CRAFT loss at temperature {t}")
        w = -grad / n_particles  # d loss / d y_i
        g_shift, g_ls = w.sum(axis=0), -1.0 + (w * x).sum(axis=0) * scale
        adam_step([flow.shift, flow.log_scale], [g_shift, g_ls], adam_states[t - 1])

    elbo_trace = []
    for it in range(1, iterations + 1):
        x = path.proposal.sample(rng, n_particles)
        ps, _ = _sweep(path, kernel_cfg, x, rng, flows, resample_threshold=resample_threshold,
                       before_reweight=update_flow)
        elbo_trace.append(float(np.mean(ps.log_weights)))
        if it in checkpoints:
            checkpoint_hook(it, flows)
    return flows, elbo_trace
