"""Target builders and method drivers behind one sampler interface.

A driver's `train` runs the method once and fires `checkpoint_cb(iteration,
sampler)` at the marks `_checkpoint_marks` places; the sampler view exposes
reverse sampling with log weights and backward transport of target samples
for forward criteria.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffusion import DiffusionSpec, TrainableFlags, simulate_backward_logweights, simulate_forward, train_diffusion
from ..errors import ConfigError, UnsupportedCriterionError
from ..kernels import AnnealedPath, HmcConfig, MhConfig
from ..numerics.rng import RngStream
from ..sis import AffineFlow, backward_transport_logweights, craft_train, smc_run
from ..targets import (
    DiagonalGaussian,
    load_regression_target,
    make_brownian_target,
    make_funnel_target,
    make_gaussian_target,
    make_mog_target,
    make_mos_target,
)
from ..vi import mfvi_train

# initial model support per target family (known-support tuning)
DEFAULT_SIGMA0 = {"mog": 60.0, "mos": 15.0, "funnel": 1.0, "gaussian": 1.0,
                  "brownian": 1.0, "logistic": 1.0}

DIFFUSION_METHODS = ("ula", "mcd", "cmcd", "dds", "pis", "dis", "gbs")
ALL_METHOD_NAMES = ("mfvi", "smc", "craft") + DIFFUSION_METHODS


def build_target(name: str, params: dict):
    params = dict(params)
    if name == "mog":
        return make_mog_target(params.pop("dim", 2), params.pop("n_components", 40),
                               params.pop("seed", 12))
    if name == "mos":
        return make_mos_target(params.pop("dim", 2), params.pop("n_components", 10),
                               params.pop("seed", 0))
    if name == "funnel":
        return make_funnel_target(params.pop("dim", 10), params.pop("sigma_f_sq", 9.0))
    if name == "gaussian":
        return make_gaussian_target(params.pop("dim", 2), params.pop("scale", 1.0),
                                    params.pop("mean", 0.0))
    if name == "brownian":
        return make_brownian_target(params.pop("observation_seed", 11))
    if name == "logistic":
        return load_regression_target(params.pop("csv_path"),
                                      params.pop("prior_scale", 1.0),
                                      params.pop("add_bias", False))
    raise ConfigError(f"unknown target {name!r}")


def default_sigma0(target_name: str) -> float:
    return DEFAULT_SIGMA0.get(target_name, 1.0)


# ------------------------------------------------------------------- samplers
@dataclass
class MfviSampler:
    q: DiagonalGaussian
    target: object

    def sample_with_logweights(self, n, rng):
        x = self.q.sample(rng, n)
        lw = self.target.log_density(x) - self.q.log_density(x)
        return x, lw

    def backward_logweights(self, target_samples, rng):
        x = np.atleast_2d(target_samples)
        return self.target.log_density(x) - self.q.log_density(x)


@dataclass
class SmcSampler:
    path: AnnealedPath
    kernel_cfg: object
    n_particles: int
    resample_threshold: float
    resampling_enabled: bool
    flows: object = None

    def sample_with_logweights(self, n, rng):
        res = smc_run(self.path, self.kernel_cfg, self.n_particles, rng,
                      resample_threshold=self.resample_threshold,
                      resampling_enabled=self.resampling_enabled, flows=self.flows)
        ps = res.particles
        if n < ps.n_particles:
            return ps.positions[:n], ps.log_weights[:n]
        return ps.positions, ps.log_weights

    def backward_logweights(self, target_samples, rng):
        return backward_transport_logweights(self.path, self.kernel_cfg, target_samples,
                                             rng, flows=self.flows)


@dataclass
class DiffusionSampler:
    spec: DiffusionSpec
    target: object

    def sample_with_logweights(self, n, rng):
        batch = simulate_forward(self.spec, self.target, n, rng)
        return batch.final_states, batch.log_w_values

    def backward_logweights(self, target_samples, rng):
        return simulate_backward_logweights(self.spec, self.target, target_samples, rng)


# -------------------------------------------------------------------- drivers
def make_kernel_config(params: dict):
    kind = params.get("kernel", "hmc")
    if kind == "hmc":
        return HmcConfig(leapfrog_steps=params.get("leapfrog_steps", 10),
                         step_size_low=params.get("step_size_low", 0.2),
                         step_size_high=params.get("step_size_high", 0.2))
    if kind == "mh":
        return MhConfig(n_substeps=params.get("mh_substeps", 10),
                        scale_low=params.get("scale_low", 1.0),
                        scale_high=params.get("scale_high", 1.0))
    raise ConfigError(f"unknown MCMC kernel {kind!r}")


def _checkpoint_marks(iterations, n_checkpoints):
    """Evaluation iterations: evenly spaced from 1 to the last; one checkpoint is the last."""
    if iterations <= 0 or n_checkpoints <= 0:
        return []
    if n_checkpoints == 1:
        return [iterations]
    # a set, not np.unique: np.unique imports numpy.ma on first use
    return sorted(set(np.linspace(1, iterations, n_checkpoints).astype(int).tolist()))


class MethodDriver:
    """Runs one method for one seed, firing checkpoint callbacks."""

    def __init__(self, name: str, params: dict):
        self.name = name
        self.params = dict(params)

    def train(self, target, target_name, seed, n_checkpoints, checkpoint_cb):
        p = self.params
        sigma0 = p.get("sigma0", default_sigma0(target_name))
        rng = RngStream(seed, 0)
        if self.name == "mfvi":
            iterations = p.get("iterations", 20_000)
            mfvi_train(
                target, sigma0, p.get("batch_size", 2000), iterations,
                p.get("learning_rate", 5e-3), rng,
                checkpoints=_checkpoint_marks(iterations, n_checkpoints),
                checkpoint_hook=lambda it, q: checkpoint_cb(it, MfviSampler(q, target)),
            )
            return
        if self.name == "smc":
            path = AnnealedPath.linear(DiagonalGaussian.isotropic(target.dim, sigma0),
                                       target, p.get("n_steps", 128))
            sampler = SmcSampler(path, make_kernel_config(p), p.get("particles", 2000),
                                 p.get("resample_threshold", 0.3),
                                 p.get("resampling", True))
            checkpoint_cb(1, sampler)  # nothing to train: one evaluation point
            return
        if self.name == "craft":
            n_steps = p.get("n_steps", 128)
            path = AnnealedPath.linear(
                _proposal_from_params(p, target.dim, sigma0), target, n_steps
            )
            flows = [AffineFlow.identity(target.dim) for _ in range(n_steps)]
            sampler = SmcSampler(path, make_kernel_config(p), p.get("particles", 2000),
                                 p.get("resample_threshold", 0.3),
                                 p.get("resampling", True), flows=flows)
            iterations = p.get("iterations", 300)
            craft_train(path, flows, sampler.kernel_cfg, iterations, sampler.n_particles, rng,
                        learning_rate=p.get("learning_rate", 1e-2),
                        resample_threshold=sampler.resample_threshold,
                        resampling_enabled=sampler.resampling_enabled,
                        checkpoints=_checkpoint_marks(iterations, n_checkpoints),
                        checkpoint_hook=lambda it, _flows: checkpoint_cb(it, sampler))
            return
        if self.name in DIFFUSION_METHODS:
            spec = DiffusionSpec.create(
                self.name, target.dim, rng,
                n_steps=p.get("n_steps", 128),
                sigma0=sigma0,
                sigma_max=p.get("sigma_max", 8.0),
                guidance=p.get("guidance", True),
                sigma_schedule=p.get("sigma_schedule",
                                     "constant" if self.name == "pis" else "cosine"),
                trainable=TrainableFlags(
                    sigma=p.get("trainable_sigma", False),
                    betas=p.get("trainable_betas", False),
                    proposal=p.get("trainable_proposal", False),
                ),
            )
            spec.score_stop_gradient = p.get("score_stop_gradient", False)
            if "proposal_mean" in p:  # pretrained base hand-off
                spec.proposal = _proposal_from_params(p, target.dim, sigma0)
            if self.name == "ula" and not (spec.trainable.sigma or spec.trainable.betas
                                           or spec.trainable.proposal):
                checkpoint_cb(1, DiffusionSampler(spec, target))  # nothing trainable
                return
            iterations = p.get("iterations", 2000)
            train_diffusion(
                spec, target, p.get("loss", "elbo"), iterations,
                p.get("batch_size", 128), rng,
                learning_rate=p.get("learning_rate", 2e-3),
                checkpoints=_checkpoint_marks(iterations, n_checkpoints),
                checkpoint_hook=lambda it, s: checkpoint_cb(it, DiffusionSampler(s, target)),
            )
            return
        raise ConfigError(f"unknown method {self.name!r}")


def _proposal_from_params(p, dim, sigma0):
    if "proposal_mean" in p:
        return DiagonalGaussian(np.asarray(p["proposal_mean"], dtype=float),
                                np.asarray(p["proposal_log_std"], dtype=float))
    return DiagonalGaussian.isotropic(dim, sigma0)
