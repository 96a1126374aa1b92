"""The declaration of every target and method, and the drivers behind one sampler interface.

A target's config keys, defaults and types are its builder's parameters
(`TARGETS`); a method's are its `METHOD_PARAMS` entry. A driver's `train`
runs the method once and fires `checkpoint_cb(iteration, sampler)` at the
marks `_checkpoint_marks` places; the sampler view exposes reverse sampling
with log weights and backward transport of target samples for forward
criteria, given the target query at those samples.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np

from ..diffusion import ALL_METHODS as DIFFUSION_METHODS
from ..diffusion import (METHOD_PARTS, OPTIONAL_TRAINABLE, DiffusionSpec,
                         simulate_backward_logweights, simulate_forward, train_diffusion,
                         trainable_parameters)
from ..errors import ConfigError, UsageError
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

TARGETS = {"mog": make_mog_target, "mos": make_mos_target, "funnel": make_funnel_target,
           "gaussian": make_gaussian_target, "brownian": make_brownian_target,
           "logistic": load_regression_target}

# initial model support per target family (known-support tuning): the sigma0 of
# every method that declares one
DEFAULT_SIGMA0 = {"mog": 60.0, "mos": 15.0, "funnel": 1.0, "gaussian": 1.0,
                  "brownian": 1.0, "logistic": 1.0}

# Each method's config keys with their defaults; a type stands for a key with no
# fixed default. A value must have its default's type (an int may fill a float).
_MCMC = {"kernel": "hmc", "leapfrog_steps": 10, "step_size_low": 0.2, "step_size_high": 0.2,
         "mh_substeps": 10, "scale_low": 1.0, "scale_high": 1.0}
_SMC = {"sigma0": float, "n_steps": 128, "particles": 2000, "resample_threshold": 0.3,
        "resampling": True, **_MCMC}
_PROPOSAL = {"proposal_mean": list, "proposal_log_std": list}  # a pretrained base

# the keys of the diffusion methods whose kernels read the part
_PART_PARAMS = {"proposal": {"sigma0": float, "trainable_proposal": False, **_PROPOSAL},
                "betas": {"trainable_betas": False}, "drift_net": {"guidance": True}}
METHOD_PARAMS = {
    "mfvi": {"sigma0": float, "iterations": 20_000, "batch_size": 2000, "learning_rate": 5e-3},
    "smc": _SMC,
    "craft": {**_SMC, **_PROPOSAL, "iterations": 300, "learning_rate": 1e-2},
    **{m: {"n_steps": 128, "sigma_max": 8.0,
           "sigma_schedule": "constant" if m == "pis" else "cosine",
           "trainable_sigma": False, "score_stop_gradient": False, "loss": "elbo",
           "iterations": 2000, "batch_size": 128, "learning_rate": 2e-3,
           **{k: v for part in METHOD_PARTS[m] for k, v in _PART_PARAMS.get(part, {}).items()}}
       for m in DIFFUSION_METHODS},
}

# the methods each ablation applies to
ABLATION_KINDS = {
    "smc_choices": ("smc",),
    "init_support": ("smc", "craft") + tuple(m for m in DIFFUSION_METHODS
                                             if "proposal" in METHOD_PARTS[m]) + ("mfvi",),
    "langevin_choices": ("mcd", "cmcd"),
    "num_steps": ("smc", "craft") + DIFFUSION_METHODS,
    "batchsize": ("mfvi", "craft") + tuple(m for m in DIFFUSION_METHODS if m != "ula"),
    "grad_network": ("dds", "pis", "dis", "gbs"),
    "loss_fn": tuple(m for m in DIFFUSION_METHODS if m != "ula"),
    "pretrain_base": ("mcd", "cmcd", "craft"),
}

# method keys that only `ablate` reads: key -> (ablation kind, default grid)
ABLATION_GRIDS = {"sigma0_grid": ("init_support", [1.0, 10.0, 30.0, 60.0]),
                  "n_steps_grid": ("num_steps", [8, 32, 128]),
                  "batch_grid": ("batchsize", [64, 128, 512])}


def target_params(name: str) -> dict:
    """A target's keys with their defaults: its builder's parameters.

    The one parameter without a default, logistic's `csv_path`, is a path string.
    """
    return {p.name: str if p.default is p.empty else p.default
            for p in inspect.signature(TARGETS[name]).parameters.values()}


def build_target(name: str, params: dict):
    return TARGETS[name](**params)


def resolve_method_params(name: str, target_name: str, params: dict) -> dict:
    """The config's method values over the declared defaults; a declared sigma0
    defaults per target."""
    declared = METHOD_PARAMS[name]
    defaults = {k: v for k, v in declared.items() if not isinstance(v, type)}
    if "sigma0" in declared:
        defaults["sigma0"] = DEFAULT_SIGMA0[target_name]
    return {**defaults, **params}


# ------------------------------------------------------------------- samplers
@dataclass
class MfviSampler:
    q: DiagonalGaussian
    target: object

    def sample_with_logweights(self, n, rng):
        x = self.q.sample(rng, n)
        lw = self.target.log_density(x) - self.q.log_density(x)
        return x, lw

    def backward_logweights(self, target_samples, rng, query):
        return query[0] - self.q.log_density(target_samples)


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

    def backward_logweights(self, target_samples, rng, query):
        return backward_transport_logweights(self.path, self.kernel_cfg, target_samples,
                                             rng, flows=self.flows, query=query)


@dataclass
class DiffusionSampler:
    spec: DiffusionSpec
    target: object

    def sample_with_logweights(self, n, rng):
        batch = simulate_forward(self.spec, self.target, n, rng)
        return batch.final_states, batch.log_w_values

    def backward_logweights(self, target_samples, rng, query):
        return simulate_backward_logweights(self.spec, self.target, target_samples, rng,
                                            query=query)


# -------------------------------------------------------------------- drivers
def make_kernel_config(p: dict):
    try:
        if p["kernel"] == "hmc":
            return HmcConfig(leapfrog_steps=p["leapfrog_steps"], step_size_low=p["step_size_low"],
                             step_size_high=p["step_size_high"])
        if p["kernel"] == "mh":
            return MhConfig(n_substeps=p["mh_substeps"], scale_low=p["scale_low"],
                            scale_high=p["scale_high"])
    except UsageError as exc:
        raise ConfigError(f"MCMC kernel {p['kernel']!r}: {exc}") from exc
    raise ConfigError(f"unknown MCMC kernel {p['kernel']!r}")


def _smc_sampler(p: dict, proposal, target, flows=None) -> SmcSampler:
    """The sampler of an SMC or CRAFT config, on the linear path from `proposal`."""
    for key, low in (("n_steps", 1), ("particles", 2)):
        if p[key] < low:
            raise ConfigError(f"method key {key!r} must be at least {low}, got {p[key]}")
    return SmcSampler(AnnealedPath.linear(proposal, target, p["n_steps"]), make_kernel_config(p),
                      p["particles"], p["resample_threshold"], p["resampling"], flows=flows)


def _checkpoint_marks(iterations, n_checkpoints):
    """Evaluation iterations: evenly spaced from 1 to the last; one checkpoint is the last."""
    if iterations < 1:  # every method that trains takes its marks here
        raise ConfigError(f"method key 'iterations' must be at least 1, got {iterations}")
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
        p = resolve_method_params(self.name, target_name, self.params)
        sigma0 = p.get("sigma0")  # PIS declares none
        rng = RngStream(seed, 0)
        if self.name == "mfvi":
            mfvi_train(
                target, sigma0, p["batch_size"], p["iterations"], p["learning_rate"], rng,
                checkpoints=_checkpoint_marks(p["iterations"], n_checkpoints),
                checkpoint_hook=lambda it, q: checkpoint_cb(it, MfviSampler(q, target)),
            )
            return
        if self.name == "smc":
            sampler = _smc_sampler(p, DiagonalGaussian.isotropic(target.dim, sigma0), target)
            checkpoint_cb(1, sampler)  # nothing to train: one evaluation point
            return
        if self.name == "craft":
            flows = [AffineFlow.identity(target.dim) for _ in range(p["n_steps"])]
            sampler = _smc_sampler(p, _proposal_from_params(p, target.dim, sigma0), target, flows)
            craft_train(sampler.path, flows, sampler.kernel_cfg, p["iterations"],
                        sampler.n_particles, rng, learning_rate=p["learning_rate"],
                        resample_threshold=sampler.resample_threshold,
                        resampling_enabled=sampler.resampling_enabled,
                        checkpoints=_checkpoint_marks(p["iterations"], n_checkpoints),
                        checkpoint_hook=lambda it, _flows: checkpoint_cb(it, sampler))
            return
        spec = DiffusionSpec.create(
            self.name, target.dim, rng, n_steps=p["n_steps"], sigma_max=p["sigma_max"],
            guidance=p.get("guidance", False), sigma_schedule=p["sigma_schedule"],
            trainable={part for part in OPTIONAL_TRAINABLE if p.get(f"trainable_{part}")},
        )
        spec.score_stop_gradient = p["score_stop_gradient"]
        if spec.proposal is not None:  # isotropic at sigma0, or a pretrained base
            spec.proposal = _proposal_from_params(p, target.dim, sigma0)
        if not trainable_parameters(spec):  # nothing to train: one evaluation point
            checkpoint_cb(1, DiffusionSampler(spec, target))
            return
        train_diffusion(
            spec, target, p["loss"], p["iterations"], p["batch_size"], rng,
            learning_rate=p["learning_rate"],
            checkpoints=_checkpoint_marks(p["iterations"], n_checkpoints),
            checkpoint_hook=lambda it, s: checkpoint_cb(it, DiffusionSampler(s, target)),
        )


def _proposal_from_params(p, dim, sigma0):
    """The pretrained base both proposal vectors give, else isotropic at sigma0."""
    given = [key for key in _PROPOSAL if key in p]
    if not given:
        return DiagonalGaussian.isotropic(dim, sigma0)
    if len(given) < len(_PROPOSAL) or any(len(p[key]) != dim for key in given):
        raise ConfigError(f"a pretrained base needs both {list(_PROPOSAL)}, "
                          f"each with the target's {dim} entries")
    return DiagonalGaussian(np.asarray(p["proposal_mean"], dtype=float),
                            np.asarray(p["proposal_log_std"], dtype=float))
