"""Brownian-motion smoothing target: 30 latent states plus two noise scales.

The unknowns are (log alpha_inn, log alpha_obs, x_1..x_30); both scales carry a
LogNormal(0, 2) prior, which in log-space is exactly N(0, 2^2) (the Jacobian of
the log transform is absorbed by the LogNormal density).  Observations exist
for steps {1..10} and {20..30} and are synthesized once from the generative
model at a fixed seed, then frozen into the target.
"""

from __future__ import annotations

import numpy as np

from ..numerics.logspace import LOG_2PI
from ..numerics.rng import RngStream
from .base import TargetDensity

N_STATES = 30
OBS_INDICES = np.array(sorted(set(range(1, 11)) | set(range(20, 31)))) - 1  # 0-based
PRIOR_SCALE = 2.0


def _simulate_observations(seed: int):
    rng = RngStream(seed, stream_id=0)
    alpha_inn = float(np.exp(PRIOR_SCALE * rng.normal()))
    alpha_obs = float(np.exp(PRIOR_SCALE * rng.normal()))
    steps = alpha_inn * rng.normal(N_STATES)
    states = np.cumsum(steps)
    obs = states[OBS_INDICES] + alpha_obs * rng.normal(len(OBS_INDICES))
    return obs


def make_brownian_target(observation_seed: int = 11) -> TargetDensity:
    y = _simulate_observations(observation_seed)
    n_obs = len(OBS_INDICES)

    def parts(theta):
        """Log-scales, squared increment and residual sums, and inverse variances."""
        u_inn, u_obs, x = theta[:, 0], theta[:, 1], theta[:, 2:]
        inc = np.diff(x, axis=1, prepend=0.0)
        resid = x[:, OBS_INDICES] - y
        return u_inn, u_obs, inc, resid, np.exp(-2 * u_inn), np.exp(-2 * u_obs)

    def value(u_inn, u_obs, inc_sq, resid_sq, inv_inn, inv_obs):
        prior = -0.5 * (u_inn**2 + u_obs**2) / PRIOR_SCALE**2 - LOG_2PI - 2 * np.log(PRIOR_SCALE)
        chain = -0.5 * inc_sq * inv_inn - N_STATES * (0.5 * LOG_2PI + u_inn)
        like = -0.5 * resid_sq * inv_obs - n_obs * (0.5 * LOG_2PI + u_obs)
        return prior + chain + like

    def log_unnorm(theta):
        u_inn, u_obs, inc, resid, inv_inn, inv_obs = parts(theta)
        return value(u_inn, u_obs, np.sum(inc**2, axis=1), np.sum(resid**2, axis=1),
                     inv_inn, inv_obs)

    def log_unnorm_and_grad(theta):
        u_inn, u_obs, inc, resid, inv_inn, inv_obs = parts(theta)
        inc_sq = np.sum(inc**2, axis=1)
        resid_sq = np.sum(resid**2, axis=1)
        out = np.empty((len(inc), N_STATES + 2))
        out[:, 0] = -u_inn / PRIOR_SCALE**2 + inc_sq * inv_inn - N_STATES
        out[:, 1] = -u_obs / PRIOR_SCALE**2 + resid_sq * inv_obs - n_obs
        gx = -inc * inv_inn[:, None]
        gx[:, :-1] += inc[:, 1:] * inv_inn[:, None]
        gx[:, OBS_INDICES] -= resid * inv_obs[:, None]
        out[:, 2:] = gx
        return value(u_inn, u_obs, inc_sq, resid_sq, inv_inn, inv_obs), out

    return TargetDensity(
        dim=N_STATES + 2,
        log_unnorm=log_unnorm,
        log_unnorm_and_grad=log_unnorm_and_grad,
        name="brownian_d32",
    )
