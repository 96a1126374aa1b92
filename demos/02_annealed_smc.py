# Sequential Monte Carlo along a geometric annealing path: log-Z estimation,
# effective sample size, and the effect of resampling.

import math

import numpy as np

from samplebench.kernels import AnnealedPath, HmcConfig
from samplebench.numerics import RngStream
from samplebench.sis import smc_run
from samplebench.targets import DiagonalGaussian, make_mog_target, make_unnormalized_gaussian_target

# Gaussian-to-Gaussian first: gamma = exp(-x^2/2) has Z = sqrt(2 pi), so the
# estimator can be checked against the truth.
target = make_unnormalized_gaussian_target(1, scale=1.0)
path = AnnealedPath.linear(DiagonalGaussian.isotropic(1, 2.0), target, n_steps=16)
kernel = HmcConfig(leapfrog_steps=10, step_size_low=0.5, step_size_high=0.5)

estimates = []
for run in range(20):
    res = smc_run(path, kernel, n_particles=128, rng=RngStream(1, run))
    estimates.append(math.exp(res.log_z))
print(f"Z estimate {np.mean(estimates):.4f} +- {np.std(estimates):.4f}"
      f"  (truth {math.sqrt(2 * math.pi):.4f})")

# On a multimodal target the particle cloud tells the mode-coverage story.
mog = make_mog_target(dim=2, seed=0)
path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 60.0), mog, n_steps=64)
kernel = HmcConfig(leapfrog_steps=10, step_size_low=2.0, step_size_high=0.7)

for threshold in (0.3, 0.0):  # no ESS fraction falls below 0: no resampling
    res = smc_run(path, kernel, n_particles=512, rng=RngStream(2, 0),
                  resample_threshold=threshold)
    modes = mog.mode_model.cell(res.particles.positions)
    n_resamples = sum(d["resampled"] for d in res.diagnostics)
    print(f"resample threshold {threshold}: ELBO {res.elbo:8.2f}  log Z {res.log_z:7.2f}  "
          f"modes covered {len(set(modes.tolist()))}/40  resample events {n_resamples}")
