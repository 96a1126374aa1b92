# Tour of the benchmark target densities: evaluate log-densities, scores,
# exact samplers, and mode descriptors.

import numpy as np

from samplebench.numerics import RngStream
from samplebench.targets import (
    make_brownian_target,
    make_funnel_target,
    make_mog_target,
    make_mos_target,
)

rng = RngStream(seed=0, stream_id=0)

# A 40-component Gaussian mixture on [-40, 40]^2. Normalized, so log Z = 0,
# and every point carries a mode descriptor (argmax component).
mog = make_mog_target(dim=2, seed=0)
x = mog.exact_sampler(rng, 5)
vals, grads = mog.logdensity_and_grad(x)
print("MoG d=2:")
for xi, v in zip(x, vals):
    print(f"  log gamma({xi.round(2)}) = {v:.3f}")
print("  mode descriptors:", mog.mode_model.cell(x))

# The Student-t mixture has much heavier tails: compare the decay of the two
# log-densities along a ray.
mos = make_mos_target(dim=2, seed=0)
ray = np.linspace(1, 200, 5)[:, None] * np.ones((1, 2))
print("\ntail decay along x = (r, r):")
print("  r        MoG            MoS")
for r, lg, ls in zip(ray[:, 0], mog.log_density(ray), mos.log_density(ray)):
    print(f"  {r:6.0f} {lg:14.1f} {ls:12.1f}")

# The funnel couples the first coordinate to the variance of the other nine.
funnel = make_funnel_target()
print(f"\nfunnel at the origin: {funnel.log_density(np.zeros((1, 10)))[0]:.4f} (= -10.2880)")

# Brownian smoothing: 32 unknowns, observations frozen from a fixed seed.
brownian = make_brownian_target()
theta = np.zeros((1, 32))
print(f"brownian at zero: {brownian.log_density(theta)[0]:.4f}")
print(f"NFE counters so far: mog={mog.nfe.value}, brownian={brownian.nfe.value}")
