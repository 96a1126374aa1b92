# Diffusion-based samplers: simulate the kernel pairs, train a short DDS run,
# and compare against an untrained baseline.

import numpy as np

from samplebench.diffusion import (
    DiffusionSpec,
    kernel_pair,
    simulate_backward_logweights,
    simulate_forward,
    train_diffusion,
)
from samplebench.metrics import emc
from samplebench.numerics import RngStream
from samplebench.targets import make_mog_target

target = make_mog_target(dim=2, seed=0)
modes = target.mode_model
rng = RngStream(0, 0)

# ULA's forward and backward kernels share one expression; MCD only corrects
# the backward one, so with a zeroed drift they coincide.
ula = DiffusionSpec.create("ula", 2, rng, n_steps=16, sigma0=60.0, sigma_max=8.0)
x = np.array([[1.0, -2.0]])
score = target.grad(x)
(fm, fv), (bm, bv) = kernel_pair(ula, 8, x, score)
print(f"ULA hop 8 at {x[0]}: forward mean {fm[0].round(3)}, backward mean {bm[0].round(3)}")

# A short DDS training run on the 40-mode mixture (desk scale: small T, batch).
spec = DiffusionSpec.create("dds", 2, RngStream(1, 0), n_steps=16, sigma0=60.0,
                            sigma_max=12.0, guidance=True)
before = simulate_forward(spec, target, 1000, RngStream(2, 0))
print(f"before training: ELBO {np.mean(before.log_w_values):9.2f}  "
      f"EMC {emc(modes.cell(before.final_states), modes.n_modes):.3f}")

train_diffusion(spec, target, "elbo", iterations=300, batch_size=64,
                rng=RngStream(3, 0), learning_rate=3e-3)
after = simulate_forward(spec, target, 1000, RngStream(4, 0))
print(f"after  training: ELBO {np.mean(after.log_w_values):9.2f}  "
      f"EMC {emc(modes.cell(after.final_states), modes.n_modes):.3f}")

# Forward criteria run the backward kernels from exact target samples.
samples = target.exact_sampler(RngStream(5, 0), 1000)
lw = simulate_backward_logweights(spec, target, samples, RngStream(6, 0))
print(f"EUBO {np.mean(lw):9.2f} (upper bound on log Z = 0)")
