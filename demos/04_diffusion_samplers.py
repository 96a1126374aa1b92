# Diffusion-based samplers: train a short DDS run, compare it against the
# untrained sampler, and transport exact target samples backward.

from samplebench.diffusion import (
    DiffusionSpec,
    simulate_backward_logweights,
    simulate_forward,
    train_diffusion,
)
from samplebench.metrics import emc, weight_criteria
from samplebench.numerics import RngStream
from samplebench.targets import make_mog_target

target = make_mog_target(dim=2, seed=0)
modes = target.mode_model

# A short DDS training run on the 40-mode mixture (desk scale: small T, batch).
spec = DiffusionSpec.create("dds", 2, RngStream(1, 0), n_steps=16, sigma0=60.0,
                            sigma_max=12.0, guidance=True)
before = simulate_forward(spec, target, 1000, RngStream(2, 0))
print(f"before training: ELBO {weight_criteria(before.log_w_values, False)[0]:9.2f}  "
      f"EMC {emc(modes.cell(before.final_states), modes.n_modes):.3f}")

train_diffusion(spec, target, "elbo", iterations=300, batch_size=64,
                rng=RngStream(3, 0), learning_rate=3e-3)
after = simulate_forward(spec, target, 1000, RngStream(4, 0))
print(f"after  training: ELBO {weight_criteria(after.log_w_values, False)[0]:9.2f}  "
      f"EMC {emc(modes.cell(after.final_states), modes.n_modes):.3f}")

# Forward criteria run the backward kernels from exact target samples.
samples = target.exact_sampler(RngStream(5, 0), 1000)
lw = simulate_backward_logweights(spec, target, samples, RngStream(6, 0))
print(f"EUBO {weight_criteria(lw, True)[0]:9.2f} (upper bound on log Z = 0)")
