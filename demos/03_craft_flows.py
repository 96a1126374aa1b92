# CRAFT-style flow transport: train one diagonal affine flow per temperature
# on the running SMC sweep and watch the evidence bound tighten.

from samplebench.kernels import AnnealedPath, HmcConfig
from samplebench.metrics import weight_criteria
from samplebench.numerics import RngStream
from samplebench.sis import AffineFlow, backward_transport_logweights, craft_train, smc_run
from samplebench.targets import DiagonalGaussian, make_gaussian_target

# Proposal N(0, I), target N(3, 0.7^2 I): affine maps can bridge this exactly,
# so the trained sweep should approach ELBO = log Z = 0.
target = make_gaussian_target(2, scale=0.7, mean=3.0)
path = AnnealedPath.linear(DiagonalGaussian.isotropic(2, 1.0), target, n_steps=8)
kernel = HmcConfig(leapfrog_steps=10, step_size_low=0.3, step_size_high=0.3)
flows = [AffineFlow.identity(2) for _ in range(path.n_steps)]

rng = RngStream(0, 0)
flows, trace = craft_train(path, flows, kernel, iterations=120, n_particles=128,
                           rng=rng, learning_rate=5e-2)
print("ELBO trace (every 20 iterations):")
for i in range(0, len(trace), 20):
    print(f"  iter {i:4d}: {trace[i]:8.4f}")

res = smc_run(path, kernel, 256, RngStream(1, 0), flows=flows)
elbo, _, log_z, _, _ = weight_criteria(res.particles.log_weights, False)
print(f"final sweep: ELBO {elbo:.4f}, log Z estimate {log_z:.4f} (truth 0)")

# Forward criteria transport exact target samples back through the flows.
samples = target.exact_sampler(RngStream(2, 0), 256)
lw = backward_transport_logweights(path, kernel, samples, RngStream(3, 0), flows=flows)
eubo, _, _, _, _ = weight_criteria(lw, True)
print(f"EUBO {eubo:.4f} (>= 0 = log Z >= ELBO)")
