# The mode-collapse criteria side by side: a collapsed model can look good on
# reverse criteria while the forward criteria, EMC and EJS (the JS divergence
# of its mode histogram from the true mode weights) expose it.

import numpy as np

from samplebench.metrics import ejs, emc, mmd, sinkhorn_w2, weight_criteria
from samplebench.numerics import RngStream
from samplebench.targets import DiagonalGaussian, make_mog_target

target = make_mog_target(dim=2, seed=0)
rng = RngStream(0, 0)
truth = target.exact_sampler(rng, 1000)

# model A collapses onto one mode; model B blankets the whole support
component = target.exact_sampler(rng, 1)  # pick a mode location from a sample
collapsed = DiagonalGaussian(component[0], np.zeros(2))
blanket = DiagonalGaussian(np.zeros(2), np.full(2, np.log(40.0)))

for name, q in (("collapsed", collapsed), ("blanket", blanket)):
    x = q.sample(rng, 1000)
    lw_rev = target.query(x, score=False)[0] - q.log_density(x)
    lw_fwd = target.query(truth, score=False)[0] - q.log_density(truth)
    elbo, _, _, _, ess_rev = weight_criteria(lw_rev, False)
    eubo, _, _, _, ess_fwd = weight_criteria(lw_fwd, True)
    w2, _ = sinkhorn_w2(x[:200], truth[:200], max_iters=200)
    print(f"{name:9s}: ELBO {elbo:8.2f}  EUBO {eubo:9.2f}  "
          f"ESS_r {ess_rev:.3f}  ESS_f {ess_fwd:.2e}")
    modes = target.mode_model
    cells = modes.cell(x)
    print(f"           EMC {emc(cells, modes.n_modes):.3f}  "
          f"EJS {ejs(cells, modes.true_mode_probs):.3f}  "
          f"MMD {mmd(x[:500], truth[:500]):.3f}  W2 {w2:.1f}")
