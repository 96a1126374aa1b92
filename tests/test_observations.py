"""The paper's observations O1, O2 and O5, read off real sampler runs.

MoG with K=40 at d=2, 5 and 10, seeds 0-7, one checkpoint of 512 samples,
through `run_experiment` as a user runs it.  SMC is HMC with 512 particles
and 32 temperatures; MFVI is 1,000 iterations at batch 256.

- O1: mode coverage (EMC) falls with the dimension, on SMC and on MFVI.
- O2 and O5: at d >= 5 SMC collapses onto a few modes, yet its reverse ESS
  stays as high as at d=2, while its forward ESS reads the collapse.

Every comparison is of two rows of 8 seeds.  Its margin comes from the runs'
own seed spread: the difference of the seed means must exceed four standard
errors of that difference, sqrt(s_a^2 / 8 + s_b^2 / 8), with s the seeds'
sample standard deviation.  A seed-to-seed accident that large has a
probability below 1e-3 (t-distribution, 14 degrees of freedom).
"""

import numpy as np
import pytest

from samplebench.harness import parse_config, run_experiment

SEEDS = list(range(8))
DIMS = (2, 5, 10)
METHODS = {
    "smc": {"name": "smc", "particles": 512, "n_steps": 32, "kernel": "hmc"},
    "mfvi": {"name": "mfvi", "iterations": 1000, "batch_size": 256},
}


@pytest.fixture(scope="module")
def criteria():
    """{(method, d): {criterion: the 8 seeds' values}}."""
    out = {}
    for method, spec in METHODS.items():
        for dim in DIMS:
            config = parse_config({
                "schema_version": 1, "target": {"name": "mog", "dim": dim}, "method": spec,
                "protocol": {"n_checkpoints": 1, "running_avg_len": 1, "eval_samples": 512,
                             "ipm_subsample": 0},
                "seeds": SEEDS, "output_dir": "unused"})
            record = run_experiment(config)
            reports = [seed_rec.raw_reports[0] for seed_rec in record.seed_records]
            assert len(reports) == len(SEEDS)
            out[method, dim] = {name: np.array([getattr(r, name) for r in reports])
                                for name in ("emc", "ess_rev", "ess_fwd")}
    return out


def _clearly_above(high, low):
    """The seed mean of `high` exceeds that of `low` by four standard errors."""
    se = np.sqrt(np.var(high, ddof=1) / len(high) + np.var(low, ddof=1) / len(low))
    return high.mean() - low.mean() > 4.0 * se


@pytest.mark.parametrize("method, pairs", [
    ("smc", [(2, 5), (2, 10)]),  # at d=5 and d=10 SMC already sits in one mode or two
    ("mfvi", [(2, 5), (5, 10)]),
], ids=["smc", "mfvi"])
def test_o1_mode_coverage_falls_with_dimension(criteria, method, pairs):
    for low_dim, high_dim in pairs:
        assert _clearly_above(criteria[method, low_dim]["emc"], criteria[method, high_dim]["emc"])


@pytest.mark.parametrize("dim", [5, 10])
def test_o2_o5_smc_reverse_ess_misses_the_collapse_that_forward_ess_reads(criteria, dim):
    smc, base = criteria["smc", dim], criteria["smc", 2]
    assert _clearly_above(base["emc"], smc["emc"])  # the collapse
    # the reverse ESS is not clearly below its value at d=2 ...
    assert not _clearly_above(base["ess_rev"], smc["ess_rev"])
    # ... while the forward ESS is, and clearly below the reverse ESS
    assert _clearly_above(base["ess_fwd"], smc["ess_fwd"])
    assert _clearly_above(smc["ess_rev"], smc["ess_fwd"])
