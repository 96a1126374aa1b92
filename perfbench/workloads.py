"""The benchmark's workloads: experiment configs generated from a seed.

Each workload is one `samplebench run` config.  Target layouts keep their
fixed defaults (MoG layout seed 12); the benchmark seed sets only the
config's `seeds`, so the same seed always gives the same inputs.

- smc_mog50: annealed SMC with HMC on MoG d=50, K=40.  Bound by target
  queries (mixture value + score at d=50); the tape never runs.  Fewer
  particles than `eval_samples`, so the short SMC sample return shows in
  `harness.eval_rows`.
- dds_mog2: DDS training on MoG d=2 (T=32, batch 128, guidance).  Bound by
  the autodiff tape and the drift net; the only caller of the score HVP.
- mfvi_mog2: mean-field VI on MoG d=2 with dense checkpoints.  Bound by the
  evaluation protocol (Sinkhorn W2, MMD, mode criteria); training spends
  many small d=2 target batches.
"""

from __future__ import annotations

WORKLOADS = ("smc_mog50", "dds_mog2", "mfvi_mog2")


def workload_config(name: str, seed: int, output_dir: str) -> dict:
    """The JSON config document of one workload run."""
    if name == "smc_mog50":
        target = {"name": "mog", "dim": 50}
        method = {"name": "smc", "particles": 128, "n_steps": 8, "kernel": "hmc",
                  "leapfrog_steps": 10, "step_size_low": 1.0, "step_size_high": 0.25,
                  "resampling": True}
        protocol = {"n_checkpoints": 1, "running_avg_len": 1, "eval_samples": 256,
                    "ipm_subsample": 256}
    elif name == "dds_mog2":
        target = {"name": "mog", "dim": 2}
        method = {"name": "dds", "iterations": 16, "batch_size": 128, "n_steps": 32,
                  "sigma_max": 12.0, "guidance": True, "learning_rate": 0.003}
        protocol = {"n_checkpoints": 2, "running_avg_len": 5, "eval_samples": 500,
                    "ipm_subsample": 128}
    elif name == "mfvi_mog2":
        target = {"name": "mog", "dim": 2}
        method = {"name": "mfvi", "iterations": 120, "batch_size": 512,
                  "learning_rate": 0.005}
        protocol = {"n_checkpoints": 3, "running_avg_len": 5, "eval_samples": 2000,
                    "ipm_subsample": 256}
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return {"schema_version": 1, "target": target, "method": method,
            "protocol": protocol, "seeds": [int(seed)], "output_dir": output_dir}
