# Drive an end-to-end experiment through the harness: config, protocol with
# smoothed checkpoints, best-ELBO selection, and CSV/JSON emission. The outputs
# go to a temporary folder, removed once they are printed.

import tempfile
from pathlib import Path

from samplebench.harness import emit_results, parse_config, run_experiment

with tempfile.TemporaryDirectory(prefix="samplebench_demo_") as out_dir:
    config = parse_config({
        "schema_version": 1,
        "target": {"name": "mog", "dim": 2, "seed": 0},
        "method": {"name": "mfvi", "iterations": 2000, "batch_size": 256,
                   "learning_rate": 5e-3},
        "protocol": {"n_checkpoints": 10, "running_avg_len": 5, "eval_samples": 500,
                     "ipm_subsample": 128, "sinkhorn_iters": 100},
        "seeds": [0, 1],
        "output_dir": out_dir,
    })

    record = run_experiment(config)
    paths = emit_results(record, config.output_dir)
    print(f"wrote {paths['csv'].name} and {paths['summary'].name} to {config.output_dir}\n")

    print("cross-seed summary (best smoothed checkpoint per seed):")
    for name, stats in sorted(record.summary.items()):
        print(f"  {name:16s} {stats['mean']:10.4g} +- {stats['std']:.3g}")

    print("\nfirst CSV rows:")
    for line in Path(paths["csv"]).read_text().splitlines()[:4]:
        print(" ", line[:100])
