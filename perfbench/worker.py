"""One benchmark repetition in a fresh process: set up, run, check, report.

Runs the user path of `samplebench run` (`run_experiment` + `emit_results`)
on one workload config and prints one JSON object as its last stdout line.
`run.py` starts it with BLAS pinned to one thread and the monotonic time at
which it started the process, so set-up time covers interpreter start,
imports, config parsing, target build and the fixed exact target samples.

    python3 perfbench/worker.py --workload dds_mog2 --seed 0 --trace 0 \
        --started <time.monotonic() before the spawn> --out <scratch dir>
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("SAMPLEBENCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
UNIT_INTERVAL = ("emc", "ejs", "ess_rev", "ess_fwd")
ROUNDING = 1e-9  # slack for [0, 1] criteria computed through exp/log


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    threads = blas_threads()
    env.update({
        "blas_threads": threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    })
    env["blas_pinned"] = all(env[v] == "1" for v in THREAD_VARS) and threads in (None, 1)
    return env


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def check_run(record, paths, true_log_z, csv_columns, criteria) -> list:
    """(name, passed) for every correctness check of one run.

    Each check holds for any seed of a correct program: they test ranges and
    bounds the estimators obey, never particular values.
    """
    checks = [("no_failed_seeds", not record.failures)]
    n_rows = 0
    for seed_rec in record.seed_records:
        for i, rep in enumerate(seed_rec.raw_reports):
            where = f"[seed={seed_rec.seed},ckpt={i}]"
            n_rows += 1
            checks.append((f"criteria_finite{where}",
                           all(_finite(getattr(rep, c)) for c in criteria)))
            checks.append((f"criteria_in_unit_interval{where}", all(
                _finite(getattr(rep, c)) and -ROUNDING <= getattr(rep, c) <= 1 + ROUNDING
                for c in UNIT_INTERVAL)))
            checks.append((f"elbo_below_log_z{where}", _finite(rep.elbo_se)
                           and rep.elbo <= true_log_z + 3.0 * rep.elbo_se))
            checks.append((f"eubo_above_log_z{where}", _finite(rep.eubo_se)
                           and rep.eubo >= true_log_z - 3.0 * rep.eubo_se))

    rows = list(csv.reader(io.StringIO(Path(paths["csv"]).read_text())))
    checks.append(("csv_parses_back", bool(rows) and tuple(rows[0]) == tuple(csv_columns)
                   and len(rows) - 1 == n_rows
                   and all(_is_number(cell) for row in rows[1:] for cell in row if cell)))

    try:
        summary = json.loads(Path(paths["summary"]).read_text())
        json_ok = (summary["schema_version"] == 1
                   and summary["seeds"] == sorted(record.config.seeds)
                   and set(summary["criteria"]) == set(criteria)
                   and all(set(v) == {"mean", "std", "n_seeds"}
                           for v in summary["criteria"].values()))
    except (ValueError, KeyError, TypeError):
        json_ok = False
    checks.append(("json_parses_back", json_ok))
    return checks


def output_digest(record, render_csv, render_json) -> str:
    """SHA-256 of the emitted CSV + JSON as rendered under a constant clock."""
    for seed_rec in record.seed_records:
        seed_rec.wall_clock = [0.0] * len(seed_rec.wall_clock)
    text = render_csv(record) + render_json(record)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Probe, Tracer, instrument, layer_metrics
    from workloads import workload_config

    import samplebench.harness.run as run_mod
    from samplebench.harness import (CSV_COLUMNS, emit_results, parse_config,
                                     render_checkpoint_csv, render_summary_json,
                                     run_experiment)
    from samplebench.metrics import MetricReport

    out = Path(args.out)
    config = parse_config(workload_config(args.workload, args.seed, str(out)))
    probe = Probe()
    probe.install(run_mod)
    tracer = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer)

    start = time.perf_counter()
    if tracer is None:
        record = run_experiment(config)
        paths = emit_results(record, out)
    else:
        record = tracer.call("harness.run_experiment", run_experiment, config)
        paths = tracer.call("harness.emit_results", emit_results, record, out)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment()
    true_log_z = probe.targets[0].true_log_z
    checks = check_run(record, paths, true_log_z, CSV_COLUMNS, MetricReport.CRITERIA)
    checks.append(("blas_pinned", env["blas_pinned"]))
    nfe_total = probe.nfe_total
    result = {
        "setup_s": probe.first_train - args.started,
        "run_s": run_s,
        "train_s": run_s - probe.eval_s,
        "eval_s": probe.eval_s,
        "nfe_train": nfe_total - probe.nfe_eval,
        "nfe_eval": probe.nfe_eval,
        "nfe_total": nfe_total,
        "peak_rss_mb": peak_rss_mb,
    }
    emit_bytes = sum(Path(p).stat().st_size for p in paths.values())
    for p in paths.values():
        Path(p).unlink()

    layers = None
    if tracer is not None:
        own_sum = sum(tracer.self_times())
        checks.append(("span_self_times_within_run_s", own_sum <= run_s))
        layers = layer_metrics(tracer, run_s)
        layers.update({"harness.emit_bytes": emit_bytes, "harness.train_s": result["train_s"],
                       "harness.nfe_train": result["nfe_train"]})
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "e2e": result,
        "layers": layers,
        "digest": output_digest(record, render_checkpoint_csv, render_summary_json),
        "failed_checks": [name for name, ok in checks if not ok],
        "n_checks": len(checks),
        "env": env,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
