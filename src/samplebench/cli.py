"""Command-line entry points: run experiments, ablations, or standalone metrics.

Exit codes: 0 success, 2 configuration/validation error, 3 runtime failure.
Set SAMPLEBENCH_THREADS to cap the BLAS thread pool.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path


def _apply_thread_override():
    threads = os.environ.get("SAMPLEBENCH_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="samplebench",
                                     description="Benchmark variational sampling methods.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--desk-scale", action="store_true",
                       help="apply reduced desk-scale training budgets")

    abl_p = sub.add_parser("ablate", help="run an ablation grid around a base config")
    abl_p.add_argument("--kind", required=True)
    abl_p.add_argument("--config", required=True)
    abl_p.add_argument("--out", default=None)
    abl_p.add_argument("--desk-scale", action="store_true")

    met_p = sub.add_parser("metrics", help="evaluate criteria from CSV samples")
    met_p.add_argument("--samples", required=True,
                       help="CSV with columns x_1..x_d and optionally a log-weight column")
    met_p.add_argument("--weights-col", default="log_w")
    met_p.add_argument("--target", required=True)
    met_p.add_argument("--dim", type=int, default=None)
    met_p.add_argument("--target-seed", type=int, default=None,
                       help="mog/mos layout seed (default: the builder's layout, as `run` "
                            "uses) and the exact-draw stream's seed (default 0)")
    met_p.add_argument("--csv-path", default=None, help="dataset path for logistic targets")
    met_p.add_argument("--ipm-samples", type=int, default=None,
                       help="samples for MMD and W2 (default: the protocol's ipm_subsample)")
    met_p.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def _cmd_run(args) -> int:
    from .harness import apply_desk_scale, emit_results, load_config, run_experiment

    config = load_config(args.config)
    if args.desk_scale:
        config = apply_desk_scale(config)
    if args.out:
        config.output_dir = args.out
    record = run_experiment(config)
    paths = emit_results(record, config.output_dir)
    print(f"wrote {paths['csv']} and {paths['summary']}")
    for name, stats in sorted(record.summary.items()):
        print(f"  {name:16s} {stats['mean']:.6g} +- {stats['std']:.3g}")
    if record.failures:
        print(f"  {len(record.failures)} seed(s) failed; see summary JSON")
        return 3
    return 0


def _cmd_ablate(args) -> int:
    from .harness import apply_desk_scale, emit_ablation, load_config, run_ablation

    config = load_config(args.config)
    if args.desk_scale:
        config = apply_desk_scale(config)
    if args.out:
        config.output_dir = args.out
    record = run_ablation(args.kind, config)
    paths = emit_ablation(record, config.output_dir)
    print(f"wrote {paths['csv']} and {paths['summary']}")
    n_failed = sum(len(run.failures) for _, _, run in record.cells)
    if n_failed:
        print(f"  {n_failed} seed(s) failed; see summary JSON")
        return 3
    return 0


def _load_samples_csv(path, weights_col):
    import numpy as np

    from .errors import IngestionError

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows, line_nums = [], []
        for row in reader:
            if row:
                rows.append(_csv_row(path, reader.line_num, header, row))
                line_nums.append(reader.line_num)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    x_cols = [i for i, name in enumerate(header) if name.startswith("x_")]
    if not x_cols:
        raise ValueError("samples CSV needs x_1..x_d columns")
    w_cols = [header.index(weights_col)] if weights_col in header else []
    read = sorted(x_cols + w_cols)
    bad = np.argwhere(~np.isfinite(data[:, read]))
    if len(bad):
        row, col = bad[0][0], read[bad[0][1]]
        raise IngestionError(f"{path}: line {line_nums[row]}, column {col + 1} "
                             f"({header[col]}) is {data[row, col]}, not a finite number")
    return data[:, x_cols], (data[:, w_cols[0]] if w_cols else None)


def _csv_row(path, line, header, row):
    """The row's cells as floats; IngestionError naming the line and column of a
    missing, extra or non-numeric cell."""
    from .errors import IngestionError

    if len(row) < len(header):
        col = len(row)
        raise IngestionError(f"{path}: line {line}, column {col + 1} ({header[col]}) is missing")
    if len(row) > len(header):
        raise IngestionError(f"{path}: line {line}, column {len(header) + 1} has no header")
    values = []
    for col, (name, cell) in enumerate(zip(header, row), start=1):
        try:
            values.append(float(cell))
        except ValueError:
            raise IngestionError(f"{path}: line {line}, column {col} ({name}) is {cell!r}, "
                                 "not a number") from None
    return values


def _cmd_metrics(args) -> int:
    from .errors import ConfigError
    from .harness import Protocol, build_target
    from .harness.config import RANGES, check_target
    from .harness.evaluate import sample_criteria
    from .metrics import MetricReport
    from .numerics.rng import RngStream

    x, log_w = _load_samples_csv(args.samples, args.weights_col)
    params = {}
    if args.dim is not None:
        params["dim"] = args.dim
    if args.target in ("mog", "mos") and args.target_seed is not None:
        params["seed"] = args.target_seed
    if args.target == "logistic":
        if not args.csv_path:
            raise ConfigError("logistic target needs --csv-path")
        params["csv_path"] = args.csv_path
    check_target(args.target, params)
    target = build_target(args.target, params)
    if x.shape[1] != target.dim:
        raise ConfigError(f"samples have dimension {x.shape[1]}, target has {target.dim}")

    protocol = Protocol()
    if args.ipm_samples is not None:
        in_range, text = RANGES["ipm_subsample"]
        if not in_range(args.ipm_samples):
            raise ConfigError(f"--ipm-samples must be {text}, got {args.ipm_samples}")
        protocol.ipm_subsample = args.ipm_samples
    ipm_samples = protocol.ipm_subsample
    y = None
    if target.exact_sampler is not None:
        y = target.exact_sampler(RngStream(args.target_seed or 0, 999), min(ipm_samples, len(x)))
    report = sample_criteria(x, log_w, target, y, ipm_samples, protocol.sinkhorn_iters)
    names = MetricReport.CRITERIA + ("w2_converged",)
    text = json.dumps({name: getattr(report, name) for name in names
                       if getattr(report, name) is not None}, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def main(argv=None) -> int:
    _apply_thread_override()
    args = build_parser().parse_args(argv)
    from .errors import ConfigError, IngestionError, UsageError

    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "ablate":
            return _cmd_ablate(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        return 2
    except (ConfigError, IngestionError, UsageError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
