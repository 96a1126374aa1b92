"""samplebench benchmark: end-to-end and per-layer figures of three workloads.

    python3 perfbench/run.py --workload smc_mog50 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Run from the repository root.  Each repetition is a fresh worker process
(`worker.py`) with BLAS pinned to one thread, started again and again until
`--seconds` have passed (at least three times).  `--trace 0` reports the
median of the end-to-end metrics over the repetitions; `--trace 1`
alternates untraced and traced repetitions and reports the median per-layer
metrics of the traced ones, with the tracing overhead.  Every repetition runs
the correctness checks; each check is one attempted operation and each failed
check (or crashed repetition) one failed operation.  The last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  Scratch
output goes to `.perfbench_out/` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
DEADLINE_S = 170.0  # a run of one workload must exit within 180 s
PINNED = {var: "1" for var in ("SAMPLEBENCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = {  # name -> unit; each value is the median over untraced repetitions
    "setup_s": "s",
    "run_s": "s",
    "eval_s": "s",
    "nfe_eval": "points",
    "nfe_total": "points",
    "peak_rss_mb": "MB",
}
INFO = {"train_s": "s", "nfe_train": "points"}  # printed, not gated: both are 0 for SMC
LAYER_UNITS = {"_s": "s", "_ms": "ms", "_frac": "ratio", "_accept": "ratio",
               "us_per_point": "us", "_bytes": "bytes"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload, seed, traced, out_dir, deadline) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--started", repr(started), "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerFailed(f"{workload}: worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload, seed, seconds, trace, out_dir, deadline) -> dict:
    """Repeat the workload for `seconds`; return its aggregated result."""
    begin = time.monotonic()
    kinds = (False, True) if trace else (False,)
    reps, crashed, rounds = [], 0, 0
    while rounds < MIN_ROUNDS or time.monotonic() - begin < seconds:
        if time.monotonic() >= deadline:
            break
        for traced in kinds:
            try:
                reps.append(run_worker(workload, seed, traced, out_dir, deadline))
            except WorkerFailed as exc:
                crashed += 1
                print(exc, file=sys.stderr)
        rounds += 1
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if not plain or (trace and not traced_reps):
        raise WorkerFailed(f"{workload}: no repetition finished")

    digests = {r["digest"] for r in reps}
    attempted = sum(r["n_checks"] for r in reps) + 1 + crashed
    failed = sum(len(r["failed_checks"]) for r in reps) + (len(digests) != 1) + crashed
    e2e = {name: [r["e2e"][name] for r in plain] for name in {**END_TO_END, **INFO}}
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "repetitions": len(plain), "traced_repetitions": len(traced_reps),
              "crashed": crashed, "digests": sorted(digests), "attempted": attempted,
              "failed": failed, "failed_checks": sorted({c for r in reps
                                                         for c in r["failed_checks"]}),
              "env": reps[-1]["env"], "e2e": e2e}
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced_reps)
                  for name in traced_reps[0]["layers"]}
        layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(e2e["run_s"])
        result["layers"] = layers
    return result


def report(result, trace) -> dict:
    """Print the human-readable table; return the metrics of the result line."""
    w = result["workload"]
    print(f"== {w}  seed {result['seed']}  {result['repetitions']} untraced"
          + (f" + {result['traced_repetitions']} traced" if trace else "")
          + f" repetitions  digest {','.join(d[:16] for d in result['digests'])}")
    metrics = {}
    for name, unit in {**END_TO_END, **INFO}.items():
        q1, med, q3 = quartiles(result["e2e"][name])
        tag = "" if name in END_TO_END else "  (info)"
        print(f"  {name:<14} {med:>14.6g} {unit:<7} q1 {q1:.6g}  q3 {q3:.6g}{tag}")
        if not trace and name in END_TO_END:
            metrics[name] = {"value": med, "unit": unit}
    if trace:
        for name, value in sorted(result["layers"].items()):
            print(f"  {name:<32} {value:>14.6g} {layer_unit(name)}")
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    env = result["env"]
    print(f"  env {json.dumps(env, sort_keys=True)}")
    if not env["blas_pinned"]:
        print("  WARNING: BLAS threads are not pinned to 1", file=sys.stderr)
    print(f"  checks {result['attempted'] - result['failed']}/{result['attempted']} passed"
          + (f"; failed: {', '.join(result['failed_checks'])}" if result["failed"] else ""))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="samplebench benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "samplebench" / "__init__.py").is_file():
        print(f"no samplebench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            result = run_workload(name, args.seed, args.seconds, args.trace, out_dir, deadline)
            (out_dir / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(result, indent=1, sort_keys=True))
            for metric, value in report(result, args.trace).items():
                metrics[metric if len(names) == 1 else f"{name}/{metric}"] = value
            attempted += result["attempted"]
            failed += result["failed"]
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
