"""Result emission: per-checkpoint CSV and summary JSON with stable formatting."""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..metrics import MetricReport

CSV_COLUMNS = (("seed", "checkpoint", "nfe") + MetricReport.CRITERIA
               + ("w2_converged", "wall_clock_s"))


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def render_checkpoint_csv(record) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for seed_rec in sorted(record.seed_records, key=lambda r: r.seed):
        for i, report in enumerate(seed_rec.reports):
            row = {
                "seed": seed_rec.seed,
                "checkpoint": i,
                "nfe": report.nfe_at_eval,
                "w2_converged": report.w2_converged,
                "wall_clock_s": seed_rec.wall_clock[i],
            }
            for name in MetricReport.CRITERIA:
                row[name] = getattr(report, name)
            lines.append(",".join(format_cell(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def render_summary_json(record) -> str:
    body = {
        "schema_version": 1,
        "method": record.config.method_name,
        "target": record.config.target_name,
        "seeds": sorted(record.config.seeds),
        "criteria": record.summary,
        "failures": record.failures,
        "best_checkpoints": {
            str(r.seed): r.best_index
            for r in sorted(record.seed_records, key=lambda s: s.seed)
        },
    }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _atomic_write(files):
    """Write each (path, text) of `files` through `<name>.tmp`: all of them or none.

    Every temporary file is written before the first rename.  A failed write or
    rename removes the temporary files and the files this call already put in place.
    """
    moves = [(path.with_suffix(path.suffix + ".tmp"), path, text) for path, text in files]
    placed = []
    try:
        for tmp, _, text in moves:
            tmp.write_text(text)
        for tmp, path, _ in moves:
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for tmp, _, _ in moves:
            tmp.unlink(missing_ok=True)
        for path in placed:
            path.unlink(missing_ok=True)
        raise


def emit_results(record, out_dir) -> dict:
    """Write <label>_checkpoints.csv and <label>_summary.json atomically, both or neither.

    On an unwritable path no file of this call is left behind.  Returns the paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    label = record.config.label()
    csv_path = out / f"{label}_checkpoints.csv"
    json_path = out / f"{label}_summary.json"
    _atomic_write([(csv_path, render_checkpoint_csv(record)),
                   (json_path, render_summary_json(record))])
    return {"csv": csv_path, "summary": json_path}
