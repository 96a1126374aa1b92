"""Bayesian logistic regression target built from a CSV dataset.

Expected file layout: comma-separated, UTF-8, one header row, feature columns
followed by a final binary {0,1} label column.  Features are standardized
column-wise in memory; the file is never modified.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..errors import IngestionError
from ..numerics.logspace import LOG_2PI
from .base import TargetDensity


def _read_csv(csv_path):
    path = Path(csv_path)
    if not path.exists():
        raise IngestionError(f"dataset file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestionError(f"{path}: empty file")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise IngestionError(f"{path}:{line_no}: non-numeric cell ({exc})") from exc
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
        raise IngestionError(f"{path}: need at least one feature column plus a label column")
    return header, data


def load_regression_target(csv_path, prior_scale: float = 1.0, add_bias: bool = False) -> TargetDensity:
    """log gamma(x) = log N(x | 0, prior_scale^2 I) + Bernoulli log-likelihood."""
    header, data = _read_csv(csv_path)
    features, labels = data[:, :-1], data[:, -1]
    label_col = header[-1]
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise IngestionError(f"label column {label_col!r} must be binary 0/1")

    stds = features.std(axis=0)
    for j, s in enumerate(stds):
        if s == 0.0:
            raise IngestionError(f"feature column {header[j]!r} is constant; cannot standardize")
    u = (features - features.mean(axis=0)) / stds
    if add_bias:
        u = np.column_stack([u, np.ones(len(u))])
    dim = u.shape[1]
    var_w = float(prior_scale) ** 2

    def value(x, logits):  # logits = x @ u.T, (n_points, n_data)
        # y*log(sig) + (1-y)*log(1-sig) = -softplus(-logit) - (1-y)*logit, stably
        loglik = -np.logaddexp(0.0, -logits) - (1.0 - labels) * logits
        prior = -0.5 * np.sum(x**2, axis=1) / var_w - 0.5 * dim * (LOG_2PI + np.log(var_w))
        return prior + loglik.sum(axis=1)

    def log_unnorm(x):
        return value(x, x @ u.T)

    def score_hvp(x):
        # value, score, and the sigmoid the HVP reads
        logits = x @ u.T
        sig = 1.0 / (1.0 + np.exp(-logits))

        def hvp(v):
            w = sig * (1.0 - sig)  # (n_points, n_data)
            return -v / var_w - (w * (v @ u.T)) @ u

        return value(x, logits), -x / var_w + (labels - sig) @ u, hvp

    return TargetDensity(
        dim=dim,
        log_unnorm=log_unnorm,
        score_hvp=score_hvp,
        name=f"logistic_{Path(csv_path).stem}_d{dim}",
    )
