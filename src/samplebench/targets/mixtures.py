"""Mixture targets: isotropic Gaussians (MoG) and per-dimension Student-t (MoS).

Components have uniform weights 1/K and means drawn i.i.d. per coordinate from
a uniform range, so the mixture is normalized (log Z = 0) and admits an exact
sampler.  Mode descriptors assign each point to the argmax-density component,
taken over the same (K, n) log-terms the value queries build.

The log-terms are stored component-major, one row per component and one
column per point, so every softmax reduction (max, sum) runs across the K rows
of contiguous n-wide arrays rather than along each short K-wide row, which is
numpy's slow direction.  Gaussian-mixture values, scores and HVPs are computed
by matmul through the expansion |x - mu|^2 = |x|^2 - 2 x.mu + |mu|^2, and the
HVP closure keeps only the query's (K, n) responsibilities; Student-t mixtures
have no such expansion and share one (K, n, d) offset tensor between value and
score.

Every query takes one softmax over the (K, n) log-terms, in place in that
temporary, through the shared clamped exp (`numerics.logspace`).  Far-apart
components put most shifted log-terms below -745, where numpy's exp underflows
on a slow path; they are clamped at -700 first.  Each column holds its shifted
maximum exp(0) = 1, so a clamped term (at most e^-700, about 1e-304) is absorbed
in rounding: the log-sum-exp, the score and the HVP keep their bits, and only
responsibilities that would be 0 or subnormal read about 1e-304 instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics.logspace import LOG_2PI, exp_shifted_inplace
from ..numerics.rng import RngStream
from .base import ModeModel, TargetDensity

T2_LOG_NORM = -np.log(2.0 * np.sqrt(2.0))  # log of the t_2 density at its mode


@dataclass
class MixtureSpec:
    n_components: int
    dim: int
    kind: str = "gaussian"  # "gaussian" (unit covariance) or "student_t2"
    mean_low: float = -40.0
    mean_high: float = 40.0
    seed: int = 0

    def draw_means(self) -> np.ndarray:
        rng = RngStream(self.seed, stream_id=0)
        return rng.uniform(self.mean_low, self.mean_high, (self.n_components, self.dim))


def _t2_logdensities(diff_sq: np.ndarray) -> np.ndarray:
    """Products of independent univariate t_2 densities, from squared offsets (K, n, d)."""
    return np.sum(T2_LOG_NORM - 1.5 * np.log1p(diff_sq / 2.0), axis=-1)


def _log_sum_and_resp(comp: np.ndarray):
    """Column log-sum-exp of (K, n) log-terms and the softmax responsibilities.

    The responsibilities are computed in `comp`, which callers pass as a temporary.
    """
    peak = exp_shifted_inplace(comp, axis=0)
    total = comp.sum(axis=0)
    comp *= 1.0 / total
    return np.log(total) + peak, comp


def make_mixture_target(spec: MixtureSpec) -> TargetDensity:
    if spec.kind not in ("gaussian", "student_t2"):
        raise ValueError(f"unknown mixture kind {spec.kind!r}")
    means = spec.draw_means()
    k = spec.n_components
    log_k = np.log(k)

    if spec.kind == "gaussian":
        # log N(x | mu_k, I) = x.mu_k - |mu_k|^2/2 - |x|^2/2 - d log(2 pi)/2: the
        # first two terms decide the responsibilities and come from one matmul
        half_sq_means = 0.5 * np.sum(means**2, axis=1, keepdims=True)
        offset = 0.5 * spec.dim * LOG_2PI + log_k

        def log_terms(x):
            comp = means @ x.T
            comp -= half_sq_means
            return comp

        def log_unnorm(x):
            lse, _ = _log_sum_and_resp(log_terms(x))
            return lse - 0.5 * np.sum(x * x, axis=1) - offset

        def score_hvp(x):
            # value, score = m - x with m = r.mu, and the responsibilities r the HVP reads
            lse, r = _log_sum_and_resp(log_terms(x))

            def hvp(v):
                # Hessian of log gamma = Cov_r(mu) - I, applied as E_r[mu mu^T] v - m m^T v - v;
                # m is remade by forward's own matmul, so the closure holds no (n, d) array
                m = r.T @ means
                rv = means @ v.T
                rv *= r
                return rv.T @ means - m * np.sum(m * v, axis=1, keepdims=True) - v

            return lse - 0.5 * np.sum(x * x, axis=1) - offset, r.T @ means - x, hvp

    else:

        def log_terms(x):
            return _t2_logdensities((x[None, :, :] - means[:, None, :]) ** 2)

        def log_unnorm(x):
            lse, _ = _log_sum_and_resp(log_terms(x))
            return lse - log_k

        def score_hvp(x):
            diff = x[None, :, :] - means[:, None, :]  # (K, n, d)
            diff_sq = diff**2
            lse, r = _log_sum_and_resp(_t2_logdensities(diff_sq))
            # d/dx log t_2 per coordinate: -3u/(2+u^2), u = x - mu; no HVP
            return lse - log_k, np.einsum("kn,knd->nd", r, -3.0 * diff / (2.0 + diff_sq)), None

    def sampler(rng: RngStream, n: int):
        comps = rng.integers(k, size=n)
        if spec.kind == "gaussian":
            noise = rng.normal((n, spec.dim))
        else:
            noise = rng.standard_t(2.0, (n, spec.dim))
        return means[comps] + noise

    def mode_cell(x):
        return np.argmax(log_terms(x), axis=0)  # ties resolve to the lowest index

    return TargetDensity(
        dim=spec.dim,
        log_unnorm=log_unnorm,
        score_hvp=score_hvp,
        true_log_z=0.0,
        exact_sampler=sampler,
        mode_model=ModeModel(k, mode_cell, np.full(k, 1.0 / k)),
        name=f"{'mog' if spec.kind == 'gaussian' else 'mos'}_d{spec.dim}_k{k}",
    )


def make_mog_target(dim: int = 2, n_components: int = 40, seed: int = 12) -> TargetDensity:
    """Mixture of 40 unit-covariance Gaussians, means uniform on [-40, 40]^d.

    The default seed fixes the benchmark's reference layout.
    """
    return make_mixture_target(MixtureSpec(n_components, dim, "gaussian", -40.0, 40.0, seed))


def make_mos_target(dim: int = 2, n_components: int = 10, seed: int = 0) -> TargetDensity:
    """Mixture of Student-t(2) products, means uniform on [-10, 10]^d."""
    return make_mixture_target(MixtureSpec(n_components, dim, "student_t2", -10.0, 10.0, seed))
