"""Diagonal Gaussians: proposal distributions and simple test targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from ..numerics.logspace import LOG_2PI
from .base import TargetDensity


@dataclass
class DiagonalGaussian:
    """N(mean, diag(exp(2 log_std))); normalized, with analytic score."""

    mean: np.ndarray
    log_std: np.ndarray

    @classmethod
    def isotropic(cls, dim: int, scale: float = 1.0, mean: float = 0.0) -> "DiagonalGaussian":
        return cls(np.full(dim, float(mean)), np.full(dim, np.log(float(scale))))

    @property
    def dim(self) -> int:
        return len(self.mean)

    def log_density(self, x) -> np.ndarray:
        """log N(x) of an (n, dim) batch, (n,)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise UsageError(f"dimension mismatch: points of shape {x.shape} are not an "
                             f"(n, {self.dim}) batch")
        z = (x - self.mean) / np.exp(self.log_std)
        return -0.5 * np.sum(z**2, axis=1) - np.sum(self.log_std) - 0.5 * self.dim * LOG_2PI

    def grad_log_density(self, x) -> np.ndarray:
        return -(x - self.mean) / np.exp(2.0 * self.log_std)

    def sample(self, rng, n: int) -> np.ndarray:
        return self.mean + np.exp(self.log_std) * rng.normal((n, self.dim))


def make_gaussian_target(dim: int = 2, scale: float = 1.0, mean: float = 0.0) -> TargetDensity:
    """Normalized isotropic Gaussian as a sanity-check target (log Z = 0)."""
    dist = DiagonalGaussian.isotropic(dim, scale, mean)
    var = float(scale) ** 2

    def hvp(x, v):
        return -v / var

    return TargetDensity(
        dim=dim,
        log_unnorm=dist.log_density,
        log_unnorm_and_grad=lambda x: (dist.log_density(x), dist.grad_log_density(x)),
        true_log_z=0.0,
        exact_sampler=lambda rng, n: dist.sample(rng, n),
        score_hvp=hvp,
        name=f"gaussian_d{dim}",
    )


def make_unnormalized_gaussian_target(dim: int, scale: float = 1.0) -> TargetDensity:
    """gamma(x) = exp(-|x|^2 / (2 scale^2)) so Z = (2 pi scale^2)^(d/2)."""
    var = float(scale) ** 2
    log_z = 0.5 * dim * (LOG_2PI + np.log(var))

    def log_unnorm(x):
        return -0.5 * np.sum(x**2, axis=1) / var

    def log_unnorm_and_grad(x):
        return log_unnorm(x), -x / var

    dist = DiagonalGaussian.isotropic(dim, scale)
    return TargetDensity(
        dim=dim,
        log_unnorm=log_unnorm,
        log_unnorm_and_grad=log_unnorm_and_grad,
        true_log_z=log_z,
        exact_sampler=lambda rng, n: dist.sample(rng, n),
        score_hvp=lambda x, v: -v / var,
        name=f"unnorm_gaussian_d{dim}",
    )
