"""Target densities with analytic scores, exact samplers, and mode descriptors."""

from .base import ModeModel, NfeCounter, TargetDensity
from .brownian import make_brownian_target
from .funnel import make_funnel_target
from .gaussian import DiagonalGaussian, make_gaussian_target, make_unnormalized_gaussian_target
from .logistic import load_regression_target
from .mixtures import MixtureSpec, make_mixture_target, make_mog_target, make_mos_target

__all__ = [
    "ModeModel",
    "NfeCounter",
    "TargetDensity",
    "make_brownian_target",
    "make_funnel_target",
    "DiagonalGaussian",
    "make_gaussian_target",
    "make_unnormalized_gaussian_target",
    "load_regression_target",
    "MixtureSpec",
    "make_mixture_target",
    "make_mog_target",
    "make_mos_target",
]
