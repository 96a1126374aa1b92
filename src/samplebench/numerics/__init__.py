"""Numeric substrate: log-space reductions, seeded streams, Adam, autodiff, drift nets."""

from .adam import AdamState, adam_step
from .logspace import log_mean_exp, log_sum_exp
from .nets import DriftNet, drift_forward, sinusoidal_embedding
from .rng import RngStream
from .tape import Tape, Var

__all__ = [
    "AdamState",
    "adam_step",
    "log_mean_exp",
    "log_sum_exp",
    "DriftNet",
    "drift_forward",
    "sinusoidal_embedding",
    "RngStream",
    "Tape",
    "Var",
]
