"""Adam optimizer with bias correction, updating the trainer's own arrays in place."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First and second moments, one array shaped like each parameter array."""

    first_moments: list
    second_moments: list
    learning_rate: float = 1e-3
    step_count: int = 0

    @classmethod
    def init(cls, params, learning_rate: float = 1e-3) -> "AdamState":
        return cls([np.zeros(np.shape(p)) for p in params],
                   [np.zeros(np.shape(p)) for p in params], learning_rate)


def adam_step(params, grads, state: AdamState) -> None:
    """One Adam update of each float array in `params`, in place; advances `state`."""
    if not (len(params) == len(grads) == len(state.first_moments) and all(
            isinstance(p, np.ndarray) and p.dtype == float and p.shape == np.shape(g) == m.shape
            for p, g, m in zip(params, grads, state.first_moments))):
        raise UsageError(f"adam_step: params {[np.shape(p) for p in params]} and grads "
                         f"{[np.shape(g) for g in grads]} are not float arrays shaped like "
                         f"the moments {[m.shape for m in state.first_moments]}")
    state.step_count += 1
    c1, c2 = 1 - BETA1**state.step_count, 1 - BETA2**state.step_count
    for p, g, m, v in zip(params, grads, state.first_moments, state.second_moments):
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g**2
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + EPSILON)
