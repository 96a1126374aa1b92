"""Adam optimizer with bias correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import UsageError


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def init(cls, n_params: int, learning_rate: float = 1e-3, **kw) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), 0, learning_rate, **kw)


def adam_step(params, grads, state: AdamState):
    """One Adam update; returns (new_params, new_state)."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.first_moment.shape:
        raise UsageError(
            f"adam_step length mismatch: params {params.shape}, grads {grads.shape}, "
            f"moments {state.first_moment.shape}"
        )
    t = state.step_count + 1
    m = state.beta1 * state.first_moment + (1 - state.beta1) * grads
    v = state.beta2 * state.second_moment + (1 - state.beta2) * grads**2
    m_hat = m / (1 - state.beta1**t)
    v_hat = v / (1 - state.beta2**t)
    new_params = params - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    new_state = AdamState(m, v, t, state.learning_rate, state.beta1, state.beta2, state.epsilon)
    return new_params, new_state
