"""Drift network: small MLP on (x, time embedding) plus score guidance.

The network computes f1(x, t) + f2(t) * score, where f1 is an MLP whose final
layer starts at zero and f2 is one learnable scalar per timestep initialized
to 1, so a fresh network outputs exactly the guided score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import UsageError
from .rng import RngStream
from .tape import Var


def sinusoidal_embedding(n_positions: int, dim: int) -> np.ndarray:
    """Transformer-style sin/cos position table, one row per timestep index."""
    pos = np.arange(n_positions)[:, None]
    half = dim // 2
    freq = np.exp(-np.log(10000.0) * (np.arange(half)[None, :] / max(half, 1)))
    ang = pos * freq
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@dataclass
class DriftNet:
    dim: int
    n_steps: int
    hidden_width: int = 64
    hidden_layers: int = 2
    time_embedding_dim: int = 64
    guidance: bool = True
    params: dict = field(default_factory=dict)
    emb_table: np.ndarray = None

    @classmethod
    def init(cls, dim, n_steps, rng: RngStream, hidden_width=64, hidden_layers=2,
             time_embedding_dim=64, guidance=True) -> "DriftNet":
        net = cls(dim, n_steps, hidden_width, hidden_layers, time_embedding_dim, guidance)
        net.emb_table = sinusoidal_embedding(n_steps + 1, time_embedding_dim)
        in_dim = dim + time_embedding_dim
        p = {}
        width = hidden_width
        for layer in range(hidden_layers):
            fan_in = in_dim if layer == 0 else width
            p[f"W{layer}"] = rng.normal((fan_in, width)) / np.sqrt(fan_in)
            p[f"b{layer}"] = np.zeros(width)
        # zero-initialized head keeps f1 identically zero at the start
        p["Wout"] = np.zeros((width, dim))
        p["bout"] = np.zeros(dim)
        p["f2"] = np.ones(n_steps + 1)
        net.params = p
        return net

    def step_index(self, t: float) -> int:
        if not 0.0 <= t <= 1.0:
            raise UsageError(f"time {t} outside [0, 1]")
        return int(round(t * self.n_steps))


def drift_forward(net: DriftNet, x, t: float, score=None, params=None):
    """Evaluate f1(x, t) + f2(t) * score (or f1 alone with guidance off).

    When `x`, `score` or a parameter value is a tape variable, the whole net is
    recorded as one tape node whose parents are exactly those variables.
    """
    p = net.params if params is None else params
    idx = net.step_index(t)
    names = [f"{kind}{layer}" for layer in range(net.hidden_layers) for kind in ("W", "b")]
    names += ["Wout", "bout"] + (["f2"] if net.guidance else [])
    inputs = [x, score] + [p[name] for name in names]
    is_var = [isinstance(v, Var) for v in inputs]
    x, score, *weights = [v.value if var else v for v, var in zip(inputs, is_var)]
    d = net.dim
    if np.ndim(x) != 2 or x.shape[1] != d:
        raise UsageError(f"input of shape {np.shape(x)} is not an (n, {d}) batch")
    if net.guidance:
        if score is None:
            raise UsageError("guidance is enabled but no score was provided")
        if score.shape[-1] != net.dim:
            raise UsageError("score dimension does not match network dimension")

    emb = net.emb_table[idx : idx + 1]  # (1, temb), constant w.r.t. parameters
    n_layers = net.hidden_layers
    W0, b0 = weights[0], weights[1]
    # split the first affine layer so the embedding term is computed once, not per row
    hidden = [np.tanh(x @ W0[:d] + emb @ W0[d:] + b0)]
    for layer in range(1, n_layers):
        hidden.append(np.tanh(hidden[-1] @ weights[2 * layer] + weights[2 * layer + 1]))
    out = hidden[-1] @ weights[2 * n_layers] + weights[2 * n_layers + 1]
    if net.guidance:
        out = out + score * weights[-1][idx]
    if not any(is_var):
        return out
    parents = [v for v, var in zip(inputs, is_var) if var]
    vjp = _drift_vjp(is_var, x, score, weights, hidden, emb, idx, net.guidance)
    return parents[0].tape.custom(out, parents, vjp, op="drift_net")


def _drift_vjp(is_var, x, score, weights, hidden, emb, idx, guidance):
    """Vector-Jacobian product of one drift-net call w.r.t. (x, score, *weights).

    Each product and sum is the one the op-by-op recording of the same net takes,
    in the same order, so the gradients are bitwise those of that recording.
    The closure holds arrays and the `is_var` mask only: a tape variable here
    would tie the tape into a reference cycle that outlives the training step.
    """
    d = x.shape[-1]
    head = 2 * len(hidden)  # weights[head:] = Wout, bout (, f2)

    def vjp(g):
        grads = [None] * len(is_var)  # aligned with (x, score, *weights)
        if guidance:
            f2 = weights[-1]
            if is_var[1]:
                grads[1] = g * f2[idx]
            g_f2 = np.zeros_like(f2)
            g_f2[idx] = (g * score).sum(axis=(0, 1))
            grads[-1] = g_f2
        grads[2 + head] = hidden[-1].T @ g
        grads[3 + head] = g.sum(axis=0)
        dh = g @ weights[head].T
        for layer in range(len(hidden) - 1, -1, -1):
            dz = dh * (1 - hidden[layer] ** 2)
            grads[3 + 2 * layer] = dz.sum(axis=0)
            if layer:
                grads[2 + 2 * layer] = hidden[layer - 1].T @ dz
                dh = dz @ weights[2 * layer].T
            else:  # W0's rows split into the x rows and the embedding rows
                grads[2] = np.concatenate([x.T @ dz, emb.T @ dz.sum(axis=0, keepdims=True)])
                grads[0] = dz @ weights[0][:d].T
        return tuple(gr for gr, var in zip(grads, is_var) if var)

    return vjp
