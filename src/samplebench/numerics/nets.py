"""Drift network: small MLP on (x, time embedding) plus score guidance.

The network computes f1(x, t) + f2(t) * score, where f1 is an MLP whose final
layer starts at zero and f2 is one learnable scalar per timestep initialized
to 1, so a fresh network outputs exactly the guided score.

The MLP f1 and its vector-Jacobian product compute in float32: each call casts
x and the embedding row down, keeps the float32 input and hidden activations
for the VJP, and casts f1 and every gradient back to float64.  The MLP's
weights are cast once per parameter value (`float32_weights`): a simulation
makes one set and hands it to every call, whose VJPs all hold that one set,
and a call given none casts its own.  The guidance term f2(t) * score and its
gradients, the weights themselves (Adam's master copy), and everything outside
the net stay float64.
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
    hidden_width: int
    hidden_layers: int
    time_embedding_dim: int
    guidance: bool
    params: dict = field(default_factory=dict)
    emb_table: np.ndarray = None
    param_names: tuple = ()  # W0, b0, ..., Wout, bout (, f2 with guidance), in call order

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
        net.param_names = tuple(name for name in p if guidance or name != "f2")
        return net


def float32_weights(net: DriftNet, params=None) -> list:
    """The MLP's weights (W*, b*, Wout, bout; tape variables read by value) cast to
    float32, in `param_names` order.  Every call on the same values may share it."""
    p = net.params if params is None else params
    return [np.asarray(v.value if isinstance(v, Var) else v, dtype=np.float32)
            for v in (p[name] for name in net.param_names[: 2 * net.hidden_layers + 2])]


def drift_forward(net: DriftNet, x, idx: int, score=None, params=None, weights32=None):
    """Evaluate f1(x, t) + f2(t) * score (or f1 alone with guidance off) at the
    state index `idx` in 0..n_steps, which picks the time embedding and f2 entry.

    `weights32` is `float32_weights` of the same parameters, made once by the
    caller; without it the call casts its own.  When `x`, `score` or a parameter
    value is a tape variable, the whole net is recorded as one tape node whose
    parents are exactly those variables.
    """
    if not (isinstance(idx, (int, np.integer)) and 0 <= idx <= net.n_steps):
        raise UsageError(f"step index {idx!r} is not an integer in 0..{net.n_steps}")
    p = net.params if params is None else params
    inputs = [x, score] + [p[name] for name in net.param_names]
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

    n_layers = net.hidden_layers
    head = 2 * n_layers  # weights[head:] = Wout, bout (, f2)
    # the MLP runs in float32 on the shared weight casts; f2 and the score stay float64
    x32, emb = (np.asarray(v, dtype=np.float32) for v in (x, net.emb_table[idx : idx + 1]))
    mlp = weights32 if weights32 is not None else float32_weights(net, p)
    W0, b0 = mlp[0], mlp[1]
    # split the first affine layer so the embedding term is computed once, not per
    # row; each tanh runs in place, in its pre-activation's buffer
    z = x32 @ W0[:d] + (emb @ W0[d:] + b0)
    hidden = [np.tanh(z, out=z)]
    for layer in range(1, n_layers):
        z = hidden[-1] @ mlp[2 * layer] + mlp[2 * layer + 1]
        hidden.append(np.tanh(z, out=z))
    out = (hidden[-1] @ mlp[head] + mlp[head + 1]).astype(float)
    f2 = weights[-1] if net.guidance else None
    if f2 is not None:
        out += score * f2[idx]
    if not any(is_var):
        return out
    parents = [v for v, var in zip(inputs, is_var) if var]
    vjp = _drift_vjp(is_var, x32, score, f2, mlp, hidden, emb, idx)
    return parents[0].tape.custom(out, parents, vjp, op="drift_net")


def _drift_vjp(is_var, x32, score, f2, mlp, hidden, emb, idx):
    """Vector-Jacobian product of one drift-net call w.r.t. (x, score, *weights).

    The MLP's backward pass runs in float32 on the forward's float32 arrays: the
    input `x32`, `mlp` (the W and b arrays, head included: the set every call of
    the simulation shares), the activations `hidden` and the embedding row `emb`.
    The guidance term's gradients (from `score` and `f2`, None without guidance)
    and bout's (a column sum of the adjoint) are computed in float64.  Every gradient returned is float64.
    The closure holds arrays and the `is_var` mask only: a tape variable here
    would tie the tape into a reference cycle that outlives the training step.
    """
    d = x32.shape[-1]
    head = 2 * len(hidden)

    def vjp(g):
        grads = [None] * len(is_var)  # aligned with (x, score, *weights)
        if f2 is not None:
            if is_var[1]:
                grads[1] = g * f2[idx]
            g_f2 = np.zeros_like(f2)
            g_f2[idx] = np.vdot(g, score)
            grads[-1] = g_f2
        grads[3 + head] = g.sum(axis=0)
        g = g.astype(np.float32)
        grads[2 + head] = hidden[-1].T @ g
        dh = g @ mlp[head].T
        for layer in range(len(hidden) - 1, -1, -1):
            dz = np.square(hidden[layer])  # dz = dh * (1 - h²), in one buffer
            np.subtract(1, dz, out=dz)
            dz *= dh
            grads[3 + 2 * layer] = db = dz.sum(axis=0)
            if layer:
                grads[2 + 2 * layer] = hidden[layer - 1].T @ dz
                dh = dz @ mlp[2 * layer].T
            else:  # W0's rows split into the x rows and the embedding rows
                grads[2] = np.concatenate([x32.T @ dz, emb.T @ db[None]])
                grads[0] = dz @ mlp[0][:d].T
        return tuple(gr.astype(float, copy=False) for gr, var in zip(grads, is_var) if var)

    return vjp
