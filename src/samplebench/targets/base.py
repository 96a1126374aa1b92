"""Target density interface: unnormalized log-density, score, and extras.

Target contract.  Every point set is an (n, d) float batch; a single point is
the batch x[None, :] of shape (1, d), never a 1-D array.  A target supplies two
batch callables over (n, d) arrays of finite points:

- `log_unnorm(x) -> (n,)`: log gamma(x), the value alone;
- `score_hvp(x) -> ((n,), (n, d), hvp or None)`: the value, the score
  grad log gamma(x) and the Hessian-vector product from one pass, so that all
  three share the work they have in common (difference tensors, logits,
  mixture responsibilities).  `hvp(v) -> (n, d)` is the Hessian of log gamma
  at x applied to an (n, d) batch v: a closure over the forward pass's
  intermediates (the mixture responsibilities, the logistic sigmoid), so it
  recomputes none of them and lets the score take part in reverse-mode
  training.  A target without one returns None in its place.

Both must return the same value, bitwise.  The callables may assume 2-D input;
they are read only through `TargetDensity.query`, the one counted query, which
raises `UsageError` on any other shape or on a non-finite point, counts one
NFE per point per call (an `hvp` call counts none) and returns the callables'
output as is.

Mode-model contract.  A target with modes supplies a `ModeModel` of M >= 2
disjoint mode cells and `cell(x) -> (n,)`, the integer cell in [0, M) of each
point of an (n, d) batch; it is not a target query and counts no NFE.
EMC and EJS (`metrics.emc`, `metrics.ejs`) take these cells.
`ModeModel.prob(x)` is the same assignment as (n, M) one-hot rows.
`true_mode_probs`, when known, is the target's mass in each cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..errors import UsageError


class NfeCounter:
    """Count of target queries (one per point per fused call).

    Samplers query targets from one thread, so the counter takes no lock.
    """

    def __init__(self):
        self._value = 0

    def add(self, n: int):
        self._value += int(n)

    @property
    def value(self) -> int:
        return self._value

    def reset(self):
        self._value = 0


@dataclass
class ModeModel:
    """Mode descriptors: each point's cell among M disjoint mode cells (see above)."""

    n_modes: int
    cell: Callable[[np.ndarray], np.ndarray]  # (n, d) -> (n,) integers in [0, M)
    true_mode_probs: Optional[np.ndarray] = None

    def prob(self, x) -> np.ndarray:
        """(n, M) one-hot rows of the points' cells."""
        return np.eye(self.n_modes)[self.cell(x)]


@dataclass
class TargetDensity:
    """Unnormalized density gamma with analytic score; batch-first evaluation.

    See the module docstring for the contract of `log_unnorm` and `score_hvp`.
    `grad_log_unnorm` is not a constructor argument: it is the score-only view
    of `score_hvp`, and the bench's tracer (`perfbench/tracing.py`), which
    wraps it, is its only reader.
    """

    dim: int
    log_unnorm: Callable[[np.ndarray], np.ndarray]
    score_hvp: Callable  # x -> ((n,), (n, d), hvp or None), hvp: v -> (n, d)
    true_log_z: Optional[float] = None
    exact_sampler: Optional[Callable] = None  # (RngStream, n) -> (n, d)
    mode_model: Optional[ModeModel] = None
    name: str = ""
    nfe: NfeCounter = field(default_factory=NfeCounter)
    grad_log_unnorm: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False,
                                                                compare=False)

    def __post_init__(self):
        self.grad_log_unnorm = lambda x: self.score_hvp(x)[1]

    def query(self, x, *, score: bool, hvp: bool = False):
        """(log gamma, grad log gamma or None, hvp closure or None) at an (n, dim) batch
        of finite points; one NFE per point.

        The value alone is `log_unnorm`'s; with `score` (which `hvp` implies) all
        come from one `score_hvp` pass, and the closure is handed back only when
        `hvp` asks for it, so a carried query pins none of its intermediates.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise UsageError(f"points of shape {x.shape} are not an (n, {self.dim}) batch")
        if not np.all(np.isfinite(x)):
            raise UsageError("target evaluated at non-finite point")
        if score or hvp:
            value, grad, closure = self.score_hvp(x)
            if hvp and closure is None:
                raise UsageError(f"target {self.name!r} has no score_hvp; training through "
                                 "the score needs one (or set score_stop_gradient)")
            out = value, grad, closure if hvp else None
        else:
            out = self.log_unnorm(x), None, None
        self.nfe.add(len(x))
        return out
