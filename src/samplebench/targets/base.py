"""Target density interface: unnormalized log-density, score, and extras.

Target contract.  Every point set is an (n, d) float batch; a single point is
the batch x[None, :] of shape (1, d), never a 1-D array.  A target supplies two
batch callables over (n, d) arrays of finite points:

- `log_unnorm(x) -> (n,)`: log gamma(x), the value alone;
- `log_unnorm_and_grad(x) -> ((n,), (n, d))`: the value and the score
  grad log gamma(x) from one pass, so that both share the work they have in
  common (difference tensors, logits, mixture responsibilities).

Both must return the same value.  `score_hvp(x, v) -> (n, d)`, when present,
is the Hessian-vector product of log gamma at x; it lets the score take part
in reverse-mode training.  The callables may assume 2-D input: the public
methods of `TargetDensity` raise `UsageError` on any other shape or on a
non-finite point, count one NFE per point per call and return the callables'
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
from typing import Callable, Optional, Tuple

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

    See the module docstring for the contract of `log_unnorm`,
    `log_unnorm_and_grad` and `score_hvp`.  `grad_log_unnorm` is not a
    constructor argument: it is the score-only view of `log_unnorm_and_grad`
    that `grad` calls, kept as an attribute so instrumentation can wrap it.
    """

    dim: int
    log_unnorm: Callable[[np.ndarray], np.ndarray]
    log_unnorm_and_grad: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]
    true_log_z: Optional[float] = None
    exact_sampler: Optional[Callable] = None  # (RngStream, n) -> (n, d)
    mode_model: Optional[ModeModel] = None
    score_hvp: Optional[Callable] = None  # (x, v) -> (n, d)
    name: str = ""
    nfe: NfeCounter = field(default_factory=NfeCounter)
    grad_log_unnorm: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False,
                                                                compare=False)

    def __post_init__(self):
        self.grad_log_unnorm = lambda x: self.log_unnorm_and_grad(x)[1]

    def _batch(self, x) -> np.ndarray:
        """x as an (n, dim) float batch of finite points, counted as n NFE."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise UsageError(f"points of shape {x.shape} are not an (n, {self.dim}) batch")
        if not np.all(np.isfinite(x)):
            raise UsageError("target evaluated at non-finite point")
        self.nfe.add(len(x))
        return x

    def log_density(self, x) -> np.ndarray:
        return self.log_unnorm(self._batch(x))

    def grad(self, x) -> np.ndarray:
        return self.grad_log_unnorm(self._batch(x))

    def logdensity_and_grad(self, x):
        """Fused value+gradient from one `log_unnorm_and_grad` pass; one NFE per point."""
        return self.log_unnorm_and_grad(self._batch(x))
