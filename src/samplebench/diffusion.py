"""Discrete-time diffusion samplers as forward/backward Gaussian kernel pairs.

Methods: ULA, MCD, CMCD (annealed Langevin family), DDS, PIS, DIS (reference
process family), and GBS (two free drift networks).  A trajectory accumulates
log B - log F per hop plus endpoint terms, giving the extended importance
weight; simulation runs either on plain arrays (evaluation) or on the autodiff
tape (training, reparameterized through the noise).

Hop s in 1..T moves x_{s-1} to x_s and uses sigma_s, so the vanishing cosine
endpoint sigma_0 = 0 is never evaluated.  Kernels anchored at a state use that
state's own temperature for scores and drift-net times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import TrainingError, UnsupportedCriterionError, UsageError
from .numerics.adam import AdamState, adam_step
from .numerics.logspace import LOG_2PI, log_mean_exp
from .numerics.nets import DriftNet, drift_forward
from .numerics.rng import RngStream
from .numerics.tape import Tape, Var
from .targets.base import TargetDensity
from .targets.gaussian import DiagonalGaussian

LANGEVIN_METHODS = ("ula", "mcd", "cmcd")
ALL_METHODS = ("ula", "mcd", "cmcd", "dds", "pis", "dis", "gbs")


@dataclass
class TrainableFlags:
    sigma: bool = False
    betas: bool = False
    proposal: bool = False


@dataclass
class DiffusionSpec:
    method: str
    dim: int
    n_steps: int = 128
    sigma_max: float = 1.0
    sigma_schedule: str = "cosine"  # "cosine" or "constant"
    proposal: Optional[DiagonalGaussian] = None  # None only for PIS (point mass at 0)
    drift_net: Optional[DriftNet] = None
    backward_net: Optional[DriftNet] = None  # GBS only
    guidance: bool = True
    trainable: TrainableFlags = field(default_factory=TrainableFlags)
    betas: Optional[np.ndarray] = None          # annealing grid for Langevin methods
    beta_phi: Optional[np.ndarray] = None       # raw increments when betas are trainable
    sigma_raw: Optional[float] = None           # log sigma_max when sigma is trainable
    dds_literal_table: bool = False
    score_stop_gradient: bool = False

    @classmethod
    def create(cls, method: str, dim: int, rng: RngStream, n_steps: int = 128,
               sigma0: float = 1.0, sigma_max: float = 1.0, guidance: bool = True,
               sigma_schedule: str = "cosine", hidden_width: int = 64,
               time_embedding_dim: int = 64, trainable: Optional[TrainableFlags] = None,
               dds_literal_table: bool = False) -> "DiffusionSpec":
        method = method.lower()
        if method not in ALL_METHODS:
            raise UsageError(f"unknown diffusion method {method!r}")
        trainable = trainable or TrainableFlags()
        if method == "pis" and trainable.proposal:
            raise UsageError("the PIS proposal is a point mass and cannot be trained")
        proposal = None if method == "pis" else DiagonalGaussian.isotropic(dim, sigma0)
        net = DriftNet.init(dim, n_steps, rng, hidden_width=hidden_width,
                            time_embedding_dim=time_embedding_dim, guidance=guidance)
        bnet = None
        if method == "gbs":
            bnet = DriftNet.init(dim, n_steps, rng, hidden_width=hidden_width,
                                 time_embedding_dim=time_embedding_dim, guidance=guidance)
        spec = cls(method=method, dim=dim, n_steps=n_steps, sigma_max=sigma_max,
                   sigma_schedule=sigma_schedule, proposal=proposal, drift_net=net,
                   backward_net=bnet, guidance=guidance, trainable=trainable,
                   dds_literal_table=dds_literal_table)
        spec.betas = np.linspace(0.0, 1.0, n_steps + 1)
        if trainable.betas:
            spec.beta_phi = np.zeros(n_steps)
        if trainable.sigma:
            spec.sigma_raw = float(np.log(sigma_max))
        if method in ("dds", "dis") and sigma_max / n_steps >= 1.0:
            raise UsageError("sigma_max / n_steps must stay below 1 for DDS/DIS decay")
        return spec

    def sigma_at(self, s: int, sigma_max=None):
        """Diffusion coefficient for hop s in 1..T (never evaluated at s = 0).

        The cosine schedule rises to sigma_max at s = T.  The VP-style methods
        (DDS/DIS) instead use the mirrored cosine so their noising rate vanishes
        toward the data end: the per-hop reversal stays unimodal there, which a
        Gaussian forward kernel can actually represent.
        """
        if not 1 <= s <= self.n_steps:
            raise UsageError(f"hop index {s} outside 1..{self.n_steps}")
        sm = self.sigma_max if sigma_max is None else sigma_max
        if self.sigma_schedule == "constant":
            return sm * 1.0 if isinstance(sm, Var) else float(sm)
        if self.method in ("dds", "dis"):
            c = math.cos(math.pi * (s - 1) / (2.0 * self.n_steps)) ** 2
        else:
            c = math.cos(math.pi * (self.n_steps - s) / (2.0 * self.n_steps)) ** 2
        return sm * c

    @property
    def delta_t(self) -> float:
        return 1.0 / self.n_steps


# --------------------------------------------------------------------- helpers
def _is_var(v):
    return isinstance(v, Var)


def _vlog(v):
    return v.log() if _is_var(v) else np.log(v)


def _vexp(v):
    return v.exp() if _is_var(v) else np.exp(v)


def _vsqrt(v):
    return v**0.5 if _is_var(v) else np.sqrt(v)


def log_normal_diag(y, mean, var, dim):
    """log N(y; mean, var*I) for batched rows; var is a positive scalar.

    With a constant var and y or mean (equal-shape rows) on the tape, the
    density is recorded as one tape node.
    """
    if _is_var(var) or not (_is_var(y) or _is_var(mean)):
        diff = y - mean
        quad = (diff * diff).sum(axis=1)
        return quad * (-0.5) / var - 0.5 * dim * LOG_2PI - 0.5 * dim * _vlog(var)
    parents = [v for v in (y, mean) if _is_var(v)]
    diff = (y.value if _is_var(y) else y) - (mean.value if _is_var(mean) else mean)
    # the op-by-op recording divides by var as a multiply by 1/var; keep its rounding
    inv_var = 1.0 / np.asarray(var, dtype=float)
    value = (diff * diff).sum(axis=1) * (-0.5) * inv_var - 0.5 * dim * LOG_2PI \
        - 0.5 * dim * np.log(var)
    signs = [1.0 if v is y else -1.0 for v in parents]

    def vjp(g):
        half = (g * inv_var * (-0.5))[:, None] * diff
        g_y = half + half
        return tuple(g_y if sign > 0 else g_y * -1.0 for sign in signs)

    return parents[0].tape.custom(value, parents, vjp, op="log_normal_diag")


def path_log_weight(log_b_terms, log_f_terms, log_gamma_xT, log_pi0_x0):
    """Extended log weight: endpoint ratio plus per-hop backward/forward terms.

    Shared by the Gaussian simulators and the discrete-lattice oracles so the
    indexing convention is tested in one place.  The term lists may differ in
    length (point-mass endpoints contribute nothing).
    """
    acc = log_gamma_xT - log_pi0_x0
    for lb in log_b_terms:
        acc = acc + lb
    for lf in log_f_terms:
        acc = acc - lf
    return acc


class _ScoreFreeContext:
    """Anchor at one state for kernels that never query the target (guidance off).

    The other anchors extend it with target scores.  An anchor evaluates each
    drift net at most once, however many kernel sides use its output.
    """

    def __init__(self, x, index, n_steps, betas=None, proposal_params=None):
        self.x = x
        self.time_frac = index / n_steps
        self.beta = betas[index] if betas is not None else self.time_frac
        self.score_gamma = None
        self._proposal_params = proposal_params
        self._nets = {}

    def net(self, spec, params, backward_net=False):
        """Output of the drift net (GBS: or the backward net) at this state and time."""
        if backward_net not in self._nets:
            base = spec.backward_net if backward_net else spec.drift_net
            score = self.score_gamma if base.guidance else None
            self._nets[backward_net] = drift_forward(
                base, self.x, self.time_frac, score,
                params=_subdict(params, "bnet." if backward_net else "net."))
        return self._nets[backward_net]

    def _proposal_values(self, spec):
        if self._proposal_params is not None:
            return self._proposal_params
        return spec.proposal.mean, spec.proposal.log_std


class _AnchorContext(_ScoreFreeContext):
    """Per-state cache: one fused target query serves score, guidance, and value."""

    def __init__(self, spec, target, x, index, tape=None, proposal_params=None, betas=None):
        super().__init__(x, index, spec.n_steps, betas, proposal_params)
        xv = x.value if _is_var(x) else np.asarray(x)
        val, grad = target.logdensity_and_grad(xv)
        if tape is not None and _is_var(x):
            self.log_gamma = tape.custom(
                val, [x], lambda adj, g=grad: (adj[:, None] * g,), op="log_gamma"
            )
            if target.score_hvp is not None:
                hvp = target.score_hvp
                self.score_gamma = tape.custom(
                    grad, [x], lambda adj, xv=xv: (hvp(xv, adj),), op="target_score"
                )
            elif spec.score_stop_gradient:
                self.score_gamma = tape.custom(grad, [x], lambda adj: (None,),
                                               op="target_score_stopgrad")
            else:
                raise UsageError(
                    f"target {target.name!r} has no score_hvp; training through the "
                    "score needs one (or set score_stop_gradient)"
                )
        else:
            self.log_gamma = val
            self.score_gamma = grad

    def annealed_score(self, spec):
        """(1-beta) * proposal score + beta * target score at this state."""
        m, ls = self._proposal_values(spec)
        s0 = (m - self.x) * _vexp(ls * -2.0)
        return s0 * (1.0 - self.beta) + self.score_gamma * self.beta


def _kernel_means(spec, ctx, s, sigma, params, forward):
    """(mean, var) of the hop-s forward kernel anchored at its source state, or
    (forward=False) of the backward kernel anchored at its destination state.

    Only the drift net that side uses is evaluated.
    """
    x = ctx.x
    dt = spec.delta_t
    var = sigma * sigma * dt
    method = spec.method

    if method in LANGEVIN_METHODS:
        langevin = x + ctx.annealed_score(spec) * var
        if method == "cmcd":
            drift = ctx.net(spec, params)
            return (langevin + drift * dt if forward else langevin - drift * dt), var
        if method == "mcd" and not forward:
            return langevin + ctx.net(spec, params) * dt, var
        return langevin, var
    if method == "pis":
        if forward:
            return x + ctx.net(spec, params) * dt, var
        ratio = (s - 1.0) / s
        return x * ratio, ratio * var if ratio > 0 else 0.0
    if method == "dds":
        sigma0_sq = _proposal_scale_sq(spec, ctx)
        if spec.dds_literal_table:
            v = sigma * sigma0_sq * dt
            decay = _vsqrt(1.0 - sigma)
            return ((decay * x + ctx.net(spec, params)) * dt if forward else decay * x * dt), v
        lam = sigma * dt
        v = lam * sigma0_sq
        decay = _vsqrt(1.0 - lam)
        return (x * decay + ctx.net(spec, params) * dt if forward else x * decay), v
    if method == "dis":
        sigma0_sq = _proposal_scale_sq(spec, ctx)
        v = 2.0 * sigma * sigma0_sq * dt
        if forward:
            return x + (x * sigma + ctx.net(spec, params)) * dt, v
        return x * (1.0 - sigma * dt), v
    if method == "gbs":
        if forward:
            return x + ctx.net(spec, params) * var, var
        return x + ctx.net(spec, params, backward_net=True) * var, var
    raise UsageError(f"unknown method {method!r}")


def _proposal_scale_sq(spec, ctx):
    _, ls = ctx._proposal_values(spec)
    return _vexp(ls * 2.0).mean()


def kernel_pair(spec: DiffusionSpec, t: int, x, score=None, target: TargetDensity = None):
    """Exact Gaussian parameters of the hop-t forward and backward kernels at x.

    `score` is the annealed score for Langevin methods (computed by the caller
    at this state's own temperature) or the target score feeding guidance.
    Returns ((f_mean, f_var), (b_mean, b_var)).
    """
    if not 1 <= t <= spec.n_steps:
        raise UsageError(f"hop index {t} outside 1..{spec.n_steps}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ctx = _FixedScoreContext(spec, x, t, score)
    sigma = spec.sigma_at(t)
    return tuple(_kernel_means(spec, ctx, t, sigma, None, forward) for forward in (True, False))


class _FixedScoreContext(_ScoreFreeContext):
    """Anchor context with a caller-supplied score (no target queries)."""

    def __init__(self, spec, x, index, score):
        super().__init__(x, index, spec.n_steps)
        self.score_gamma = score

    def annealed_score(self, spec):
        if self.score_gamma is None:
            raise UsageError("Langevin methods need the annealed score at the anchor state")
        # caller passes the full annealed score directly for kernel_pair
        return self.score_gamma


@dataclass
class TrajectoryBatch:
    final_states: np.ndarray
    log_w: object           # (n,) ndarray, or tape Var during training
    valid: np.ndarray
    x0: np.ndarray
    n_steps: int

    @property
    def log_w_values(self) -> np.ndarray:
        return self.log_w.value if _is_var(self.log_w) else self.log_w


# ------------------------------------------------------------------ simulation
def _anchor(spec, target, x, index, tape=None, proposal_params=None, betas=None):
    """Anchor at state `index`; it queries the target only if a kernel uses the score."""
    if spec.method in LANGEVIN_METHODS or _needs_guidance(spec):
        return _AnchorContext(spec, target, x, index, tape, proposal_params, betas)
    return _ScoreFreeContext(x, index, spec.n_steps, betas, proposal_params)


def _resolve_schedule(spec, params):
    """(betas, sigma_max) honoring trainable flags; tape variables during training."""
    betas = spec.betas
    sigma_max = spec.sigma_max
    if params is not None:
        if "beta_phi" in params:
            phi = params["beta_phi"]
            cumsum = (phi - phi.logsumexp()).exp().cumsum()
            betas = [0.0] + [cumsum[i] for i in range(phi.shape[0])]  # beta_0 is exactly 0
        if "sigma_raw" in params:
            sigma_max = params["sigma_raw"].exp()
    else:
        if spec.trainable.betas and spec.beta_phi is not None:
            e = np.exp(spec.beta_phi - spec.beta_phi.max())
            betas = np.concatenate([[0.0], np.cumsum(e / e.sum())])
        if spec.trainable.sigma and spec.sigma_raw is not None:
            sigma_max = float(np.exp(spec.sigma_raw))
    return betas, sigma_max


def simulate_forward(spec: DiffusionSpec, target: TargetDensity, batch_size: int,
                     rng: RngStream, params=None, tape: Optional[Tape] = None,
                     noise=None) -> TrajectoryBatch:
    """Sample trajectories from the forward process and accumulate log weights.

    With a tape and parameter variables, the whole simulation is recorded for
    reverse-mode training (reparameterized through the supplied or drawn noise).
    Trajectories that go non-finite are flagged invalid and excluded from losses.
    """
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    d = spec.dim
    big_t = spec.n_steps
    betas, sigma_max = _resolve_schedule(spec, params)
    prop_params = None
    if params is not None and "proposal_mean" in params:
        prop_params = params["proposal_mean"], params["proposal_log_std"]

    eps0 = noise[0] if noise is not None else rng.normal((batch_size, d))
    if spec.method == "pis":
        x = np.zeros((batch_size, d))
        log_pi0 = 0.0
        x0_snapshot = x.copy()
    else:
        m, ls = prop_params or (spec.proposal.mean, spec.proposal.log_std)
        x = m + _vexp(ls) * eps0
        log_pi0 = _diag_log_density(x, m, ls, d)
        x0_snapshot = x.value.copy() if _is_var(x) else x.copy()

    ctx = _anchor(spec, target, x, 0, tape, prop_params, betas)
    log_b_terms = []
    log_f_terms = []
    for s in range(1, big_t + 1):
        sigma = spec.sigma_at(s, sigma_max)
        f_mean, f_var = _kernel_means(spec, ctx, s, sigma, params, True)
        eps = noise[s] if noise is not None else rng.normal((batch_size, d))
        x_next = f_mean + _vsqrt(f_var) * eps
        log_f_terms.append(log_normal_diag(x_next, f_mean, f_var, d))
        ctx = _anchor(spec, target, x_next, s, tape, prop_params, betas)
        if not (spec.method == "pis" and s == 1):
            b_mean, b_var = _kernel_means(spec, ctx, s, sigma, params, False)
            log_b_terms.append(log_normal_diag(x, b_mean, b_var, d))
        x = x_next

    if isinstance(ctx, _AnchorContext):
        log_gamma = ctx.log_gamma  # fused with the final anchor query
    else:
        xv = x.value if _is_var(x) else x
        val, grad = target.logdensity_and_grad(xv)
        if tape is not None and _is_var(x):
            log_gamma = tape.custom(val, [x], lambda adj, g=grad: (adj[:, None] * g,),
                                    op="log_gamma")
        else:
            log_gamma = val

    log_w = path_log_weight(log_b_terms, log_f_terms, log_gamma, log_pi0)

    lw_vals = log_w.value if _is_var(log_w) else log_w
    x_vals = x.value if _is_var(x) else x
    valid = np.isfinite(lw_vals) & np.all(np.isfinite(x_vals), axis=1)
    return TrajectoryBatch(x_vals, log_w, valid, x0_snapshot, big_t)


def _needs_guidance(spec):
    nets = [spec.drift_net] + ([spec.backward_net] if spec.backward_net else [])
    return any(n is not None and n.guidance for n in nets)


def _diag_log_density(x, mean, log_std, dim):
    z = (x - mean) * _vexp(log_std * -1.0) if _is_var(log_std) or _is_var(x) else \
        (x - mean) / np.exp(log_std)
    quad = (z * z).sum(axis=1)
    ls_sum = log_std.sum() if _is_var(log_std) else float(np.sum(log_std))
    return quad * -0.5 - ls_sum - 0.5 * dim * LOG_2PI


def _subdict(params, prefix):
    if params is None:
        return None
    out = {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}
    return out or None


def simulate_backward_logweights(spec: DiffusionSpec, target: TargetDensity,
                                 target_samples, rng: RngStream) -> np.ndarray:
    """Propagate exact target samples backward and accumulate the same log ratio.

    Returns per-sample extended forward log-weights for EUBO_f / ESS_f / Z_f.
    """
    x = np.atleast_2d(np.asarray(target_samples, dtype=float))
    n, d = x.shape
    big_t = spec.n_steps
    betas, sigma_max = _resolve_schedule(spec, None)
    ctx = _anchor(spec, target, x, big_t, betas=betas)
    log_gamma = ctx.log_gamma if isinstance(ctx, _AnchorContext) else target.log_density(x)

    log_b_terms = []
    log_f_terms = []
    for s in range(big_t, 0, -1):
        sigma = spec.sigma_at(s, sigma_max)
        b_mean, b_var = _kernel_means(spec, ctx, s, sigma, None, False)
        if spec.method == "pis" and s == 1:
            x_prev = np.zeros_like(x)
        else:
            x_prev = b_mean + np.sqrt(b_var) * rng.normal((n, d))
            log_b_terms.append(log_normal_diag(x_prev, b_mean, b_var, d))
        ctx = _anchor(spec, target, x_prev, s - 1, betas=betas)
        f_mean, f_var = _kernel_means(spec, ctx, s, sigma, None, True)
        log_f_terms.append(log_normal_diag(x, f_mean, f_var, d))
        x = x_prev

    if spec.method == "pis":
        log_pi0 = 0.0
    else:
        log_pi0 = _diag_log_density(x, spec.proposal.mean, spec.proposal.log_std, d)
    return path_log_weight(log_b_terms, log_f_terms, log_gamma, log_pi0)


# ----------------------------------------------------------------------- losses
def loss_extended_elbo(batch: TrajectoryBatch):
    """Negative mean extended log weight over valid trajectories (to minimize)."""
    n_valid = int(batch.valid.sum())
    if n_valid == 0:
        raise TrainingError("every trajectory in the batch is invalid")
    if _is_var(batch.log_w):
        mask = batch.valid.astype(float)
        return (batch.log_w * mask).sum() * (-1.0 / n_valid)
    return -float(np.mean(batch.log_w[batch.valid]))


def loss_vargrad(batch: TrajectoryBatch):
    """Unbiased sample variance of the extended log weights over the batch."""
    n_valid = int(batch.valid.sum())
    if n_valid < 2:
        raise UsageError("VarGrad needs at least 2 valid trajectories")
    if _is_var(batch.log_w):
        mask = batch.valid.astype(float)
        mean = (batch.log_w * mask).sum() * (1.0 / n_valid)
        centered = (batch.log_w - mean) * mask
        return (centered * centered).sum() * (1.0 / (n_valid - 1))
    lw = batch.log_w[batch.valid]
    return float(np.var(lw, ddof=1))


# ---------------------------------------------------------------------- training
def trainable_parameters(spec: DiffusionSpec) -> dict:
    """Flat name -> array view of everything the optimizer may touch."""
    params = {f"net.{k}": v for k, v in spec.drift_net.params.items()}
    if spec.backward_net is not None:
        params.update({f"bnet.{k}": v for k, v in spec.backward_net.params.items()})
    if spec.trainable.sigma:
        params["sigma_raw"] = np.asarray(float(spec.sigma_raw))
    if spec.trainable.betas:
        params["beta_phi"] = spec.beta_phi.copy()
    if spec.trainable.proposal:
        if spec.proposal is None:
            raise UsageError("no proposal to train")
        params["proposal_mean"] = spec.proposal.mean.copy()
        params["proposal_log_std"] = spec.proposal.log_std.copy()
    return params


def _write_back(spec, params):
    for k, v in params.items():
        if k.startswith("net."):
            spec.drift_net.params[k[4:]] = v
        elif k.startswith("bnet."):
            spec.backward_net.params[k[5:]] = v
        elif k == "sigma_raw":
            spec.sigma_raw = float(v)
        elif k == "beta_phi":
            spec.beta_phi = v
        elif k == "proposal_mean":
            spec.proposal.mean = v
        elif k == "proposal_log_std":
            spec.proposal.log_std = v


@dataclass
class TrainTrace:
    losses: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)


def train_diffusion(spec: DiffusionSpec, target: TargetDensity, loss_kind: str,
                    iterations: int, batch_size: int, rng: RngStream,
                    learning_rate: float = 1e-3, checkpoint_hook=None,
                    n_checkpoints: int = 0) -> TrainTrace:
    """Adam training loop over the spec's trainable parameters.

    `checkpoint_hook(iteration, spec)` fires at evenly spaced iterations.
    Aborts with the trace if the loss is non-finite three checks in a row.
    """
    if loss_kind not in ("elbo", "vargrad"):
        raise UsageError(f"unknown loss {loss_kind!r}")
    params = trainable_parameters(spec)
    adam = {k: AdamState.init(v.size, learning_rate=learning_rate) for k, v in params.items()}
    trace = TrainTrace()
    checkpoint_iters = set()
    if checkpoint_hook is not None and n_checkpoints > 0:
        # a set, not np.unique: np.unique imports numpy.ma on first use
        marks = np.linspace(1, max(iterations, 1), n_checkpoints).astype(int)
        checkpoint_iters = set(marks.tolist())
    bad_streak = 0

    for it in range(1, iterations + 1):
        tape = Tape()
        leaves = {k: tape.leaf(v) for k, v in params.items()}
        batch = simulate_forward(spec, target, batch_size, rng, params=leaves, tape=tape)
        loss = loss_extended_elbo(batch) if loss_kind == "elbo" else loss_vargrad(batch)
        loss_val = float(loss.value)
        trace.losses.append(loss_val)
        if not np.isfinite(loss_val):
            bad_streak += 1
            if bad_streak >= 3:
                raise TrainingError(
                    f"loss non-finite for 3 consecutive steps at iteration {it}; "
                    f"last losses {trace.losses[-3:]}"
                )
            continue
        bad_streak = 0
        grads = tape.grad(loss, list(leaves.values()))
        for (name, value), grad in zip(list(params.items()), grads):
            flat, adam[name] = adam_step(value.ravel(), grad.ravel(), adam[name])
            params[name] = flat.reshape(np.shape(value))
        _write_back(spec, params)
        if it in checkpoint_iters:
            checkpoint_hook(it, spec)
            trace.checkpoints.append(it)
    return trace
