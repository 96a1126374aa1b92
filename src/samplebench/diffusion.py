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
    """log N(y; mean, var*I) for batched rows; var is a positive scalar."""
    diff = y - mean
    quad = (diff * diff).sum(axis=1)
    return quad * (-0.5) / var - 0.5 * dim * LOG_2PI - 0.5 * dim * _vlog(var)


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


class _AnchorContext:
    """Per-state cache: one fused target query serves score, guidance, and value."""

    def __init__(self, spec, target, x, beta, time_frac, tape=None, proposal_params=None):
        self.x = x
        self.beta = beta
        self.time_frac = float(time_frac)
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
        self._spec = spec
        self._proposal_params = proposal_params

    def annealed_score(self, spec):
        """(1-beta) * proposal score + beta * target score at this state."""
        m, ls = self._proposal_values(spec)
        s0 = (m - self.x) * _vexp(ls * -2.0) if _is_var(ls) or _is_var(self.x) else \
            (m - self.x) * np.exp(-2.0 * ls)
        return s0 * (1.0 - self.beta) + self.score_gamma * self.beta

    def _proposal_values(self, spec):
        if self._proposal_params is not None:
            return self._proposal_params
        return spec.proposal.mean, spec.proposal.log_std


def _kernel_means(spec, ctx, s, sigma, net_params, bnet_params):
    """Forward and backward kernel (mean, var) anchored at ctx's state for hop s.

    The two entries share sigma_s; the caller uses the forward part when ctx is
    the hop's source state and the backward part when it is the destination.
    """
    x = ctx.x
    dt = spec.delta_t
    var = sigma * sigma * dt
    t_net = ctx.time_frac
    method = spec.method

    def net(params, which="fwd"):
        base = spec.drift_net if which == "fwd" else spec.backward_net
        score = ctx.score_gamma if base.guidance else None
        return drift_forward(base, x, t_net, score, params=params)

    if method in LANGEVIN_METHODS:
        langevin = x + ctx.annealed_score(spec) * var
        if method == "ula":
            return (langevin, var), (langevin, var)
        drift = net(net_params)
        if method == "mcd":
            return (langevin, var), (langevin + drift * dt, var)
        # cmcd
        return (langevin + drift * dt, var), (langevin - drift * dt, var)
    if method == "pis":
        sig2dt = var
        f_mean = x + net(net_params) * dt
        ratio = (s - 1.0) / s
        return (f_mean, sig2dt), (x * ratio, ratio * sig2dt if ratio > 0 else 0.0)
    if method == "dds":
        sigma0_sq = _proposal_scale_sq(spec, ctx)
        if spec.dds_literal_table:
            v = sigma * sigma0_sq * dt
            decay = _vsqrt(1.0 - sigma) if not _is_var(sigma) else (1.0 - sigma) ** 0.5
            return ((decay * x + net(net_params)) * dt, v), (decay * x * dt, v)
        lam = sigma * dt
        v = lam * sigma0_sq
        decay = _vsqrt(1.0 - lam)
        return (x * decay + net(net_params) * dt, v), (x * decay, v)
    if method == "dis":
        sigma0_sq = _proposal_scale_sq(spec, ctx)
        v = 2.0 * sigma * sigma0_sq * dt
        f_mean = x + (x * sigma + net(net_params)) * dt
        b_mean = x * (1.0 - sigma * dt)
        return (f_mean, v), (b_mean, v)
    if method == "gbs":
        f_mean = x + net(net_params, "fwd") * var
        b_mean = x + net(bnet_params, "bwd") * var
        return (f_mean, var), (b_mean, var)
    raise UsageError(f"unknown method {method!r}")


def _proposal_scale_sq(spec, ctx):
    m, ls = ctx._proposal_values(spec)
    if _is_var(ls):
        return (ls * 2.0).exp().mean()
    return float(np.mean(np.exp(2.0 * np.asarray(ls))))


def kernel_pair(spec: DiffusionSpec, t: int, x, score=None, target: TargetDensity = None):
    """Exact Gaussian parameters of the hop-t forward and backward kernels at x.

    `score` is the annealed score for Langevin methods (computed by the caller
    at this state's own temperature) or the target score feeding guidance.
    Returns ((f_mean, f_var), (b_mean, b_var)).
    """
    if not 1 <= t <= spec.n_steps:
        raise UsageError(f"hop index {t} outside 1..{spec.n_steps}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ctx = _FixedScoreContext(spec, x, t / spec.n_steps, score)
    sigma = spec.sigma_at(t)
    net_params = spec.drift_net.params if spec.drift_net else None
    bnet_params = spec.backward_net.params if spec.backward_net else None
    return _kernel_means(spec, ctx, t, sigma, net_params, bnet_params)


class _FixedScoreContext:
    """Anchor context with a caller-supplied score (no target queries)."""

    def __init__(self, spec, x, time_frac, score):
        self.x = x
        self.beta = float(time_frac)
        self.time_frac = float(time_frac)
        self.score_gamma = score
        self._proposal_params = None

    def annealed_score(self, spec):
        if self.score_gamma is None:
            raise UsageError("Langevin methods need the annealed score at the anchor state")
        # caller passes the full annealed score directly for kernel_pair
        return self.score_gamma

    def _proposal_values(self, spec):
        return spec.proposal.mean, spec.proposal.log_std


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
def _make_anchor(spec, target, x, index, tape, proposal_params, betas):
    beta = betas[index] if betas is not None else index / spec.n_steps
    return _AnchorContext(spec, target, x, beta, index / spec.n_steps,
                          tape=tape, proposal_params=proposal_params)


def _resolve_schedule(spec, params):
    """(betas, sigma_max) honoring trainable flags; tape variables during training."""
    betas = spec.betas
    sigma_max = spec.sigma_max
    if params is not None:
        if "beta_phi" in params:
            phi = params["beta_phi"]
            increments = (phi - phi.logsumexp()).exp()
            betas = increments.cumsum()
        if "sigma_raw" in params:
            sigma_max = params["sigma_raw"].exp()
    else:
        if spec.trainable.betas and spec.beta_phi is not None:
            e = np.exp(spec.beta_phi - spec.beta_phi.max())
            betas = np.concatenate([[0.0], np.cumsum(e / e.sum())])
        if spec.trainable.sigma and spec.sigma_raw is not None:
            sigma_max = float(np.exp(spec.sigma_raw))
    return betas, sigma_max


class _BetaGrid:
    """Index helper: beta_0 is exactly 0; later entries may be tape variables."""

    def __init__(self, cumsum_var):
        self.cumsum = cumsum_var

    def __getitem__(self, idx):
        if idx == 0:
            return 0.0
        return self.cumsum[idx - 1]


def _proposal_params_from(params):
    if params is not None and "proposal_mean" in params:
        return params["proposal_mean"], params["proposal_log_std"]
    return None


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
    betas_raw, sigma_max = _resolve_schedule(spec, params)
    betas = _BetaGrid(betas_raw) if _is_var(betas_raw) else betas_raw
    prop_params = _proposal_params_from(params)
    net_params = _subdict(params, "net.") if params is not None else (
        spec.drift_net.params if spec.drift_net else None)
    bnet_params = _subdict(params, "bnet.") if params is not None else (
        spec.backward_net.params if spec.backward_net else None)

    eps0 = noise[0] if noise is not None else rng.normal((batch_size, d))
    if spec.method == "pis":
        x = np.zeros((batch_size, d))
        log_pi0 = 0.0
        x0_snapshot = x.copy()
    else:
        if prop_params is not None:
            m, ls = prop_params
            x = m + ls.exp() * eps0
        else:
            m, ls = spec.proposal.mean, spec.proposal.log_std
            x = m + np.exp(ls) * eps0
        log_pi0 = _diag_log_density(x, m, ls, d)
        x0_snapshot = x.value.copy() if _is_var(x) else x.copy()

    langevin = spec.method in LANGEVIN_METHODS
    ctx = None
    if langevin or _needs_guidance(spec):
        ctx = _make_anchor(spec, target, x, 0, tape, prop_params, betas)

    log_b_terms = []
    log_f_terms = []
    for s in range(1, big_t + 1):
        sigma = spec.sigma_at(s, sigma_max)
        src_ctx = ctx if ctx is not None else _ScoreFreeContext(x, (s - 1) / big_t,
                                                                betas, s - 1, prop_params, spec)
        (f_mean, f_var), _ = _kernel_means(spec, src_ctx, s, sigma, net_params, bnet_params)
        eps = noise[s] if noise is not None else rng.normal((batch_size, d))
        x_next = f_mean + _vsqrt(f_var) * eps
        log_f_terms.append(log_normal_diag(x_next, f_mean, f_var, d))

        dst_ctx = (_make_anchor(spec, target, x_next, s, tape, prop_params, betas)
                   if (langevin or _needs_guidance(spec))
                   else _ScoreFreeContext(x_next, s / big_t, betas, s, prop_params, spec))
        if not (spec.method == "pis" and s == 1):
            _, (b_mean, b_var) = _kernel_means(spec, dst_ctx, s, sigma, net_params, bnet_params)
            log_b_terms.append(log_normal_diag(x, b_mean, b_var, d))
        x = x_next
        ctx = dst_ctx

    if langevin or _needs_guidance(spec):
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


class _ScoreFreeContext:
    """Anchor for methods whose kernels never query the target (guidance off)."""

    def __init__(self, x, time_frac, betas, index, proposal_params, spec):
        self.x = x
        self.time_frac = float(time_frac)
        self.beta = betas[index] if betas is not None else time_frac
        self.score_gamma = None
        self._proposal_params = proposal_params
        self._spec = spec

    def annealed_score(self, spec):
        raise UsageError("Langevin kernels need target scores; use guided anchors")

    def _proposal_values(self, spec):
        if self._proposal_params is not None:
            return self._proposal_params
        return spec.proposal.mean, spec.proposal.log_std


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
    net_params = spec.drift_net.params if spec.drift_net else None
    bnet_params = spec.backward_net.params if spec.backward_net else None
    langevin = spec.method in LANGEVIN_METHODS
    need_ctx = langevin or _needs_guidance(spec)

    ctx = _make_anchor(spec, target, x, big_t, None, None, betas) if need_ctx else \
        _ScoreFreeContext(x, 1.0, betas, big_t, None, spec)
    log_gamma = ctx.log_gamma if need_ctx else target.log_density(x)

    log_b_terms = []
    log_f_terms = []
    for s in range(big_t, 0, -1):
        sigma = spec.sigma_at(s, sigma_max)
        _, (b_mean, b_var) = _kernel_means(spec, ctx, s, sigma, net_params, bnet_params)
        if spec.method == "pis" and s == 1:
            x_prev = np.zeros_like(x)
        else:
            x_prev = b_mean + np.sqrt(b_var) * rng.normal((n, d))
            log_b_terms.append(log_normal_diag(x_prev, b_mean, b_var, d))
        prev_ctx = (_make_anchor(spec, target, x_prev, s - 1, None, None, betas)
                    if need_ctx else _ScoreFreeContext(x_prev, (s - 1) / big_t, betas,
                                                       s - 1, None, spec))
        (f_mean, f_var), _ = _kernel_means(spec, prev_ctx, s, sigma, net_params, bnet_params)
        log_f_terms.append(log_normal_diag(x, f_mean, f_var, d))
        x = x_prev
        ctx = prev_ctx

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
        marks = np.unique(np.linspace(1, max(iterations, 1), n_checkpoints).astype(int))
        checkpoint_iters = set(int(m) for m in marks)
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
