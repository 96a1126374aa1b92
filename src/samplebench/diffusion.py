"""Discrete-time diffusion samplers as forward/backward Gaussian kernel pairs.

Methods: ULA, MCD, CMCD (annealed Langevin family), DDS, PIS, DIS (reference
process family), and GBS (two free drift networks).  A trajectory accumulates
log B - log F per hop plus endpoint terms, giving the extended importance
weight.  Forward and backward simulation share one hop routine: it draws the
next state from the kernel anchored at the current one, whose density is then
closed form in the noise, anchors at the new state, and scores the old state
under the opposite kernel.  The same code runs on plain arrays (evaluation) and
on the autodiff tape (training, reparameterized through the noise), where only
what the weight reads is recorded.

Hop s in 1..T moves x_{s-1} to x_s and uses sigma_s, so the vanishing cosine
endpoint sigma_0 = 0 is never evaluated.  Kernels anchored at a state use that
state's own temperature for scores and its index as the drift nets' step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import TrainingError, UsageError
from .numerics.adam import AdamState, adam_step
from .numerics.logspace import LOG_2PI
from .numerics.nets import DriftNet, drift_forward
from .numerics.rng import RngStream
from .numerics.tape import Tape, Var
from .targets.base import TargetDensity
from .targets.gaussian import DiagonalGaussian

# The parts each method's kernels read besides the sigma schedule: the beta grid
# of the annealed score, a proposal (PIS starts from a point mass at 0), the drift
# net, and GBS's backward net.  `DiffusionSpec.create` builds only these.
METHOD_PARTS = {"ula": ("betas", "proposal"), "mcd": ("betas", "proposal", "drift_net"),
                "cmcd": ("betas", "proposal", "drift_net"), "dds": ("proposal", "drift_net"),
                "pis": ("drift_net",), "dis": ("proposal", "drift_net"),
                "gbs": ("proposal", "drift_net", "backward_net")}
ALL_METHODS = tuple(METHOD_PARTS)
LANGEVIN_METHODS = tuple(m for m, parts in METHOD_PARTS.items() if "betas" in parts)
# the parts training may leave fixed; the nets are always trained
OPTIONAL_TRAINABLE = ("sigma", "betas", "proposal")


@dataclass
class DiffusionSpec:
    method: str
    dim: int
    n_steps: int
    sigma_max: float
    sigma_schedule: str  # "cosine" or "constant"
    proposal: Optional[DiagonalGaussian] = None
    drift_net: Optional[DriftNet] = None
    backward_net: Optional[DriftNet] = None
    trainable: frozenset = frozenset()          # the parts in OPTIONAL_TRAINABLE to train
    betas: Optional[np.ndarray] = None          # annealing grid for Langevin methods
    beta_phi: Optional[np.ndarray] = None       # raw increments when betas are trainable
    sigma_raw: Optional[np.ndarray] = None      # log sigma_max (0-d) when sigma is trainable
    score_stop_gradient: bool = False

    @classmethod
    def create(cls, method: str, dim: int, rng: RngStream, n_steps: int = 128,
               sigma0: float = 1.0, sigma_max: float = 1.0, guidance: bool = True,
               sigma_schedule: str = "cosine", hidden_width: int = 64,
               time_embedding_dim: int = 64, trainable=()) -> "DiffusionSpec":
        method = method.lower()
        if method not in ALL_METHODS:
            raise UsageError(f"unknown diffusion method {method!r}")
        if n_steps < 1:
            raise UsageError(f"{method} needs n_steps >= 1, got {n_steps}")
        parts = METHOD_PARTS[method]
        trainable = frozenset(trainable)
        absent = trainable - {p for p in OPTIONAL_TRAINABLE if p == "sigma" or p in parts}
        if absent:
            raise UsageError(f"{method} has no {sorted(absent)} to train")
        nets = [DriftNet.init(dim, n_steps, rng, hidden_width=hidden_width,
                              time_embedding_dim=time_embedding_dim, guidance=guidance)
                if part in parts else None for part in ("drift_net", "backward_net")]
        spec = cls(method=method, dim=dim, n_steps=n_steps, sigma_max=sigma_max,
                   sigma_schedule=sigma_schedule, drift_net=nets[0], backward_net=nets[1],
                   proposal=DiagonalGaussian.isotropic(dim, sigma0) if "proposal" in parts
                   else None, trainable=trainable,
                   betas=np.linspace(0.0, 1.0, n_steps + 1) if "betas" in parts else None)
        if "betas" in trainable:
            spec.beta_phi = np.zeros(n_steps)
        if "sigma" in trainable:
            spec.sigma_raw = np.array(np.log(sigma_max))
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
def _value(v):
    """The array behind a tape variable, or `v` itself."""
    return v.value if isinstance(v, Var) else v


def _node(value, op, *inputs):
    """`value` as one tape node over those (argument, vjp) pairs whose argument is a
    tape variable, or `value` itself when none is.

    The recorded closure holds the VJPs only: a tape variable in it would tie the
    tape into a reference cycle that outlives the training step.
    """
    parents = [v for v, _ in inputs if isinstance(v, Var)]
    if not parents:
        return value
    vjps = [vjp for v, vjp in inputs if isinstance(v, Var)]
    return parents[0].tape.custom(value, parents, lambda g: tuple(f(g) for f in vjps), op=op)


def log_normal_diag(y, mean, var, dim):
    """log N(y; mean, var*I) for batched rows; var is a positive scalar.

    Recorded as one tape node over whichever of y, mean and var are tape variables.
    """
    diff = _value(y) - _value(mean)
    var_v = np.asarray(_value(var), dtype=float)
    # the op-by-op recording divides by var as a multiply by 1/var; keep its rounding
    inv_var = 1.0 / var_v
    quad = (diff * diff).sum(axis=1)
    value = quad * (-0.5) * inv_var - 0.5 * dim * LOG_2PI - 0.5 * dim * np.log(var_v)

    def g_y(g):
        half = (g * inv_var * (-0.5))[:, None] * diff
        return half + half

    return _node(value, "log_normal_diag", (y, g_y), (mean, lambda g: g_y(g) * -1.0),
                 (var, lambda g: (g * (0.5 * quad * inv_var - 0.5 * dim)).sum() * inv_var))


def _draw(mean, var, eps, dim):
    """x = mean + sqrt(var) eps, and log N(x; mean, var*I) in closed form.

    Since x - mean = sqrt(var) eps, the density is -|eps|^2/2 - (dim/2) log(2 pi var):
    it reads var alone, and is a plain array unless var is a tape variable.
    """
    var_v = np.asarray(_value(var), dtype=float)
    sd = np.sqrt(var_v)
    log_q = (eps * eps).sum(axis=1) * -0.5 - 0.5 * dim * LOG_2PI - 0.5 * dim * np.log(var_v)
    noise = _node(sd * eps, "draw_noise", (var, lambda g: (g * eps).sum() * (0.5 / sd)))
    log_q = _node(log_q, "draw_log_density", (var, lambda g: g.sum() * (-0.5 * dim / var_v)))
    return mean + noise, log_q


def path_log_weight(log_b_terms, log_f_terms, log_gamma_xT, log_pi0_x0):
    """Extended log weight: endpoint ratio plus per-hop backward/forward terms.

    Shared by the Gaussian simulators and the discrete-lattice oracles so the
    indexing convention is tested in one place.  The term lists may differ in
    length, and a None term (a point-mass kernel) contributes nothing.  Plain
    terms are summed in numpy, in the order given; the tape terms (per-row
    arrays) then join as one node.
    """
    terms = [(log_gamma_xT, 1.0), (log_pi0_x0, -1.0)]
    terms += [(lb, 1.0) for lb in log_b_terms] + [(lf, -1.0) for lf in log_f_terms]
    acc = 0.0
    for term, sign in terms:
        if term is not None and not isinstance(term, Var):
            acc = acc + term * sign
    for term, sign in terms:
        if isinstance(term, Var):
            acc = acc + term.value * sign
    return _node(acc, "path_log_weight",
                 *((term, lambda g, sign=sign: g * sign) for term, sign in terms))


# ---------------------------------------------------------------- the schedule
@dataclass
class _Schedule:
    """What one simulation reads of the parameters, resolved once: tape variables
    for the parameters being trained, plain values otherwise."""

    betas: object            # beta_0 .. beta_T
    sigmas: list             # sigma_1 .. sigma_T
    net_params: tuple        # drift-net and backward-net parameters (None: the nets' own)
    decays: tuple = None     # per hop: the DDS decay, DIS's backward factor exp(-sigma dt)
    variances: tuple = None  # per hop: the kernels' variance (PIS's backward one scales it)
    mean: object = None      # the proposal's mean, log-std and exp(log-std); None for PIS
    log_std: object = None
    std: object = None
    precision: object = None  # exp(-2 log-std), the proposal score's scale (Langevin)
    sigma0_sq: object = None  # mean of exp(2 log-std), the reference variance (DDS/DIS)


def _resolve_schedule(spec, params=None):
    """The schedule from `params` (tape variables) where given, else from the spec."""
    params = params or {}
    if "beta_phi" in params:
        phi = params["beta_phi"]
        cumsum = (phi - phi.logsumexp()).exp().cumsum()
        betas = [0.0] + [cumsum[i] for i in range(phi.shape[0])]  # beta_0 is exactly 0
    elif "betas" in spec.trainable:
        e = np.exp(spec.beta_phi - spec.beta_phi.max())
        betas = np.concatenate([[0.0], np.cumsum(e / e.sum())])
    else:
        betas = spec.betas
    if "sigma_raw" in params:
        sigma_max = params["sigma_raw"].exp()
    elif "sigma" in spec.trainable:
        sigma_max = float(np.exp(spec.sigma_raw))
    else:
        sigma_max = spec.sigma_max
    sched = _Schedule(betas, [spec.sigma_at(s, sigma_max) for s in range(1, spec.n_steps + 1)],
                      (_subdict(params, "net."), _subdict(params, "bnet.")))
    if spec.proposal is not None:
        _resolve_proposal(spec, sched, params)
    # each hop's sigma-derived scalars, read by both of its kernel sides
    sched.decays, sched.variances = zip(*(_hop_scalars(spec, sigma, sched.sigma0_sq)
                                          for sigma in sched.sigmas))
    return sched


def _resolve_proposal(spec, sched, params):
    """The proposal's entries of `sched`, from `params` when it is trained."""
    if "proposal_log_std" in params:
        sched.mean, sched.log_std = params["proposal_mean"], params["proposal_log_std"]
        exp = Var.exp
    else:
        sched.mean, sched.log_std = spec.proposal.mean, spec.proposal.log_std
        exp = np.exp
    sched.std = exp(sched.log_std)
    if spec.method in LANGEVIN_METHODS:
        sched.precision = exp(sched.log_std * -2.0)
    elif spec.method in ("dds", "dis"):
        sched.sigma0_sq = exp(sched.log_std * 2.0).mean()


def _hop_scalars(spec, sigma, sigma0_sq):
    """(decay, var) of a hop with diffusion coefficient sigma; decay is None
    where the kernels read none.

    DDS and DIS take the exact Ornstein-Uhlenbeck transition over the hop, so
    every step size is valid: the decay is exp(-sigma dt / 2) for DDS, whose
    lambda = 1 - exp(-sigma dt), and exp(-sigma dt) for DIS, and the variance
    keeps the reference N(0, sigma0^2) invariant.
    """
    dt = spec.delta_t
    if spec.method in ("dds", "dis"):
        rate = sigma * (-0.5 * dt if spec.method == "dds" else -dt)
        decay = rate.exp() if isinstance(rate, Var) else math.exp(rate)
        return decay, (1.0 - decay * decay) * sigma0_sq
    return None, sigma * sigma * dt


def _subdict(params, prefix):
    out = {k[len(prefix):]: v for k, v in params.items() if k.startswith(prefix)}
    return out or None


# ------------------------------------------------------------- anchor and hop
def _needs_guidance(spec):
    return any(n is not None and n.guidance for n in (spec.drift_net, spec.backward_net))


class _Anchor:
    """The state x_index and what the kernels anchored there read.

    It queries the target only when a kernel uses the score (the Langevin
    methods, and guidance) or at the endpoint x_T, whose log gamma the weight
    reads; only there is log gamma kept.  The query is one counted call of the
    target's value and score; where the score goes on the tape (x is a tape
    variable and the score's gradient is not stopped) it also hands back the
    `hvp` closure, the `target_score` node's VJP.  `query`, a target query with
    its score at x already made, stands in for it off the tape.  Each drift net
    runs at most once per anchor, however many kernel sides use its output.
    """

    def __init__(self, spec, sched, target, x, index, query=None):
        self.x = x
        self.index = index
        self.score = self.annealed_score = None
        self.log_gamma = None
        self._nets = {}
        langevin = spec.method in LANGEVIN_METHODS
        uses_score = langevin or _needs_guidance(spec)
        endpoint = index == spec.n_steps
        if not (uses_score or endpoint):
            return
        xv = _value(x)
        on_tape = uses_score and isinstance(x, Var) and not spec.score_stop_gradient
        val, grad, hvp = target.query(xv, score=True, hvp=on_tape) if query is None else query
        if endpoint:
            self.log_gamma = _node(val, "log_gamma", (x, lambda adj: adj[:, None] * grad))
        if not uses_score:
            return
        if on_tape:
            self.score = x.tape.custom(grad, [x], lambda adj: (hvp(adj),), op="target_score")
        else:
            self.score = grad  # a plain array: no gradient flows back through the score
        if langevin:  # (1 - beta) * proposal score + beta * target score
            beta = sched.betas[index]
            self.annealed_score = ((sched.mean - x) * sched.precision * (1.0 - beta)
                                   + self.score * beta)

    def net(self, spec, sched, backward_net=False):
        """Output of the drift net (GBS: or the backward net) at this state and time."""
        if backward_net not in self._nets:
            base = spec.backward_net if backward_net else spec.drift_net
            self._nets[backward_net] = drift_forward(
                base, self.x, self.index, self.score if base.guidance else None,
                params=sched.net_params[backward_net])
        return self._nets[backward_net]


def _kernel_means(spec, sched, anchor, s, forward):
    """(mean, var) of the hop-s forward kernel anchored at its source state, or
    (forward=False) of the backward kernel anchored at its destination state.

    Only the drift net that side uses is evaluated.
    """
    x = anchor.x
    dt = spec.delta_t
    decay, var = sched.decays[s - 1], sched.variances[s - 1]
    method = spec.method
    if method == "dds":
        return (x * decay + anchor.net(spec, sched) * dt if forward else x * decay), var
    if method == "dis":
        if forward:
            return x + (x * sched.sigmas[s - 1] + anchor.net(spec, sched)) * dt, var
        return x * decay, var
    if method in LANGEVIN_METHODS:
        langevin = x + anchor.annealed_score * var
        if method == "cmcd":
            drift = anchor.net(spec, sched)
            return (langevin + drift * dt if forward else langevin - drift * dt), var
        if method == "mcd" and not forward:
            return langevin + anchor.net(spec, sched) * dt, var
        return langevin, var
    if method == "pis":
        if forward:
            return x + anchor.net(spec, sched) * dt, var
        ratio = (s - 1.0) / s
        return x * ratio, ratio * var if ratio > 0 else 0.0
    if method == "gbs":
        return x + anchor.net(spec, sched, backward_net=not forward) * var, var
    raise UsageError(f"unknown method {method!r}")


def _hop(spec, sched, target, anchor, s, draws, forward):
    """One hop between x_{s-1} and x_s, drawn from the kernel anchored at the current state.

    Forward, `anchor` is at x_{s-1}: draw x_s from F_s, anchor at x_s and score
    x_{s-1} under B_s.  Backward, `anchor` is at x_s: draw x_{s-1} from B_s,
    anchor at x_{s-1} and score x_s under F_s.  Returns the new anchor and the
    hop's log B_s and log F_s terms; a term is None for PIS's B_1, the point mass
    at the origin.  `draws` yields the noise, taken only when the hop samples.
    """
    point_mass = spec.method == "pis" and s == 1
    if point_mass and not forward:
        x_new, drawn = np.zeros_like(anchor.x), None
    else:
        mean, var = _kernel_means(spec, sched, anchor, s, forward)
        x_new, drawn = _draw(mean, var, next(draws), spec.dim)
    new = _Anchor(spec, sched, target, x_new, s if forward else s - 1)
    scored = None
    if not (point_mass and forward):
        mean, var = _kernel_means(spec, sched, new, s, not forward)
        scored = log_normal_diag(anchor.x, mean, var, spec.dim)
    return (new, scored, drawn) if forward else (new, drawn, scored)


# ------------------------------------------------------------------ simulation
@dataclass
class TrajectoryBatch:
    final_states: np.ndarray
    log_w: object           # (n,) ndarray, or tape Var during training
    valid: np.ndarray

    @property
    def log_w_values(self) -> np.ndarray:
        return _value(self.log_w)


def _normal_draws(rng, shape):
    """Fresh standard-normal noise for each hop that samples."""
    while True:
        yield rng.normal(shape)


def simulate_forward(spec: DiffusionSpec, target: TargetDensity, batch_size: int,
                     rng: RngStream, params=None, tape: Optional[Tape] = None,
                     noise=None) -> TrajectoryBatch:
    """Sample trajectories from the forward process and accumulate log weights.

    With `params` holding variables of `tape`, the simulation is recorded for
    reverse-mode training (reparameterized through the supplied or drawn noise).
    Trajectories that go non-finite are flagged invalid and excluded from losses.
    """
    if batch_size < 1:
        raise UsageError("batch_size must be >= 1")
    d = spec.dim
    sched = _resolve_schedule(spec, params)
    draws = iter(noise) if noise is not None else _normal_draws(rng, (batch_size, d))
    eps0 = next(draws)
    if spec.proposal is None:  # PIS: the point mass at the origin
        x, log_pi0 = np.zeros((batch_size, d)), 0.0
    else:  # the proposal draw, its density in closed form as in `_draw`
        x = sched.mean + sched.std * eps0
        log_pi0 = (eps0 * eps0).sum(axis=1) * -0.5 - sched.log_std.sum() - 0.5 * d * LOG_2PI
    anchor = _Anchor(spec, sched, target, x, 0)
    log_b_terms, log_f_terms = [], []
    for s in range(1, spec.n_steps + 1):
        anchor, log_b, log_f = _hop(spec, sched, target, anchor, s, draws, forward=True)
        log_b_terms.append(log_b)
        log_f_terms.append(log_f)
    log_w = path_log_weight(log_b_terms, log_f_terms, anchor.log_gamma, log_pi0)
    x_vals = _value(anchor.x)
    valid = np.isfinite(_value(log_w)) & np.all(np.isfinite(x_vals), axis=1)
    return TrajectoryBatch(x_vals, log_w, valid)


def simulate_backward_logweights(spec: DiffusionSpec, target: TargetDensity,
                                 target_samples, rng: RngStream, query=None) -> np.ndarray:
    """Propagate exact target samples backward and accumulate the same log ratio.

    `query` is the target query with its score at the samples, when already
    made; without it the endpoint makes its own.
    Returns per-sample extended forward log-weights for EUBO_f / ESS_f / Z_f.
    """
    sched = _resolve_schedule(spec)
    draws = _normal_draws(rng, target_samples.shape)
    anchor = _Anchor(spec, sched, target, target_samples, spec.n_steps, query=query)
    log_gamma = anchor.log_gamma
    log_b_terms, log_f_terms = [], []
    for s in range(spec.n_steps, 0, -1):
        anchor, log_b, log_f = _hop(spec, sched, target, anchor, s, draws, forward=False)
        log_b_terms.append(log_b)
        log_f_terms.append(log_f)
    log_pi0 = 0.0 if spec.proposal is None else spec.proposal.log_density(anchor.x)
    return path_log_weight(log_b_terms, log_f_terms, log_gamma, log_pi0)


# ----------------------------------------------------------------------- losses
def loss_extended_elbo(batch: TrajectoryBatch):
    """Negative mean extended log weight over valid trajectories (to minimize)."""
    n_valid = int(batch.valid.sum())
    if n_valid == 0:
        raise TrainingError("every trajectory in the batch is invalid")
    return batch.log_w[batch.valid].sum() * (-1.0 / n_valid)


def loss_vargrad(batch: TrajectoryBatch):
    """Unbiased sample variance of the extended log weights over the batch."""
    n_valid = int(batch.valid.sum())
    if n_valid < 2:
        raise UsageError("VarGrad needs at least 2 valid trajectories")
    log_w = batch.log_w[batch.valid]
    centered = log_w - log_w.sum() * (1.0 / n_valid)
    return (centered * centered).sum() * (1.0 / (n_valid - 1))


# ---------------------------------------------------------------------- training
def trainable_parameters(spec: DiffusionSpec) -> dict:
    """Name -> the spec's own array, not a copy, for everything the optimizer
    may touch: the nets' weights, and sigma_raw, beta_phi and the proposal's
    mean and log-std where trainable.  Training updates these arrays in place."""
    params = {}
    for prefix, net in (("net.", spec.drift_net), ("bnet.", spec.backward_net)):
        if net is not None:
            params.update({f"{prefix}{k}": v for k, v in net.params.items()})
    if "sigma" in spec.trainable:
        params["sigma_raw"] = spec.sigma_raw
    if "betas" in spec.trainable:
        params["beta_phi"] = spec.beta_phi
    if "proposal" in spec.trainable:
        params["proposal_mean"] = spec.proposal.mean
        params["proposal_log_std"] = spec.proposal.log_std
    return params


@dataclass
class TrainTrace:
    losses: list = field(default_factory=list)


def _train_step(spec, target, loss_kind, params, batch_size, rng):
    """One step's (loss, gradients in `params` order), recorded on a tape of its
    own; the gradients are None when the loss is non-finite."""
    tape = Tape()
    leaves = [tape.leaf(v) for v in params.values()]
    batch = simulate_forward(spec, target, batch_size, rng,
                             params=dict(zip(params, leaves)), tape=tape)
    loss = loss_extended_elbo(batch) if loss_kind == "elbo" else loss_vargrad(batch)
    loss_val = float(loss.value)
    if not np.isfinite(loss_val):
        return loss_val, None
    return loss_val, tape.grad(loss, leaves)


def train_diffusion(spec: DiffusionSpec, target: TargetDensity, loss_kind: str,
                    iterations: int, batch_size: int, rng: RngStream,
                    learning_rate: float = 1e-3, checkpoints=(),
                    checkpoint_hook=None) -> TrainTrace:
    """Adam training loop over the spec's trainable parameters, updated in place.

    `checkpoint_hook(iteration, spec)` fires after the update at each
    iteration in `checkpoints`.  Raises `TrainingError`, naming the last three
    losses, if the loss is non-finite three steps in a row.  Each step's tape
    lives only inside `_train_step`: it is gone before the update, the hook and
    the next step's recording.
    """
    if loss_kind not in ("elbo", "vargrad"):
        raise UsageError(f"unknown loss {loss_kind!r}")
    params = trainable_parameters(spec)
    adam = AdamState.init(list(params.values()), learning_rate=learning_rate)
    trace = TrainTrace()
    bad_streak = 0

    for it in range(1, iterations + 1):
        loss_val, grads = _train_step(spec, target, loss_kind, params, batch_size, rng)
        trace.losses.append(loss_val)
        if grads is None:  # skip the update; a mark still fires
            bad_streak += 1
            if bad_streak >= 3:
                raise TrainingError(
                    f"loss non-finite for 3 consecutive steps at iteration {it}; "
                    f"last losses {trace.losses[-3:]}"
                )
        else:
            bad_streak = 0
            adam_step(list(params.values()), grads, adam)
        if it in checkpoints:
            checkpoint_hook(it, spec)
    return trace
