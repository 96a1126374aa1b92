import collections
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

import samplebench.diffusion as diffusion
from samplebench.diffusion import (
    ALL_METHODS,
    LANGEVIN_METHODS,
    METHOD_PARTS,
    DiffusionSpec,
    TrajectoryBatch,
    log_normal_diag,
    loss_extended_elbo,
    loss_vargrad,
    path_log_weight,
    simulate_backward_logweights,
    simulate_forward,
    train_diffusion,
    trainable_parameters,
)
from samplebench.errors import TrainingError, UsageError
from samplebench.numerics import RngStream, Tape, Var
from samplebench.targets import make_gaussian_target, make_mog_target

LOG_2PI = math.log(2 * math.pi)


def make_spec(method, dim=2, n_steps=8, sigma0=1.0, sigma_max=2.0, guidance=False,
              seed=0, **kw):
    return DiffusionSpec.create(method, dim, RngStream(seed, 0), n_steps=n_steps,
                                sigma0=sigma0, sigma_max=sigma_max, guidance=guidance, **kw)


def zero_drift(spec):
    """Zero out the drift networks entirely (f1 = 0 already; kill guidance scale)."""
    for net in (spec.drift_net, spec.backward_net):
        if net is not None:  # ULA builds no net, and only GBS a backward one
            net.params["f2"] = np.zeros_like(net.params["f2"])
    return spec


# ------------------------------------------------------------ kernel structure
class ScoreStub:
    """A target whose value+score query returns `score` at any batch."""

    def __init__(self, score):
        self.score = score

    def query(self, x, *, score, hvp=False):
        return np.zeros(len(x)), self.score, None


def kernel_means_at(spec, t, x, score):
    """((f_mean, f_var), (b_mean, b_var)) of the hop-t kernels anchored at x_t,
    where the target's score is `score`."""
    sched = diffusion._resolve_schedule(spec)
    anchor = diffusion._Anchor(spec, sched, ScoreStub(score), x, t)
    return tuple(diffusion._kernel_means(spec, sched, anchor, t, forward)
                 for forward in (True, False))


def test_ula_forward_backward_identical():
    spec = make_spec("ula")
    rng = RngStream(1, 0)
    for t in (1, 4, 8):
        x = rng.normal((5, 2))
        score = rng.normal((5, 2))
        (fm, fv), (bm, bv) = kernel_means_at(spec, t, x, score)
        np.testing.assert_array_equal(fm, bm)
        assert fv == bv


def test_mcd_cmcd_degenerate_to_ula_with_zero_drift():
    rng = RngStream(2, 0)
    ula = make_spec("ula", seed=3)
    mcd = zero_drift(make_spec("mcd", seed=3, guidance=True))
    cmcd = zero_drift(make_spec("cmcd", seed=3, guidance=True))
    for _ in range(100):
        t = int(rng.integers(8)) + 1
        x = rng.normal((4, 2))
        score = rng.normal((4, 2))
        ref_f, ref_b = kernel_means_at(ula, t, x, score)
        for spec in (mcd, cmcd):
            (fm, fv), (bm, bv) = kernel_means_at(spec, t, x, score)
            np.testing.assert_array_equal(fm, ref_f[0])
            np.testing.assert_array_equal(bm, ref_b[0])
            assert fv == ref_f[1] and bv == ref_b[1]


def test_cmcd_constant_drift_mean_gap():
    # s^theta = c: forward mean - backward mean = 2 c dt
    c = 0.7
    spec = make_spec("cmcd", guidance=False)
    spec.drift_net.params["bout"] = np.full(2, c)
    x = RngStream(4, 0).normal((3, 2))
    score = RngStream(5, 0).normal((3, 2))
    (fm, _), (bm, _) = kernel_means_at(spec, 3, x, score)
    np.testing.assert_allclose(fm - bm, 2 * c * spec.delta_t, atol=1e-12)


def test_cosine_schedule_endpoints_and_range():
    spec = make_spec("ula", n_steps=16, sigma_max=3.0)
    assert spec.sigma_at(16) == pytest.approx(3.0)          # sigma_T = sigma_max
    assert spec.sigma_at(1) > 0.0                            # never the vanishing endpoint
    with pytest.raises(UsageError):
        spec.sigma_at(0)


def test_pis_point_mass_proposal_not_trainable():
    # a spec trains only parts it has: PIS has no proposal, and only the Langevin
    # methods have a beta grid
    with pytest.raises(UsageError, match="proposal"):
        DiffusionSpec.create("pis", 2, RngStream(0, 0), trainable={"proposal"})
    for method in ("dds", "pis", "dis", "gbs"):
        with pytest.raises(UsageError, match="betas"):
            DiffusionSpec.create(method, 2, RngStream(0, 0), trainable={"betas"})
    with pytest.raises(UsageError, match="drift"):
        DiffusionSpec.create("dds", 2, RngStream(0, 0), trainable={"drift"})


@pytest.mark.parametrize("method", ALL_METHODS)
def test_a_spec_needs_at_least_one_hop(method):
    with pytest.raises(UsageError, match="n_steps"):
        DiffusionSpec.create(method, 2, RngStream(0, 0), n_steps=0)


def test_each_method_builds_only_the_parts_its_kernels_read():
    # the beta grid: the Langevin methods; a proposal: all but PIS; the drift net:
    # all but ULA; the backward net: GBS
    assert LANGEVIN_METHODS == ("ula", "mcd", "cmcd")
    for part, methods in (("betas", LANGEVIN_METHODS),
                          ("proposal", ("ula", "mcd", "cmcd", "dds", "dis", "gbs")),
                          ("drift_net", ("mcd", "cmcd", "dds", "pis", "dis", "gbs")),
                          ("backward_net", ("gbs",))):
        assert tuple(m for m in ALL_METHODS if part in METHOD_PARTS[m]) == methods
    for method in ALL_METHODS:
        spec = make_spec(method)
        built = {"betas": spec.betas, "proposal": spec.proposal, "drift_net": spec.drift_net,
                 "backward_net": spec.backward_net}
        assert {p for p, value in built.items() if value is not None} == set(METHOD_PARTS[method])


@pytest.mark.parametrize("guidance", [True, False])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_drift_net_calls_per_simulation_closed_form(method, guidance, monkeypatch):
    # each hop evaluates only the kernel side it uses; CMCD's two sides share
    # one net output per state, and GBS runs one net per side
    big_t, n = 8, 16
    expected_calls = {"ula": 0, "cmcd": big_t + 1, "gbs": 2 * big_t}.get(method, big_t)
    guided = method in LANGEVIN_METHODS or guidance
    expected_nfe = n * (big_t + 1) if guided else n
    spec = make_spec(method, n_steps=big_t, sigma_max=1.0, guidance=guidance, seed=40)
    target = make_gaussian_target(2)
    calls = []
    real = diffusion.drift_forward

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(diffusion, "drift_forward", counted)

    def calls_and_nfe(simulate):
        calls.clear()
        before = target.nfe.value
        simulate()
        return len(calls), target.nfe.value - before

    expected = (expected_calls, expected_nfe)
    assert calls_and_nfe(lambda: simulate_forward(spec, target, n, RngStream(41, 0))) == expected
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in trainable_parameters(spec).items()}
    assert calls_and_nfe(lambda: simulate_forward(spec, target, n, RngStream(41, 0),
                                                  params=leaves, tape=tape)) == expected
    y = target.exact_sampler(RngStream(42, 0), n)
    assert calls_and_nfe(
        lambda: simulate_backward_logweights(spec, target, y, RngStream(43, 0))) == expected


@pytest.mark.parametrize("method", ["mcd", "cmcd", "dds", "pis", "dis", "gbs"])
def test_training_step_frees_its_tape(method, monkeypatch):
    # a tape variable held by a node's VJP closure would tie the tape into a
    # reference cycle that only the cyclic collector frees
    tapes = []

    class TrackedTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(diffusion, "Tape", TrackedTape)
    spec = make_spec(method, n_steps=4, guidance=True, seed=44,
                     trainable={"sigma"} | ({"proposal"} if method != "pis" else set()))
    gc.disable()
    try:
        train_diffusion(spec, make_gaussian_target(2), "elbo", 1, 8, RngStream(45, 0))
        alive = [ref() is not None for ref in tapes]
    finally:
        gc.enable()
    assert alive == [False]


def test_one_tape_alive_at_a_time(monkeypatch):
    # step 1's tape, leaves, batch and loss die with its step: before the
    # checkpoint hook fires and before step 2 records, with no cyclic collector
    tapes, alive_at_step_2, alive_at_hook = [], [], []

    class TrackedTape(Tape):
        def __init__(self):
            alive_at_step_2.extend(ref() is not None for ref in tapes)
            super().__init__()
            tapes.append(weakref.ref(self))

    def hook(iteration, spec):
        alive_at_hook.append([ref() is not None for ref in tapes])

    monkeypatch.setattr(diffusion, "Tape", TrackedTape)
    spec = make_spec("dds", n_steps=4, guidance=True, seed=46)
    gc.disable()
    try:
        train_diffusion(spec, make_mog_target(2), "elbo", 2, 8, RngStream(47, 0),
                        checkpoints=(1,), checkpoint_hook=hook)
    finally:
        gc.enable()
    assert len(tapes) == 2
    assert alive_at_hook == [[False]]
    assert alive_at_step_2 == [False]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_training_step_records_only_what_the_weight_reads(method):
    # with a constant sigma the drawn side's density is a plain array, and only
    # the endpoint's log gamma enters the weight: the tape holds at most one
    # log_gamma node and one log_normal_diag node per backward-kernel term
    big_t = 6
    spec = make_spec(method, n_steps=big_t, sigma_max=1.0, guidance=True, seed=47)
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in trainable_parameters(spec).items()}
    simulate_forward(spec, make_gaussian_target(2), 8, RngStream(48, 0), params=leaves,
                     tape=tape)
    ops = collections.Counter(node.op for node in tape.nodes)
    backward_terms = big_t - 1 if method == "pis" else big_t  # PIS's B_1 is a point mass
    assert ops["log_gamma"] <= 1
    assert ops["log_normal_diag"] <= backward_terms


def test_trainable_sigma_step_resolves_each_hop_decay_once():
    # both kernel sides of a hop read its decay exp(-sigma_s dt / 2) and variance;
    # the schedule builds them once, so the step records one exp node per hop, and
    # one more for sigma_max = exp(sigma_raw)
    big_t = 6
    spec = make_spec("dds", n_steps=big_t, sigma_max=2.0, guidance=True, seed=49,
                     trainable={"sigma"})
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in trainable_parameters(spec).items()}
    simulate_forward(spec, make_gaussian_target(2), 8, RngStream(50, 0), params=leaves,
                     tape=tape)
    ops = collections.Counter(node.op for node in tape.nodes)
    assert ops["exp"] == big_t + 1


def _reference_log_normal_diag(y, mean, var, dim):
    """The former op-by-op form of log_normal_diag for a constant var, kept as a reference."""
    diff = y - mean
    quad = (diff * diff).sum(axis=1)
    return quad * (-0.5) * (1.0 / var) - 0.5 * dim * LOG_2PI - 0.5 * dim * np.log(var)


@pytest.mark.parametrize("y_var,mean_var", [(True, True), (True, False), (False, True)])
def test_fused_log_normal_matches_op_by_op_reference(y_var, mean_var):
    rng = RngStream(46, 0)
    y_val, mean_val, proj = rng.normal((6, 3)), rng.normal((6, 3)), rng.normal(6)

    def record(log_normal):
        tape = Tape()
        y = tape.leaf(y_val) if y_var else y_val
        mean = tape.leaf(mean_val) if mean_var else mean_val
        out = log_normal(y, mean, 0.37, 3)
        wrt = [v for v in (y, mean) if isinstance(v, Var)]
        return out.value, tape.grad((out * proj).sum(), wrt), len(tape.nodes)

    ref_value, ref_grads, ref_nodes = record(_reference_log_normal_diag)
    value, grads, n_nodes = record(log_normal_diag)
    np.testing.assert_array_equal(value, ref_value)
    for g, ref in zip(grads, ref_grads, strict=True):
        np.testing.assert_array_equal(g, ref)
    assert n_nodes < ref_nodes


@pytest.mark.parametrize("taped", [t for t in itertools.product((False, True), repeat=3)
                                   if any(t)])
def test_log_normal_vjp_forms_one_product_for_y_and_mean(taped):
    # one adjoint per taped input of (y, mean, var), in that order: mean's is the
    # exact negation of y's, and each is bitwise the former form's, where mean's
    # side recomputed y's product and multiplied it by -1
    rng = RngStream(47, 0)
    y_val, mean_val, g = rng.normal((6, 3)), rng.normal((6, 3)), rng.normal(6)
    var_val = np.array(0.37)
    tape = Tape()
    inputs = [tape.leaf(v) if t else v for v, t in zip((y_val, mean_val, var_val), taped)]
    out = log_normal_diag(*inputs, 3)
    grads = tape.nodes[out.index].vjp(g)

    diff, inv_var = y_val - mean_val, 1.0 / var_val
    quad = (diff * diff).sum(axis=1)

    def former_g_y(g):
        half = (g * inv_var * (-0.5))[:, None] * diff
        return half + half

    former = [former_g_y(g), former_g_y(g) * -1.0,
              (g * (0.5 * quad * inv_var - 0.5 * 3)).sum() * inv_var]
    expected = [f for f, t in zip(former, taped) if t]
    assert len(grads) == len(expected)
    for got, ref in zip(grads, expected):
        assert np.array_equal(got, ref)
    if taped[0] and taped[1]:
        assert np.array_equal(grads[1], -grads[0])


def test_training_a_spec_with_nothing_to_train_is_a_usage_error(monkeypatch):
    # ULA with no optional part trainable has no drift net and no parameter: the
    # error names the method before Adam is built or a step is recorded
    built = []
    monkeypatch.setattr(diffusion.AdamState, "init",
                        classmethod(lambda cls, *a, **k: built.append(1)))
    spec = DiffusionSpec.create("ula", 2, RngStream(0, 0), n_steps=4)
    assert trainable_parameters(spec) == {}
    with pytest.raises(UsageError, match="ula has nothing to train"):
        train_diffusion(spec, make_mog_target(2), "elbo", 1, 8, RngStream(1, 0))
    assert built == []


# ----------------------------------------------------------- weight identities
def test_t1_collapse_matches_direct_densities():
    spec = zero_drift(make_spec("mcd", dim=1, n_steps=1, sigma_max=1.5))
    target = make_gaussian_target(1)
    rng = RngStream(6, 0)
    batch = simulate_forward(spec, target, 64, rng)
    # rebuild by hand: lw = log gamma(x1) + log B0(x0|x1) - log pi0(x0) - log F1(x1|x0)
    # regenerate with the same stream
    rng2 = RngStream(6, 0)
    eps0 = rng2.normal((64, 1))
    x0 = eps0 * np.exp(spec.proposal.log_std) + spec.proposal.mean
    s1 = spec.sigma_at(1)
    var = s1**2 * spec.delta_t
    score0 = (1 - 0.0) * (-(x0 - 0.0)) + 0.0  # beta_0 = 0: proposal score only
    f_mean = x0 + score0 * var
    eps1 = rng2.normal((64, 1))
    x1 = f_mean + math.sqrt(var) * eps1
    _, score1, _ = target.score_hvp(x1)  # beta_1 = 1: target score
    b_mean = x1 + score1 * var
    lw = (
        target.log_unnorm(x1)
        + log_normal_diag(x0, b_mean, var, 1)
        - spec.proposal.log_density(x0)
        - log_normal_diag(x1, f_mean, var, 1)
    )
    np.testing.assert_allclose(batch.log_w, lw, atol=1e-10)


def test_two_point_lattice_identity():
    # arbitrary normalized discrete F/B tables; exact identity by enumeration
    rng = RngStream(7, 0)
    for trial in range(5):
        big_t = int(rng.integers(4)) + 2  # T in 2..5
        pi0 = rng.uniform(0.2, 0.8)
        pi0 = np.array([pi0, 1 - pi0])
        gamma = np.array([rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)])
        f_tables = [np.column_stack([p := rng.uniform(0.1, 0.9, 2), 1 - p])
                    for _ in range(big_t)]
        b_tables = [np.column_stack([p := rng.uniform(0.1, 0.9, 2), 1 - p])
                    for _ in range(big_t)]
        lhs = 0.0
        for states in itertools.product([0, 1], repeat=big_t + 1):
            q = pi0[states[0]]
            log_b, log_f = [], []
            for s in range(1, big_t + 1):
                q *= f_tables[s - 1][states[s - 1], states[s]]
                log_f.append(math.log(f_tables[s - 1][states[s - 1], states[s]]))
                log_b.append(math.log(b_tables[s - 1][states[s], states[s - 1]]))
            lw = path_log_weight(log_b, log_f, math.log(gamma[states[-1]]),
                                 math.log(pi0[states[0]]))
            lhs += q * math.exp(lw)
        assert lhs == pytest.approx(gamma.sum(), abs=1e-12)


def test_two_point_lattice_backward_identity():
    # sum over backward paths of p * (1/w) = sum_x0 pi0(x0) = 1 exactly
    rng = RngStream(8, 0)
    big_t = 3
    pi0 = np.array([0.4, 0.6])
    gamma = np.array([0.9, 0.5])
    pi = gamma / gamma.sum()
    f_tables = [np.column_stack([p := rng.uniform(0.1, 0.9, 2), 1 - p]) for _ in range(big_t)]
    b_tables = [np.column_stack([p := rng.uniform(0.1, 0.9, 2), 1 - p]) for _ in range(big_t)]
    total = 0.0
    for states in itertools.product([0, 1], repeat=big_t + 1):
        p_path = pi[states[-1]]
        log_b, log_f = [], []
        for s in range(1, big_t + 1):
            p_path *= b_tables[s - 1][states[s], states[s - 1]]
            log_f.append(math.log(f_tables[s - 1][states[s - 1], states[s]]))
            log_b.append(math.log(b_tables[s - 1][states[s], states[s - 1]]))
        lw = path_log_weight(log_b, log_f, math.log(gamma[states[-1]]),
                             math.log(pi0[states[0]]))
        total += p_path * math.exp(-lw) * gamma.sum()
    assert total == pytest.approx(1.0, abs=1e-12)


def test_ula_normalized_gaussian_unbiased_z():
    # proposal equals the normalized target: Z = 1; E[exp(log w)] = 1 within 3 SE
    spec = zero_drift(make_spec("ula", dim=1, n_steps=4, sigma0=1.0, sigma_max=1.0))
    target = make_gaussian_target(1)
    batch_means = []
    for rep in range(50):
        batch = simulate_forward(spec, target, 200, RngStream(100, rep))
        batch_means.append(np.exp(batch.log_w).mean())
    means = np.asarray(batch_means)
    se = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(means.mean() - 1.0) < 3 * se


def test_backward_ula_forward_z_identity():
    spec = zero_drift(make_spec("ula", dim=1, n_steps=4, sigma0=1.0, sigma_max=1.0))
    target = make_gaussian_target(1)
    batch_means = []
    for rep in range(50):
        samples = target.exact_sampler(RngStream(101, rep), 200)
        lw = simulate_backward_logweights(spec, target, samples, RngStream(102, rep))
        batch_means.append(np.exp(-lw).mean())
    means = np.asarray(batch_means)
    se = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(means.mean() - 1.0) < 3 * se  # E_pi[1/w] = 1/Z = 1


@pytest.mark.parametrize("method", ["mcd", "cmcd", "dds", "dis", "gbs", "pis"])
def test_all_methods_simulate_and_weight_finite(method):
    spec = make_spec(method, dim=2, n_steps=6, sigma0=1.0, sigma_max=1.0, guidance=True,
                     seed=9)
    target = make_gaussian_target(2)
    batch = simulate_forward(spec, target, 32, RngStream(10, 0))
    assert batch.valid.all()
    assert np.all(np.isfinite(batch.log_w))
    if method != "pis":
        samples = target.exact_sampler(RngStream(11, 0), 32)
        lw = simulate_backward_logweights(spec, target, samples, RngStream(12, 0))
        assert np.all(np.isfinite(lw))


# ----------------------------------------------------------------------- losses
def test_loss_elbo_constant_weights():
    batch = simulate_forward(zero_drift(make_spec("ula", dim=1, n_steps=2)),
                             make_gaussian_target(1), 8, RngStream(13, 0))
    batch.log_w = np.full(8, 1.7)
    batch.valid = np.ones(8, dtype=bool)
    assert loss_extended_elbo(batch) == pytest.approx(-1.7)


def test_loss_vargrad_cases():
    batch = simulate_forward(zero_drift(make_spec("ula", dim=1, n_steps=2)),
                             make_gaussian_target(1), 2, RngStream(14, 0))
    batch.valid = np.ones(2, dtype=bool)
    batch.log_w = np.zeros(2)
    assert loss_vargrad(batch) == 0.0
    batch.log_w = np.array([0.0, 2.0])
    assert loss_vargrad(batch) == pytest.approx(2.0)
    batch.valid = np.array([True, False])
    with pytest.raises(UsageError):
        loss_vargrad(batch)


@pytest.mark.parametrize("loss", [loss_extended_elbo, loss_vargrad])
def test_tape_loss_drops_invalid_nan_row(loss):
    # NaN * 0 is NaN, so a loss that masks by multiplying would still read the row
    tape = Tape()
    theta = tape.leaf(np.array([0.5, -1.0, 2.0, 0.3]))
    batch = TrajectoryBatch(np.zeros((4, 1)), theta + np.array([0.0, np.nan, 1.0, -0.5]),
                            np.array([True, False, True, True]))
    value = loss(batch)
    (grad,) = tape.grad(value, [theta])
    assert np.isfinite(value.value)
    assert np.all(np.isfinite(grad)) and grad[1] == 0.0
    plain = TrajectoryBatch(batch.final_states, np.array([0.5, 1.0, 3.0, -0.2]), batch.valid)
    assert value.value == pytest.approx(loss(plain), rel=1e-12)


def test_vargrad_zero_when_ratio_exact():
    # balanced lattice: if F == B and gamma == pi0 (normalized), log w is constant
    log_b = [np.array([0.1, 0.1]), np.array([-0.3, -0.3])]
    log_f = [np.array([0.1, 0.1]), np.array([-0.3, -0.3])]
    lw = path_log_weight(log_b, log_f, np.zeros(2), np.zeros(2))
    assert np.var(lw) == 0.0


@pytest.mark.parametrize("method", ["mcd", "cmcd", "dds", "pis", "dis", "gbs"])
def test_training_gradients_match_finite_differences(method):
    # tiny instance, frozen noise: tape gradient vs central differences at 1e-3
    dim, big_t, batch = 1, 4, 8
    spec = make_spec(method, dim=dim, n_steps=big_t, sigma0=1.0, sigma_max=1.0,
                     guidance=True, seed=20, hidden_width=6, time_embedding_dim=4)
    target = make_gaussian_target(dim)
    frozen = [RngStream(21, s).normal((batch, dim)) for s in range(big_t + 1)]

    def loss_at(params_arrays):
        saved = dict(spec.drift_net.params)
        saved_b = dict(spec.backward_net.params) if spec.backward_net else None
        for k, v in params_arrays.items():
            if k.startswith("net."):
                spec.drift_net.params[k[4:]] = v
            elif k.startswith("bnet."):
                spec.backward_net.params[k[5:]] = v
        b = simulate_forward(spec, target, batch, RngStream(0, 0), noise=frozen)
        spec.drift_net.params = saved
        if saved_b is not None:
            spec.backward_net.params = saved_b
        return loss_extended_elbo(b)

    base = trainable_parameters(spec)
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in base.items()}
    batch_out = simulate_forward(spec, target, batch, RngStream(0, 0), params=leaves,
                                 tape=tape, noise=frozen)
    loss = loss_extended_elbo(batch_out)
    grads = dict(zip(leaves.keys(), tape.grad(loss, list(leaves.values()))))

    eps = 1e-5
    rng = RngStream(22, 0)
    for name, value in base.items():
        flat = value.ravel()
        picks = range(min(4, flat.size))
        for j in picks:
            plus = dict(base)
            minus = dict(base)
            fp = flat.copy()
            fp[j] += eps
            plus[name] = fp.reshape(value.shape)
            fm = flat.copy()
            fm[j] -= eps
            minus[name] = fm.reshape(value.shape)
            fd = (loss_at(plus) - loss_at(minus)) / (2 * eps)
            g = grads[name].ravel()[j]
            assert abs(g - fd) <= 1e-3 * max(abs(fd), 1.0) + 1e-7, (method, name, j, g, fd)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_schedule_and_proposal_gradients_match_finite_differences(method):
    # sigma_raw, beta_phi (off its zero start) and the proposal, perturbed in place
    # in the spec's own arrays, which training updates; frozen noise, central
    # differences
    dim, big_t, batch = 2, 4, 8
    langevin = method in LANGEVIN_METHODS
    spec = make_spec(method, dim=dim, n_steps=big_t, sigma0=1.0, sigma_max=1.0,
                     guidance=True, seed=49, hidden_width=6, time_embedding_dim=4,
                     trainable={"sigma"} | set(METHOD_PARTS[method]) & {"betas", "proposal"})
    if langevin:
        spec.beta_phi = RngStream(50, 0).normal(big_t) * 0.5
    if method != "pis":
        spec.proposal.mean = np.array([0.3, -0.2])
        spec.proposal.log_std = np.array([0.1, -0.15])
    target = make_gaussian_target(dim)
    frozen = [RngStream(51, s).normal((batch, dim)) for s in range(big_t + 1)]

    params = trainable_parameters(spec)
    base = {k: v for k, v in params.items() if not k.startswith(("net.", "bnet."))}
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    loss = loss_extended_elbo(simulate_forward(spec, target, batch, RngStream(0, 0),
                                               params=leaves, tape=tape, noise=frozen))
    grads = dict(zip(leaves, tape.grad(loss, list(leaves.values()))))
    assert set(base) == {"sigma_raw"} | ({"beta_phi"} if langevin else set()) | (
        {"proposal_mean", "proposal_log_std"} if method != "pis" else set())

    def loss_at(value, j, step):
        flat = value.reshape(-1)  # a view: the spec reads the bumped entry
        saved = flat[j]
        flat[j] = saved + step
        out = loss_extended_elbo(simulate_forward(spec, target, batch, RngStream(0, 0),
                                                  noise=frozen))
        flat[j] = saved
        return out

    eps = 1e-5
    for name, value in base.items():
        for j in range(value.size):
            fd = (loss_at(value, j, eps) - loss_at(value, j, -eps)) / (2 * eps)
            g = np.ravel(grads[name])[j]
            assert abs(g - fd) <= 1e-6 * max(abs(fd), 1.0), (method, name, j, g, fd)


@pytest.mark.parametrize("method", ALL_METHODS)
def test_training_updates_the_specs_own_arrays_in_place(method):
    # trainable_parameters hands out the arrays the nets, sigma_raw, beta_phi and
    # the proposal hold, and training moves those very objects
    spec = make_spec(method, dim=2, n_steps=4, guidance=True, seed=52, hidden_width=6,
                     time_embedding_dim=4,
                     trainable={"sigma"} | set(METHOD_PARTS[method]) & {"betas", "proposal"})
    before = trainable_parameters(spec)
    start = {k: v.copy() for k, v in before.items()}
    train_diffusion(spec, make_gaussian_target(2), "elbo", 3, 8, RngStream(53, 0),
                    learning_rate=1e-2)
    after = trainable_parameters(spec)
    held = {"sigma_raw": spec.sigma_raw, "beta_phi": spec.beta_phi}
    if spec.proposal is not None:
        held.update(proposal_mean=spec.proposal.mean, proposal_log_std=spec.proposal.log_std)
    for prefix, net in (("net.", spec.drift_net), ("bnet.", spec.backward_net)):
        if net is not None:
            held.update({prefix + k: v for k, v in net.params.items()})
    assert list(after) == list(before)
    for name, value in after.items():
        assert value is before[name] and value is held[name], name
        assert not np.array_equal(value, start[name]), name


def test_training_divergence_aborts():
    spec = make_spec("mcd", dim=1, n_steps=2, guidance=True, seed=23)
    bad = make_gaussian_target(1)
    bad.log_unnorm = lambda x: np.full(len(np.atleast_2d(x)), np.nan)
    bad.score_hvp = lambda x: (bad.log_unnorm(x), np.zeros_like(x), np.zeros_like)
    with pytest.raises(TrainingError):
        train_diffusion(spec, bad, "elbo", 10, 8, RngStream(24, 0))


def _without_hvp(target):
    """`target` with its fused callable's HVP dropped, as a target without one returns it."""
    fused = target.score_hvp
    target.score_hvp = lambda x: (*fused(x)[:2], None)
    return target


def test_training_without_hvp_is_rejected():
    # cmcd's forward kernel carries the drift net, so states become tape nodes
    # and the score needs curvature; mcd's trajectory is parameter-free
    spec = make_spec("cmcd", dim=1, n_steps=2, guidance=True, seed=25)
    target = _without_hvp(make_gaussian_target(1))
    with pytest.raises(UsageError, match="has no score_hvp"):
        train_diffusion(spec, target, "elbo", 2, 8, RngStream(26, 0))
    spec.score_stop_gradient = True
    train_diffusion(spec, target, "elbo", 2, 8, RngStream(26, 0))  # now allowed

    mcd = make_spec("mcd", dim=1, n_steps=2, guidance=True, seed=25)
    target2 = _without_hvp(make_gaussian_target(1))
    train_diffusion(mcd, target2, "elbo", 2, 8, RngStream(26, 0))  # fine without curvature


def test_score_stop_gradient_holds_where_the_target_has_an_hvp(monkeypatch):
    # with the flag the score is a plain array, even where score_hvp could carry
    # it, and no anchor asks the query for the HVP; without it every anchor on
    # the tape (x_1 .. x_T) makes that one query and no other
    tapes = []

    class KeptTape(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(diffusion, "Tape", KeptTape)
    target = make_gaussian_target(2)
    queries = collections.Counter()
    real = target.query

    def counting_query(x, *, score, hvp=False):
        queries.update(["hvp" if hvp else "score" if score else "value"])
        return real(x, score=score, hvp=hvp)

    monkeypatch.setattr(target, "query", counting_query)
    calls = []
    for stop in (False, True):
        spec = make_spec("dds", n_steps=4, guidance=True, seed=52)
        spec.score_stop_gradient = stop
        queries.clear()
        train_diffusion(spec, target, "elbo", 1, 8, RngStream(53, 0))
        calls.append(dict(queries))
    scores = [collections.Counter(node.op for node in tape.nodes)["target_score"]
              for tape in tapes]
    assert scores == [4, 0]
    assert calls == [{"hvp": 4, "score": 1}, {"score": 5}]


def test_train_on_gaussian_improves_elbo():
    spec = make_spec("dds", dim=1, n_steps=8, sigma0=2.0, sigma_max=4.0, guidance=True,
                     seed=27)
    target = make_gaussian_target(1)
    before = np.mean(simulate_forward(spec, target, 500, RngStream(28, 0)).log_w)
    train_diffusion(spec, target, "elbo", 150, 64, RngStream(29, 0), learning_rate=5e-3)
    after = np.mean(simulate_forward(spec, target, 500, RngStream(30, 0)).log_w)
    assert after > before + 0.05


def test_trainable_beta_grid_stays_monotone():
    spec = make_spec("mcd", dim=1, n_steps=6, guidance=True, seed=31,
                     trainable={"betas", "sigma"})
    target = make_gaussian_target(1)
    train_diffusion(spec, target, "elbo", 20, 16, RngStream(32, 0), learning_rate=1e-2)
    from samplebench.diffusion import _resolve_schedule

    betas = _resolve_schedule(spec).betas
    assert betas[0] == 0.0
    assert betas[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(betas) > 0)
