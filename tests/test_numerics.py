import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplebench import metrics
from samplebench.errors import UsageError
from samplebench.metrics import sinkhorn_w2
from samplebench.numerics import (
    AdamState,
    DriftNet,
    RngStream,
    Tape,
    Var,
    adam_step,
    drift_forward,
    log_sum_exp,
)
from samplebench.numerics.logspace import EXP_FLOOR, exp_shifted_inplace
from samplebench.targets import make_mog_target


# ---------------------------------------------------------------- log_sum_exp
def test_lse_two_equal_mass_points():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)


def test_lse_singleton_identity():
    assert log_sum_exp([-3.7]) == pytest.approx(-3.7, abs=1e-12)


def test_lse_huge_shift():
    # factor exp(1000) out by hand: log(e^1000 + 3 e^1000) = 1000 + ln 4
    assert log_sum_exp([1000.0, 1000.0 + math.log(3)]) == pytest.approx(
        1000.0 + math.log(4), abs=1e-9
    )


def test_lse_all_neginf():
    assert log_sum_exp([-np.inf, -np.inf]) == -np.inf


def test_lse_neginf_slices_and_mixed_entries():
    v = np.array([[-np.inf, -np.inf, -np.inf], [0.5, -np.inf, 2.0], [-np.inf, 3.0, -np.inf]])
    two_terms = np.log(np.exp(0.5 - 2.0) + 1.0) + 2.0
    for axis, mat in ((1, v), (0, np.ascontiguousarray(v.T))):
        out = log_sum_exp(mat, axis=axis)
        assert out[0] == -np.inf
        assert out[1] == two_terms  # bitwise: the -inf entry adds nothing
        assert out[2] == 3.0
    assert log_sum_exp([0.5, -np.inf, 2.0]) == two_terms
    assert log_sum_exp([-np.inf, 7.5, -np.inf]) == 7.5


def test_shifted_exp_never_passes_exp_an_input_below_its_floor(monkeypatch):
    inputs = []
    real_exp = np.exp

    def exp(values, *args, **kwargs):
        inputs.append(np.min(values))
        return real_exp(values, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    rng = RngStream(7, 0)
    mat = rng.uniform(-1e6, 0.0, (64, 40))
    mat[::3, 5] = -np.inf
    peak = exp_shifted_inplace(mat.copy(), axis=1)
    assert np.array_equal(peak, mat.max(axis=1))
    # the callers: the mixtures' softmax, Sinkhorn, and log_sum_exp
    target = make_mog_target(50)
    x = rng.uniform(-40.0, 40.0, (128, 50))
    target.log_unnorm_and_grad(x)
    target.score_hvp(x)[2](rng.normal(x.shape))
    # Sinkhorn builds its kernel and plan through the clamped exp; one far point puts
    # the first kernel's exponents -C/eps below the floor
    x, y = rng.normal((64, 2)), rng.normal((48, 2))
    y[0] = 1e4
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    assert (-cost / (metrics._EPSILON_FRACTION * cost.mean())).min() < EXP_FLOOR
    sinkhorn_w2(x, y)
    log_sum_exp(mat, axis=0)
    assert len(inputs) > 5 and min(inputs) >= EXP_FLOOR


def test_lse_empty_is_usage_error():
    with pytest.raises(UsageError):
        log_sum_exp([])


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=20),
    st.floats(-500, 500),
)
@settings(max_examples=200, deadline=None)
def test_lse_shift_property(values, c):
    base = log_sum_exp(values)
    shifted = log_sum_exp(np.asarray(values) + c)
    assert shifted == pytest.approx(base + c, rel=1e-12, abs=1e-9)


# ----------------------------------------------------------------------- adam
def test_adam_zero_gradient_leaves_params():
    state = AdamState.init(3, learning_rate=0.1)
    params = np.array([1.0, -2.0, 0.5])
    new_params, new_state = adam_step(params, np.zeros(3), state)
    np.testing.assert_array_equal(new_params, params)
    assert new_state.step_count == 1


def test_adam_first_step_magnitude():
    # step 1: m_hat/sqrt(v_hat) = g/|g|, so the move is lr in magnitude
    state = AdamState.init(1, learning_rate=0.1)
    new_params, _ = adam_step(np.array([0.0]), np.array([2.0]), state)
    assert new_params[0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_two_steps_monotone():
    state = AdamState.init(1, learning_rate=0.05)
    p = np.array([1.0])
    g = np.array([3.0])
    p1, state = adam_step(p, g, state)
    p2, state = adam_step(p1, g, state)
    assert state.step_count == 2
    assert p1[0] < p[0] and p2[0] < p1[0]  # moving opposite sign(g) > 0


def test_adam_length_mismatch():
    state = AdamState.init(2)
    with pytest.raises(UsageError):
        adam_step(np.zeros(3), np.zeros(3), state)


# ----------------------------------------------------------------------- tape
def test_tape_square():
    tape = Tape()
    x = tape.leaf(np.array(3.0))
    y = x * x
    (g,) = tape.grad(y, [x])
    assert g == pytest.approx(6.0)


def test_tape_logsumexp_softmax_gradient():
    tape = Tape()
    x = tape.leaf(np.array([0.3, -1.2]))
    y = x.logsumexp()
    (g,) = tape.grad(y, [x])
    expected = np.exp([0.3, -1.2]) / np.exp([0.3, -1.2]).sum()
    np.testing.assert_allclose(g, expected, rtol=1e-12)
    assert g.sum() == pytest.approx(1.0, abs=1e-12)


def _random_recipe(rng, n_leaves, depth):
    """Draw an expression recipe once so it can be re-run on bumped leaf values."""
    ops = ["add", "mul", "tanh", "exp_scaled", "affine", "mix"]
    recipe = []
    pool_size = n_leaves
    for _ in range(depth):
        kind = ops[int(rng.integers(len(ops)))]
        a = int(rng.integers(pool_size))
        b = int(rng.integers(pool_size))
        const = rng.normal((4, 4)) if kind == "affine" else float(rng.normal())
        recipe.append((kind, a, b, const))
        pool_size += 1
    return recipe


def _run_recipe(recipe, leaf_values):
    tape = Tape()
    leaves = [tape.leaf(v) for v in leaf_values]
    pool = list(leaves)
    for kind, a, b, const in recipe:
        if kind == "add":
            pool.append(pool[a] + pool[b])
        elif kind == "mul":
            pool.append(pool[a] * pool[b])
        elif kind == "tanh":
            pool.append(pool[a].tanh())
        elif kind == "exp_scaled":
            pool.append((pool[a] * 0.3).exp())
        elif kind == "affine":
            pool.append(pool[a] @ const + pool[b])
        else:
            pool.append(pool[a] * 0.5 + pool[b] * 1.5)
    total = pool[0].sum() * 0.0
    for v in pool:
        total = total + v.sum() * 0.1
    return tape, leaves, total


def test_tape_random_graphs_match_finite_differences():
    rng = RngStream(20240117, 0)
    eps = 1e-5
    for _ in range(100):
        recipe = _random_recipe(rng, n_leaves=2, depth=int(rng.integers(6)) + 1)
        params = [rng.normal(4), rng.normal(4)]
        tape, leaves, out = _run_recipe(recipe, params)
        grads = tape.grad(out, leaves)
        for li in range(2):
            for j in range(4):
                plus = [p.copy() for p in params]
                minus = [p.copy() for p in params]
                plus[li][j] += eps
                minus[li][j] -= eps
                _, _, f_plus = _run_recipe(recipe, plus)
                _, _, f_minus = _run_recipe(recipe, minus)
                fd = (float(f_plus.value) - float(f_minus.value)) / (2 * eps)
                assert abs(grads[li][j] - fd) <= 1e-4 * max(abs(fd), 1.0) + 1e-8


def test_tape_parents_precede_children():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    y = (x * 2.0).tanh().sum()
    for i, node in enumerate(tape.nodes):
        assert all(p < i for p in node.parents)


def test_tape_backward_requires_scalar():
    tape = Tape()
    x = tape.leaf(np.ones(3))
    with pytest.raises(UsageError):
        tape.grad(x * 2.0, [x])


def test_tape_grad_wrt_an_intermediate_matches_central_differences():
    # loss = sum(tanh(h) * h) + sum(exp(0.3 h)) with h = x @ A + b: h is no leaf, so
    # its adjoint must be kept where the sweep reaches it; the leaf x upstream gets g_h A^T
    rng = RngStream(21, 0)
    a, b, x0 = rng.normal((4, 3)), rng.normal(3), rng.normal((5, 4))

    def loss_of(h):
        return (h.tanh() * h).sum() + (h * 0.3).exp().sum()

    tape = Tape()
    x = tape.leaf(x0)
    h = x @ a + b
    loss = loss_of(h)
    g_h, g_x = tape.grad(loss, [h, x])
    np.testing.assert_allclose(g_x, g_h @ a.T, rtol=1e-12, atol=1e-14)

    eps = 1e-6
    h0 = h.value
    for idx in itertools.product(range(5), range(3)):
        bump = np.zeros_like(h0)
        bump[idx] = eps
        plus, minus = Tape(), Tape()
        fd = (float(loss_of(plus.leaf(h0 + bump)).value)
              - float(loss_of(minus.leaf(h0 - bump)).value)) / (2 * eps)
        assert abs(g_h[idx] - fd) <= 1e-6 * max(abs(fd), 1.0)


def test_tape_grad_holds_only_the_wanted_adjoints_during_the_sweep():
    # a chain of 64 (n,) nodes: a sweep that kept every adjoint would hold 64 of them
    n, length = 20_000, 64
    tape = Tape()
    x = tape.leaf(np.linspace(-1.0, 1.0, n))
    y = x
    for k in range(length):
        y = y * 1.001 + (0.5 if k % 2 else -0.5)
    loss = y.sum()
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        (g,) = tape.grad(loss, [x])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    np.testing.assert_allclose(g, np.full(n, 1.001**length), rtol=1e-12)
    # the leaf's adjoint plus a constant number of others (a node's adjoint, its
    # VJP's output and the copy made for the parent), never one per node
    assert peak - before <= 6 * n * 8


def test_tape_frees_an_intermediate_once_its_handle_is_dropped():
    # add_const and sum capture shapes, mul_const its constant: no closure holds h's value
    tape = Tape()
    x = tape.leaf(np.arange(6.0).reshape(2, 3))
    h = x * 2.0
    out = (h + 1.0).sum()
    ref = weakref.ref(h.value)
    del h
    assert ref() is None
    (g,) = tape.grad(out, [x])
    np.testing.assert_array_equal(g, np.full((2, 3), 2.0))


# ------------------------------------------------------------------ drift net
def test_driftnet_init_outputs_guided_score_exactly():
    rng = RngStream(7, 0)
    net = DriftNet.init(dim=3, n_steps=16, rng=rng)
    x = rng.normal((5, 3))
    score = rng.normal((5, 3))
    out = drift_forward(net, x, 8, score)
    np.testing.assert_array_equal(out, score)  # f1 == 0, f2 == 1 at init


def test_driftnet_no_guidance_zero_at_init():
    rng = RngStream(8, 0)
    net = DriftNet.init(dim=2, n_steps=8, rng=rng, guidance=False)
    out = drift_forward(net, np.array([[0.3, -0.7]]), 2)
    np.testing.assert_array_equal(out, np.zeros((1, 2)))


def test_driftnet_dimension_mismatch():
    rng = RngStream(9, 0)
    net = DriftNet.init(dim=2, n_steps=8, rng=rng)
    with pytest.raises(UsageError):
        drift_forward(net, np.zeros((1, 3)), 4, np.zeros((1, 3)))


def test_driftnet_step_index_outside_zero_to_n_steps_raises():
    net = DriftNet.init(dim=2, n_steps=8, rng=RngStream(9, 1))
    x = np.zeros((1, 2))
    for idx in (0, 8):
        drift_forward(net, x, idx, x)
    for idx in (-1, 9, 0.5):  # 0.5: a time in [0, 1], not a step index
        with pytest.raises(UsageError, match=r"step index .* not an integer in 0\.\.8"):
            drift_forward(net, x, idx, x)


def test_driftnet_gradients_match_finite_differences():
    rng = RngStream(10, 0)
    net = DriftNet.init(dim=2, n_steps=8, rng=rng, hidden_width=8, time_embedding_dim=8)
    # nonzero head so every parameter matters
    net.params["Wout"] = rng.normal((8, 2)) * 0.5
    net.params["bout"] = rng.normal(2) * 0.1
    x_val = rng.normal((4, 2))
    score_val = rng.normal((4, 2))
    proj = rng.normal((4, 2))

    def loss_at(params):
        out = drift_forward(net, x_val, 4, score_val, params=params)
        return float(np.sum(out * proj))

    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in net.params.items()}
    out = drift_forward(net, x_val, 4, score_val, params=leaves)
    loss = (out * proj).sum()
    grads = dict(zip(leaves.keys(), tape.grad(loss, list(leaves.values()))))

    eps = 1e-5
    for name, base in net.params.items():
        for j in range(min(base.size, 10)):
            plus = base.copy().ravel()
            plus[j] += eps
            minus = base.copy().ravel()
            minus[j] -= eps
            p_plus = dict(net.params, **{name: plus.reshape(base.shape)})
            p_minus = dict(net.params, **{name: minus.reshape(base.shape)})
            fd = (loss_at(p_plus) - loss_at(p_minus)) / (2 * eps)
            g = grads[name].ravel()[j]
            assert abs(g - fd) <= 1e-4 * max(abs(fd), 1.0) + 1e-8, (name, j, g, fd)


def test_driftnet_composed_loss_through_full_net_fd():
    # full-size 2 x 64 x 64 x d network; spot-check coordinates of each block
    rng = RngStream(11, 0)
    net = DriftNet.init(dim=3, n_steps=4, rng=rng)
    net.params["Wout"] = rng.normal((64, 3)) * 0.3
    x_val = rng.normal((2, 3))
    score_val = rng.normal((2, 3))

    def loss_at(params):
        out = drift_forward(net, x_val, 3, score_val, params=params)
        return float(np.sum(out * out))

    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in net.params.items()}
    out = drift_forward(net, x_val, 3, score_val, params=leaves)
    loss = (out * out).sum()
    grads = dict(zip(leaves.keys(), tape.grad(loss, list(leaves.values()))))

    eps = 1e-5
    check = {"W0": 6, "W1": 6, "b1": 6, "Wout": 6, "bout": 3, "f2": 2}
    for name, n_coords in check.items():
        base = net.params[name]
        for j in range(min(n_coords, base.size)):
            plus = base.copy().ravel()
            plus[j] += eps
            minus = base.copy().ravel()
            minus[j] -= eps
            fd = (
                loss_at(dict(net.params, **{name: plus.reshape(base.shape)}))
                - loss_at(dict(net.params, **{name: minus.reshape(base.shape)}))
            ) / (2 * eps)
            g = grads[name].ravel()[j]
            assert abs(g - fd) <= 1e-4 * max(abs(fd), 1.0) + 1e-8, (name, j, g, fd)


def _tanh(v):
    return v.tanh() if isinstance(v, Var) else np.tanh(v)


def _reference_drift_forward(net: DriftNet, x, idx: int, score=None, params=None):
    """The former op-by-op recording of drift_forward, kept verbatim as a reference."""
    p = net.params if params is None else params
    single = not isinstance(x, Var) and np.ndim(x) == 1
    if single:
        x = np.asarray(x, dtype=float)[None, :]
        if score is not None and not isinstance(score, Var):
            score = np.asarray(score, dtype=float)[None, :]
    d = x.shape[-1]
    if d != net.dim:
        raise UsageError(f"input dimension {d} does not match network dimension {net.dim}")
    if net.guidance:
        if score is None:
            raise UsageError("guidance is enabled but no score was provided")
        if score.shape[-1] != net.dim:
            raise UsageError("score dimension does not match network dimension")

    emb = net.emb_table[idx : idx + 1]  # (1, temb), constant w.r.t. parameters
    W0, b0 = p["W0"], p["b0"]
    # split the first affine layer so the constant embedding never needs a tape node
    h = _tanh(x @ W0[: net.dim] + emb @ W0[net.dim :] + b0)
    for layer in range(1, net.hidden_layers):
        h = _tanh(h @ p[f"W{layer}"] + p[f"b{layer}"])
    f1 = h @ p["Wout"] + p["bout"]
    if net.guidance:
        out = f1 + score * p["f2"][idx]
    else:
        out = f1
    if single and not isinstance(out, Var):
        return out[0]
    return out


def _drift_value_and_grads(forward, net, x_val, score_val, proj, x_var, score_var):
    """Value of one net call and the gradients of a nonlinear loss on it."""
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in net.params.items()}
    x = tape.leaf(x_val) if x_var else x_val
    score = tape.leaf(score_val) if score_var and net.guidance else score_val
    out = forward(net, x, 3, score if net.guidance else None, params=leaves)
    loss = (out * proj).tanh().sum() + (out * out).sum()
    wrt = dict(leaves)
    if x_var:
        wrt["x"] = x
    if score_var and net.guidance:
        wrt["score"] = score
    n_nodes = len(tape.nodes)
    grads = dict(zip(wrt, tape.grad(loss, list(wrt.values()))))
    return out.value, grads, n_nodes


@pytest.mark.parametrize("hidden_layers,guidance,x_var,score_var", [
    case for case in itertools.product((1, 2, 3), (True, False), (False, True), (False, True))
    if case[1] or not case[3]  # without guidance there is no score input
])
def test_fused_drift_net_matches_op_by_op_reference(hidden_layers, guidance, x_var,
                                                    score_var):
    rng = RngStream(12, hidden_layers)
    net = DriftNet.init(dim=3, n_steps=8, rng=rng, hidden_width=7, hidden_layers=hidden_layers,
                        time_embedding_dim=6, guidance=guidance)
    # nonzero head and guidance scales so every parameter and input matters
    net.params["Wout"] = rng.normal((7, 3)) * 0.5
    net.params["bout"] = rng.normal(3) * 0.1
    net.params["f2"] = 1.0 + 0.3 * rng.normal(9)
    x_val = rng.normal((5, 3))
    score_val = rng.normal((5, 3))
    proj = rng.normal((5, 3))

    ref_out, ref_grads, ref_nodes = _drift_value_and_grads(
        _reference_drift_forward, net, x_val, score_val, proj, x_var, score_var)
    out, grads, n_nodes = _drift_value_and_grads(
        drift_forward, net, x_val, score_val, proj, x_var, score_var)

    np.testing.assert_array_equal(out, ref_out)
    assert n_nodes < ref_nodes
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)), err_msg=name)


# ------------------------------------------------------------------------ rng
def test_rng_reproducible_per_key():
    a = RngStream(42, 3).normal(10)
    b = RngStream(42, 3).normal(10)
    np.testing.assert_array_equal(a, b)


def test_rng_streams_differ():
    a = RngStream(42, 0).normal(1000)
    b = RngStream(42, 1).normal(1000)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1
    assert not np.allclose(a, b)


def test_rng_counter_tracks_draws():
    s = RngStream(1, 0)
    s.normal(3)
    s.uniform(size=2)
    assert s.counter == 2
