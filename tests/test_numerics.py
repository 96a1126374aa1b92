import inspect
import itertools
import math
import tracemalloc
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samplebench import diffusion, metrics
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
from samplebench.numerics import nets
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
    target.log_unnorm(x)
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
    params = [np.array([1.0, -2.0, 0.5]), np.array(0.25)]
    before = [p.copy() for p in params]
    state = AdamState.init(params, learning_rate=0.1)
    adam_step(params, [np.zeros(3), np.zeros(())], state)
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p, b)
    assert state.step_count == 1


def test_adam_first_step_magnitude():
    # step 1: m_hat/sqrt(v_hat) = g/|g|, so the move is lr in magnitude
    params = [np.array([0.0])]
    adam_step(params, [np.array([2.0])], AdamState.init(params, learning_rate=0.1))
    assert params[0][0] == pytest.approx(-0.1, rel=1e-6)


def test_adam_two_steps_monotone():
    p = np.array([1.0])
    state = AdamState.init([p], learning_rate=0.05)
    g = np.array([3.0])
    adam_step([p], [g], state)
    p1 = p[0]
    adam_step([p], [g], state)
    assert state.step_count == 2
    assert p1 < 1.0 and p[0] < p1  # moving opposite sign(g) > 0


def test_adam_length_mismatch():
    state = AdamState.init([np.zeros(2)])
    with pytest.raises(UsageError):
        adam_step([np.zeros(3)], [np.zeros(3)], state)  # params unlike the moments
    with pytest.raises(UsageError):
        adam_step([np.zeros(2)], [np.zeros(3)], state)  # a gradient unlike its array
    with pytest.raises(UsageError):
        adam_step([np.zeros(2), np.zeros(2)], [np.zeros(2), np.zeros(2)], state)
    with pytest.raises(UsageError):  # nothing to update in place
        adam_step([np.zeros(2, dtype=int)], [np.zeros(2)], state)
    assert state.step_count == 0


def test_adam_rejects_a_gradient_that_is_not_float64():
    # a float32 gradient would be cast up silently into the float64 moments
    params = [np.zeros(3), np.zeros(2)]
    state = AdamState.init(params)
    for bad in (np.ones(2, dtype=np.float32), np.ones(2, dtype=np.float16)):
        with pytest.raises(UsageError, match="float64"):
            adam_step(params, [np.ones(3), bad], state)
    assert state.step_count == 0 and not any(p.any() for p in params)
    assert not any(m.any() for m in state.first_moments + state.second_moments)


# adam_step as it stood when it updated one flat vector and returned a copy,
# kept verbatim (with its state, renamed) as the reference for the in-place form.
@dataclass
class _ReferenceAdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def init(cls, n_params: int, learning_rate: float = 1e-3, **kw) -> "_ReferenceAdamState":
        return cls(np.zeros(n_params), np.zeros(n_params), 0, learning_rate, **kw)


def _reference_adam_step(params, grads, state: _ReferenceAdamState):
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
    new_state = _ReferenceAdamState(m, v, t, state.learning_rate, state.beta1, state.beta2,
                                    state.epsilon)
    return new_params, new_state


def test_adam_in_place_bitwise_equals_the_flat_copying_form():
    # a (3, 4) matrix, a vector and a 0-d array over 150 steps, updated in place,
    # against the former form on each array's flat copy; the gradients switch
    # sign, run at scales from 1e-6 to 1e3, and are exactly zero on some steps
    rng = RngStream(5, 0)
    params = [rng.normal((3, 4)), rng.normal(5), np.array(0.7)]
    objects = list(params)
    state = AdamState.init(params, learning_rate=0.03)
    refs = [(p.ravel().copy(), _ReferenceAdamState.init(p.size, learning_rate=0.03))
            for p in params]
    for step in range(150):
        scale = 10.0 ** (step % 10 - 6)
        grads = [rng.normal(np.shape(p)) * scale * (-1) ** step for p in params]
        if step % 7 == 3:
            grads[step % 3] = np.zeros(np.shape(params[step % 3]))
        adam_step(params, grads, state)
        refs = [_reference_adam_step(flat, g.ravel(), s) for (flat, s), g in zip(refs, grads)]
        for p, (flat, _) in zip(params, refs):
            assert p.ravel().tobytes() == flat.tobytes(), step
    assert all(p is o for p, o in zip(params, objects)) and state.step_count == 150
    assert [ref_state.step_count for _, ref_state in refs] == [150] * 3


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


# The float64 op-by-op recording of the net is the oracle: the finite-difference
# tests check it, and the float32 net is checked against it.
def _tanh(v):
    return v.tanh() if isinstance(v, Var) else np.tanh(v)


def _reference_drift_forward(net: DriftNet, x, idx: int, score=None, params=None,
                             weights32=None):
    """The former float64, op-by-op recording of drift_forward, kept verbatim as a
    reference; it ignores the float32 weight set a simulation hands the net."""
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
        out = _reference_drift_forward(net, x_val, 4, score_val, params=params)
        return float(np.sum(out * proj))

    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in net.params.items()}
    out = _reference_drift_forward(net, x_val, 4, score_val, params=leaves)
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
        out = _reference_drift_forward(net, x_val, 3, score_val, params=params)
        return float(np.sum(out * out))

    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in net.params.items()}
    out = _reference_drift_forward(net, x_val, 3, score_val, params=leaves)
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


# float32's unit roundoff.  Each of the float32 MLP's L affine layers rounds its
# inputs (u), sums at most n products (n u, the dot-product bound, n the largest
# fan-in or batch size a sum runs over) and takes a tanh (u), so its output is
# within L (n + 2) u of the float64 reference; the VJP runs the L layers back,
# so the gradients are within 2 L (n + 2) u.  Both are relative to the array's
# largest entry.
U32 = 2.0**-24


def _float32_net_bounds(n_layers, n_terms):
    """(output, gradient) error bounds of the float32 net against the reference."""
    per_layer = (n_terms + 2) * U32
    return n_layers * per_layer, 2 * n_layers * per_layer


def _assert_close_to_largest(got, ref, tol, name=""):
    np.testing.assert_allclose(got, ref, rtol=0, atol=tol * np.max(np.abs(ref)), err_msg=name)


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

    # L = hidden layers + head; n = 9, the first layer's fan-in (3 + 6), above
    # the width 7 and the batch 5
    out_tol, grad_tol = _float32_net_bounds(hidden_layers + 1, 9)
    assert out.dtype == np.float64
    _assert_close_to_largest(out, ref_out, out_tol)
    assert n_nodes < ref_nodes
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert grads[name].dtype == np.float64, name
        _assert_close_to_largest(grads[name], ref, grad_tol, name)


def _dds_spec(seed, guidance=True, n_steps=32):
    """DDS on MoG d=2 as the bench trains it, with a nonzero head so the MLP matters."""
    rng = RngStream(seed, 0)
    spec = diffusion.DiffusionSpec.create("dds", 2, rng, n_steps=n_steps, sigma_max=12.0,
                                          guidance=guidance)
    spec.drift_net.params["Wout"][...] = rng.normal((64, 2)) * 0.3
    spec.drift_net.params["bout"][...] = rng.normal(2) * 0.1
    return spec


@pytest.mark.parametrize("guidance", [True, False])
def test_drift_net_keeps_float32_activations_and_hands_out_float64(monkeypatch, guidance):
    # over one training step and an evaluation pass: the activations the VJP holds
    # are float32; the net's output, the adjoints its VJP returns, the parameters
    # and Adam's moments and gradients are float64
    held, adjoints, outputs, adam_calls = [], [], [], []
    make_vjp, forward, step = nets._drift_vjp, diffusion.drift_forward, diffusion.adam_step

    def recording_make_vjp(*args):
        held.extend(inspect.signature(make_vjp).bind(*args).arguments["hidden"])
        vjp = make_vjp(*args)

        def recording_vjp(g):
            grads = vjp(g)
            adjoints.extend(grads)
            return grads

        return recording_vjp

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        outputs.append(out.value if isinstance(out, Var) else out)
        return out

    def recording_step(params, grads, state):
        adam_calls.append((list(grads), state))
        step(params, grads, state)

    monkeypatch.setattr(nets, "_drift_vjp", recording_make_vjp)
    monkeypatch.setattr(diffusion, "drift_forward", recording_forward)
    monkeypatch.setattr(diffusion, "adam_step", recording_step)
    spec, target = _dds_spec(3, guidance, n_steps=8), make_mog_target(2)
    diffusion.train_diffusion(spec, target, "elbo", 1, 16, RngStream(3, 1))
    n_taped = len(outputs)
    diffusion.simulate_forward(spec, target, 16, RngStream(3, 2))  # off the tape

    assert n_taped == 8 and len(outputs) == 16 and len(held) == 8 * 2
    assert all(h.dtype == np.float32 for h in held)
    assert all(out.dtype == np.float64 for out in outputs)
    assert adjoints and all(a.dtype == np.float64 for a in adjoints)
    assert all(p.dtype == np.float64 for p in diffusion.trainable_parameters(spec).values())
    ((grads, state),) = adam_calls
    assert all(g.dtype == np.float64 for g in grads)
    assert all(m.dtype == np.float64 for m in state.first_moments + state.second_moments)


@pytest.mark.parametrize("method", ["dds", "gbs"])
def test_every_taped_vjp_of_a_step_holds_its_nets_one_float32_weight_set(monkeypatch, method):
    # the simulation casts each net's MLP weights once: every drift-net VJP on the
    # step's tape holds that net's arrays themselves, not a cast of its own
    held = []
    make_vjp = nets._drift_vjp

    def recording_make_vjp(*args):
        held.append(inspect.signature(make_vjp).bind(*args).arguments["mlp"])
        return make_vjp(*args)

    monkeypatch.setattr(nets, "_drift_vjp", recording_make_vjp)
    spec = diffusion.DiffusionSpec.create(method, 2, RngStream(4, 0), n_steps=8)
    diffusion.train_diffusion(spec, make_mog_target(2), "elbo", 1, 16, RngStream(4, 1))

    n_nets = 2 if method == "gbs" else 1
    assert len(held) == 8 * n_nets
    sets = {id(mlp[0]): mlp for mlp in held}
    assert len(sets) == n_nets
    for mlp in held:
        shared = sets[id(mlp[0])]
        assert len(mlp) == len(shared) == 6
        assert all(w is s and w.dtype == np.float32 for w, s in zip(mlp, shared))


def test_training_with_one_weight_cast_per_step_equals_a_cast_per_call(monkeypatch):
    # the shared float32 set is made afresh for each step: two iterations, where
    # Adam moves the weights in place in between, give bitwise the parameters of
    # the same run whose every net call casts the current weights itself
    def trained(forward):
        monkeypatch.setattr(diffusion, "drift_forward", forward)
        spec = _dds_spec(5, n_steps=8)
        diffusion.train_diffusion(spec, make_mog_target(2), "elbo", 2, 16, RngStream(5, 1),
                                  learning_rate=1e-2)
        return diffusion.trainable_parameters(spec)

    shared = trained(drift_forward)
    per_call = trained(lambda *args, weights32=None, **kwargs: drift_forward(*args, **kwargs))
    assert shared.keys() == per_call.keys()
    for name in shared:
        assert np.array_equal(shared[name], per_call[name]), name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_train_step_gradients_match_a_float64_run_of_the_same_step(monkeypatch, seed):
    # DDS on MoG d=2 (T=32, batch 64): the step with the float32 net against the
    # same step with the float64 reference net, on the same noise.  Each hop's net
    # call is within 2 L (n + 2) u of the reference (L = 3 layers, n = 66, the
    # first layer's fan-in 2 + 64, above the width and batch 64), and the T hops
    # of the chain add their errors: the tolerance is T times that, 7.8e-4.
    def step_gradients(forward):
        monkeypatch.setattr(diffusion, "drift_forward", forward)
        spec = _dds_spec(seed)
        params = diffusion.trainable_parameters(spec)
        loss, grads = diffusion._train_step(spec, make_mog_target(2), "elbo", params, 64,
                                            RngStream(seed, 1))
        return loss, dict(zip(params, grads))

    loss, grads = step_gradients(drift_forward)
    ref_loss, ref_grads = step_gradients(_reference_drift_forward)
    tol = 32 * _float32_net_bounds(3, 66)[1]
    assert loss == pytest.approx(ref_loss, rel=tol)
    assert grads.keys() == ref_grads.keys() and len(grads) == 7
    for name, ref in ref_grads.items():
        assert np.max(np.abs(ref)) > 0, name
        _assert_close_to_largest(grads[name], ref, tol, name)


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
