"""Reverse-mode autodiff over an append-only tape of vectorized primitives.

A node holds its op, its parents and its vector-Jacobian product (VJP); the
forward value lives on the `Var` handle, and each VJP closure captures only
what it reads (shapes, where that is all it needs).  So an intermediate is
freed as soon as no handle and no closure holds it.  The node list is a
Wengert list (every parent index precedes its consumer), so `Tape.grad` is a
single reverse sweep that visits each node exactly once and drops a node's
adjoint as soon as its VJP has run.  This is deliberately small: matmul,
elementwise arithmetic, tanh/exp, reductions and custom primitives are enough
to train the diffusion samplers.  MFVI and CRAFT fit diagonal affine maps,
whose reparameterized gradients are closed form, and take no tape.
"""

from __future__ import annotations

import numpy as np

from ..errors import UsageError


def _unbroadcast(grad, shape):
    """Sum `grad` back down to `shape` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class _Node:
    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op, parents, vjp):
        self.op = op
        self.parents = parents
        self.vjp = vjp


class Var:
    """Handle to one tape node and its forward value; supports the arithmetic the
    samplers need."""

    __slots__ = ("tape", "index", "value")
    __array_ufunc__ = None  # make ndarray <op> Var defer to our reflected ops

    def __init__(self, tape: "Tape", index: int, value: np.ndarray):
        self.tape = tape
        self.index = index
        self.value = value

    @property
    def shape(self):
        return np.shape(self.value)

    # -- elementwise arithmetic -------------------------------------------
    def __add__(self, other):
        if isinstance(other, Var):
            sa, sb = self.shape, other.shape
            return self.tape._record(
                self.value + other.value,
                (self.index, other.index),
                lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)),
                "add",
            )
        c = np.asarray(other, dtype=float)
        sa = self.shape
        return self.tape._record(
            self.value + c, (self.index,), lambda g: (_unbroadcast(g, sa),), "add_const"
        )

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other if isinstance(other, Var) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Var):
            a, b = self.value, other.value
            return self.tape._record(
                a * b,
                (self.index, other.index),
                lambda g: (_unbroadcast(g * b, np.shape(a)), _unbroadcast(g * a, np.shape(b))),
                "mul",
            )
        c = np.asarray(other, dtype=float)
        sa = self.shape
        return self.tape._record(
            self.value * c, (self.index,), lambda g: (_unbroadcast(g * c, sa),), "mul_const"
        )

    __rmul__ = __mul__

    # -- linear algebra ----------------------------------------------------
    def __matmul__(self, other):
        if not isinstance(other, Var):
            c = np.asarray(other, dtype=float)
            a = self.value
            return self.tape._record(a @ c, (self.index,), lambda g: (g @ c.T,), "matmul_const")
        a, b = self.value, other.value
        return self.tape._record(
            a @ b, (self.index, other.index), lambda g: (g @ b.T, a.T @ g), "matmul"
        )

    def __rmatmul__(self, other):
        c = np.asarray(other, dtype=float)
        b = self.value
        return self.tape._record(c @ b, (self.index,), lambda g: (c.T @ g,), "rmatmul_const")

    # -- nonlinearities ------------------------------------------------------
    def tanh(self):
        out = np.tanh(self.value)
        return self.tape._record(out, (self.index,), lambda g: (g * (1 - out**2),), "tanh")

    def exp(self):
        out = np.exp(self.value)
        return self.tape._record(out, (self.index,), lambda g: (g * out,), "exp")

    # -- reductions and shaping ---------------------------------------------
    def sum(self, axis=None):
        shape = self.shape

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

        return self.tape._record(np.sum(self.value, axis=axis), (self.index,), vjp, "sum")

    def mean(self, axis=None):
        a = self.value
        n = a.size if axis is None else a.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def logsumexp(self, axis=None):
        a = self.value
        m = np.max(a, axis=axis, keepdims=True)
        shifted = np.exp(a - m)
        s = np.sum(shifted, axis=axis, keepdims=True)
        softmax = shifted / s
        out_keep = np.log(s) + m
        if axis is None:
            out = out_keep.reshape(())
            vjp = lambda g: (g * softmax,)
        else:
            out = np.squeeze(out_keep, axis=axis)
            vjp = lambda g: (np.expand_dims(g, axis) * softmax,)
        return self.tape._record(out, (self.index,), vjp, "logsumexp")

    def cumsum(self):
        a = self.value
        return self.tape._record(
            np.cumsum(a), (self.index,), lambda g: (np.cumsum(g[::-1])[::-1],), "cumsum"
        )

    def __getitem__(self, key):
        shape = self.shape

        def vjp(g):
            out = np.zeros(shape)
            out[key] = g
            return (out,)

        return self.tape._record(self.value[key], (self.index,), vjp, "getitem")


class Tape:
    """Append-only record of one computation; build, then take `grad` once."""

    def __init__(self):
        self.nodes: list[_Node] = []

    def _record(self, value, parents, vjp, op) -> Var:
        idx = len(self.nodes)
        if any(p >= idx for p in parents):
            raise AssertionError("tape nodes must reference earlier indices only")
        self.nodes.append(_Node(op, parents, vjp))
        return Var(self, idx, np.asarray(value, dtype=float))

    def leaf(self, value) -> Var:
        return self._record(value, (), None, "leaf")

    def custom(self, value, parents, vjp, op="custom") -> Var:
        """Register a primitive with a caller-supplied vector-Jacobian product."""
        return self._record(value, tuple(p.index for p in parents), vjp, op)

    def grad(self, output: Var, wrt) -> list[np.ndarray]:
        """Adjoints of a scalar `output` w.r.t. each variable in `wrt`, leaves or not.

        One reverse sweep visits each node once.  A node's adjoint is complete
        when the sweep reaches it and is dropped there, after its VJP has run;
        only those of the variables in `wrt` are kept.
        """
        if np.ndim(output.value) != 0:
            raise UsageError("grad output must be scalar")
        wanted = {v.index for v in wrt}
        kept = {}
        adjoints = [None] * (output.index + 1)
        adjoints[output.index] = np.ones(())
        for i in range(output.index, -1, -1):
            g, adjoints[i] = adjoints[i], None
            if g is None:
                continue
            if i in wanted:
                kept[i] = g
            node = self.nodes[i]
            if not node.parents:
                continue
            for p, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                if adjoints[p] is None:
                    adjoints[p] = np.asarray(pg, dtype=float)
                else:
                    adjoints[p] = adjoints[p] + pg
        return [kept[v.index] if v.index in kept else np.zeros_like(v.value) for v in wrt]
