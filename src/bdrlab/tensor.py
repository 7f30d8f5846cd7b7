"""Dense float64 tensors with reverse-mode automatic differentiation.

The independent reference for the closed-form gradients the package trains
with: the tests build the classifier on this tape and compare
``Classifier.backward`` against it bit for bit. No run and no check of
``bdrlab verify`` uses it. It keeps only the primitives the tests need:
``matmul``, ``relu``, ``+``, ``*``, ``sum`` and ``mean``. The tape is the
implicit operation graph each result carries; ``backward`` replays it in
topological order, so an operation's inputs always receive their adjoints
after every use has contributed. Gradients accumulate into ``grad`` across
backward calls until the caller resets them, so repeated backward passes
sum.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "matmul", "relu", "value_and_grad"]


def _as_tensor(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad, shape):
    # sum the broadcast axes of `grad` back down to `shape`
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _topological_order(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        stack.extend((parent, False) for parent in node._parents)
    return order


class Tensor:
    """A dense n-dimensional float64 value, optionally on the gradient tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._vjp = None

    @staticmethod
    def _from_op(data, parents, vjp):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    def backward(self):
        """Accumulate d(self)/d(x) into ``grad`` of every participating tensor."""
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {self.data.shape}")
        order = _topological_order(self)
        adjoint = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            grad = adjoint.pop(id(node), None)
            if grad is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += grad
            if node._vjp is None:
                continue
            for parent, pgrad in zip(node._parents, node._vjp(grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                seen = adjoint.get(id(parent))
                adjoint[id(parent)] = pgrad if seen is None else seen + pgrad

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        a, b = self, _as_tensor(other)

        def vjp(g):
            return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

        return Tensor._from_op(a.data + b.data, (a, b), vjp)

    __radd__ = __add__

    def __mul__(self, other):
        a, b = self, _as_tensor(other)

        def vjp(g):
            return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

        return Tensor._from_op(a.data * b.data, (a, b), vjp)

    __rmul__ = __mul__

    def sum(self):
        src = self

        def vjp(g):
            return (np.full_like(src.data, float(g)),)

        return Tensor._from_op(np.asarray(src.data.sum()), (src,), vjp)

    def mean(self):
        src = self
        scale = 1.0 / src.data.size

        def vjp(g):
            return (np.full_like(src.data, float(g) * scale),)

        return Tensor._from_op(np.asarray(src.data.mean()), (src,), vjp)


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")

    def vjp(g):
        return g @ bd.T, ad.T @ g

    return Tensor._from_op(ad @ bd, (a, b), vjp)


def relu(x):
    x = _as_tensor(x)
    mask = x.data > 0.0  # subgradient at exactly 0 is 0

    def vjp(g):
        return (g * mask,)

    return Tensor._from_op(np.where(mask, x.data, 0.0), (x,), vjp)


def value_and_grad(f):
    """``f``, a map from a leaf Tensor to a scalar Tensor on the tape, as a
    map from an array to ``(value, gradient)`` for
    ``verification.finite_diff_check``."""

    def wrapped(x):
        leaf = Tensor(x, requires_grad=True)
        out = f(leaf)
        if not isinstance(out, Tensor) or out.data.size != 1:
            raise ValueError("f must return a scalar tensor")
        out.backward()
        return float(out.data), leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    return wrapped
