"""Tape-based reverse-mode autodiff over numpy arrays.

A ``Tensor`` records its parents and a backward closure when gradients
are enabled; ``backward()`` walks the tape in reverse topological order
with a deterministic accumulation order, so two identical runs produce
bitwise-identical gradients.  An op output drops its gradient once its
closure has passed it on; only leaves keep theirs, and a constant
(``requires_grad`` False) never gets one.  A closure that builds a fresh
gradient buffer and passes it to no one else hands it over
(``accumulate(g, owned=True)``): on a first write that buffer becomes
``.grad`` instead of being copied, when it has the data's shape, dtype
and C layout.

Every computing op's output is checked for finiteness at creation, in
its own dtype, so a large but finite float32 or float64 value never
reads as an overflow; a NaN or Inf raises ``NumericError`` at the op
that made it rather than surfacing later as a corrupted update.  The
pure views (``VIEW_OPS``) are not checked: they hold exactly the values
of their input, which were checked when made.  Leaves are not checked
either, so a non-finite model input is first reported by the first op
that computes on it (in eegnet and conformer the ``matmul`` of the
spatial convolution).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import NumericError

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction (evaluation / frozen statistics)."""
    global _grad_enabled
    old = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = old


# ops whose output holds exactly its input's values, in another shape or order
VIEW_OPS = frozenset({"reshape", "transpose", "narrow"})


def check_finite(data: np.ndarray, op: str) -> None:
    # elementwise in the data's own dtype: a sum could overflow on finite values;
    # the ufunc's reduce, not ``.all()``, which goes through numpy's Python wrapper
    if not np.logical_and.reduce(np.isfinite(data), axis=None):
        raise NumericError(f"non-finite values produced by op {op!r}")


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "parents", "_backward", "requires_grad", "op")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf"):
        self.data = np.asarray(data)
        self.grad = None
        self.parents: tuple[Tensor, ...] = ()
        self._backward = None
        self.requires_grad = bool(requires_grad)
        self.op = op

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, dtype={self.data.dtype})"

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` to this node's gradient.

        ``owned``: the caller built ``g`` and passes it to no one else, so
        a first write may keep ``g`` itself as ``.grad`` instead of a copy.
        """
        if not self.requires_grad:  # nothing reads a constant's gradient
            return
        if g.dtype != self.data.dtype:
            g = g.astype(self.data.dtype)
        if self.grad is not None:
            self.grad += g
            return
        # adding 0 turns -0.0 into +0.0, as adding into zeros does
        layout = g.shape == self.data.shape and g.flags.c_contiguous and self.data.flags.c_contiguous
        if owned and layout:
            self.grad = np.add(g, 0, out=g)
        else:  # one new array in the data's layout, as zeros_like gives
            self.grad = np.add(g, 0, out=np.empty_like(self.data))

    def backward(self) -> None:
        """Reverse sweep from this node, seeded with ones."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None


class Parameter(Tensor):
    """A trainable leaf with a momentum buffer for SGD."""

    __slots__ = ("momentum", "name")

    def __init__(self, data, name: str = ""):
        super().__init__(np.asarray(data), requires_grad=True, op="param")
        self.momentum = np.zeros_like(self.data)
        self.name = name

    def astype(self, dtype) -> None:
        """Cast data and buffers in place (float64 for gradient checks)."""
        self.data = self.data.astype(dtype)
        self.momentum = self.momentum.astype(dtype)
        self.grad = None


def make(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    """Create an op output, wiring the tape only when gradients are on."""
    if op not in VIEW_OPS:
        check_finite(data, op)
    out = Tensor(data, op=op)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = parents
        out._backward = backward
    return out


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False, op="const")
