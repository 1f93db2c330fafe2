"""Tape-based reverse-mode autodiff over numpy arrays.

A ``Tensor`` records its parents and a backward closure when gradients
are enabled; ``backward()`` walks the tape in reverse topological order
with a deterministic accumulation order, so two identical runs produce
bitwise-identical gradients.  An op output drops its gradient once its
closure has passed it on; only leaves keep theirs.  Every op output is
checked for finiteness at creation; a NaN or Inf raises ``NumericError``
at the op that made it rather than surfacing later as a corrupted update.
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


def grad_enabled() -> bool:
    return _grad_enabled


def check_finite(data: np.ndarray, op: str) -> None:
    # one reduction instead of a full isfinite map; any NaN/Inf poisons the sum
    if not np.isfinite(np.sum(data, dtype=np.float64)):
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

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, dtype={self.data.dtype})"

    def accumulate(self, g: np.ndarray) -> None:
        if g.dtype != self.data.dtype:
            g = g.astype(self.data.dtype)
        if self.grad is None:
            # one new array in the data's layout, as zeros_like gives; adding 0
            # turns -0.0 into +0.0, as adding into zeros does
            self.grad = np.add(g, 0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse sweep from this node; seeds with ones unless given."""
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
        if seed is None:
            seed = np.ones_like(self.data)
        self.accumulate(np.asarray(seed, dtype=self.data.dtype))
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
    check_finite(data, op)
    out = Tensor(data, op=op)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = parents
        out._backward = backward
    return out


def constant(data, dtype=None) -> Tensor:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype)
    return Tensor(arr, requires_grad=False, op="const")
