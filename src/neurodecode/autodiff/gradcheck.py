"""Finite-difference verification of analytic gradients.

Central differences with a fixed step compare every sampled parameter
entry against the tape's gradient.  Checks run in double precision
only: float32 round-off swamps the signal long before the tolerances
of interest here.

A kink (a ReLU's corner) inside the step makes a right gradient look
wrong.  An entry whose error exceeds ``P99_TOL`` and whose one-sided
slopes differ by more than its central slope misses the analytic one
straddles a kink: it is differenced again at ``KINK_STEP`` and keeps the
smaller of its two errors.  A wrong gradient is wrong at both steps.

The checker also guards against nondeterministic forward passes (a
live dropout mask, an unseeded generator): it evaluates the loss twice
before differencing and refuses to certify gradients whose reference
point is not reproducible.

A loss given as a ``Chain`` of stages is differenced from the stage
where a parameter first enters.  The centre evaluation keeps every
stage's output; each parameter restarts at the first stage whose part
of the centre tape (walked back from the stage's output to the output
of the stage before) reads it, on a constant holding the centre output
of the stage before.  The stages before it see no change, and the same
ops on the same inputs give the same bits, so the report equals that of
the full evaluation.  Any other callable, a ``Chain`` wrapped in a plain
function among them, is one stage and re-runs whole.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import NumericError, UsageError
from .core import Parameter, Tensor, constant, no_grad

FD_STEP = 1e-5
KINK_STEP = FD_STEP / 100
# a report passes when its relative errors stay within all three
MEDIAN_TOL = 1e-6
P99_TOL = 1e-4
MAX_TOL = 1e-3


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


@dataclass
class GradCheckReport:
    checks: list[str]  # the names of the checked tensors
    rel_errors: np.ndarray
    deterministic: bool = True
    kinks: int = 0  # entries re-differenced at KINK_STEP

    @property
    def max_rel(self) -> float:
        return float(self.rel_errors.max()) if self.rel_errors.size else 0.0

    @property
    def median_rel(self) -> float:
        return float(np.median(self.rel_errors)) if self.rel_errors.size else 0.0

    @property
    def p99_rel(self) -> float:
        return float(np.quantile(self.rel_errors, 0.99)) if self.rel_errors.size else 0.0

    @property
    def passed(self) -> bool:
        return (
            self.deterministic
            and self.median_rel <= MEDIAN_TOL
            and self.p99_rel <= P99_TOL
            and self.max_rel <= MAX_TOL
        )

    def summary(self) -> str:
        return (
            f"{len(self.checks)} tensors, {self.rel_errors.size} entries: "
            f"median {self.median_rel:.3e}, p99 {self.p99_rel:.3e}, max {self.max_rel:.3e}, "
            f"{self.kinks} kinks"
        )


class Chain:
    """A loss computed in stages: the first stage reads ``x``, each later
    one the output of the stage before.  Called with no argument, it
    returns the output of the last stage, so it serves as a ``loss_fn``."""

    def __init__(self, stages, x=None):
        self.stages = list(stages)
        self.x = x

    def __call__(self) -> Tensor:
        return self.run(0, self.x)

    def run(self, start: int, h) -> Tensor:
        """The stages from ``start`` on, the first of them reading ``h``."""
        for stage in self.stages[start:]:
            h = stage(h)
        return h

    def outputs(self) -> list[Tensor]:
        """Every stage's output, in order; the last is the loss."""
        h, out = self.x, []
        for stage in self.stages:
            h = stage(h)
            out.append(h)
        return out


def _first_readers(outputs: list[Tensor]) -> dict[int, int]:
    """The id of every parameter on the tape -> the first stage that reads it.

    Stage k's part of the tape is what its output reaches before the
    output of stage k - 1.
    """
    first: dict[int, int] = {}
    for k, out in enumerate(outputs):
        stop = outputs[k - 1] if k else None
        seen, stack = set(), [out]
        while stack:
            node = stack.pop()
            if node is stop or id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, Parameter):
                first.setdefault(id(node), k)
            stack.extend(node.parents)
    return first


def _entry_indices(p: Parameter, sample: int | None, rng: np.random.Generator) -> np.ndarray:
    size = p.data.size
    if sample is None or size <= sample:
        return np.arange(size)
    return np.sort(rng.choice(size, size=sample, replace=False))


def _losses_at(loss_fn, flat: np.ndarray, i: int, step: float) -> tuple[float, float]:
    """The loss with entry ``i`` of ``flat`` moved up, then down, by ``step``."""
    orig = flat[i]
    try:
        with no_grad():
            flat[i] = orig + step
            f_plus = float(loss_fn().data)
            flat[i] = orig - step
            f_minus = float(loss_fn().data)
    finally:
        flat[i] = orig
    return f_plus, f_minus


def grad_check(
    loss_fn,
    params: list[tuple[str, Parameter]],
    sample: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare tape gradients of ``loss_fn`` against central differences
    at ``FD_STEP``, re-checking kinked entries at ``KINK_STEP``.

    Parameters
    ----------
    loss_fn : Chain or callable
        Builds a fresh graph and returns the scalar loss Tensor.  Must
        be deterministic; randomness (dropout masks, data order) has to
        be frozen by the caller.  A ``Chain`` is differenced from the
        first stage that reads each parameter.
    params : list of (name, Parameter)
        Float64 parameters reached by ``loss_fn``.
    sample : int or None
        Entries checked per tensor; None checks every entry.  Sampling
        is seeded and reproducible.

    Raises
    ------
    UsageError
        If ``sample`` is below 1.
    NumericError
        If parameters are not float64, or two evaluations of the loss
        disagree (nondeterministic forward).
    """
    if sample is not None and sample < 1:
        raise UsageError(f"gradient check sample must be at least 1, got {sample}")
    for name, p in params:
        if p.data.dtype != np.float64:
            raise NumericError(
                f"gradient check requires float64 parameters; {name!r} is {p.data.dtype}"
            )
    chain = loss_fn if isinstance(loss_fn, Chain) else Chain([lambda _: loss_fn()])
    first = float(chain().data)
    outputs = chain.outputs()
    centre = outputs[-1]
    f0 = float(centre.data)
    if first != f0:
        raise NumericError(
            "nondeterministic forward pass: two evaluations of the loss at the same "
            f"point returned {first!r} and {f0!r}; freeze dropout masks and seed "
            "every random source before checking gradients"
        )
    for _, p in params:
        p.grad = None
    centre.backward()
    analytic = {name: np.array(p.grad, copy=True) for name, p in params}
    for name, p in params:
        if p.grad is None:
            raise NumericError(f"parameter {name!r} received no gradient from loss_fn")
    first_reader = _first_readers(outputs)
    # what each stage reads: the input for the first, a centre output for the others
    inputs = [chain.x, *(constant(out.data) for out in outputs[:-1])]
    del outputs, centre

    rng = np.random.default_rng(seed)
    all_rel = []
    kinks = 0
    for name, p in params:
        start = first_reader.get(id(p), 0)
        loss_from = functools.partial(chain.run, start, inputs[start])
        idx = _entry_indices(p, sample, rng)
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in idx:
            a = float(a_flat[i])
            f_plus, f_minus = _losses_at(loss_from, flat, i, FD_STEP)
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            rel = relative_error(a, numeric)
            # a kink inside the step: the one-sided slopes (f_plus - f0)/h and
            # (f0 - f_minus)/h differ by more than the central slope misses
            if rel > P99_TOL and abs((f_plus - f0) - (f0 - f_minus)) / FD_STEP > abs(numeric - a):
                kinks += 1
                f_plus, f_minus = _losses_at(loss_from, flat, i, KINK_STEP)
                fine = (f_plus - f_minus) / (2.0 * KINK_STEP)
                # not the new error outright: round-off swamps tiny entries at KINK_STEP
                rel = min(rel, relative_error(a, fine))
            all_rel.append(rel)
    return GradCheckReport(
        checks=[name for name, _ in params], rel_errors=np.array(all_rel), kinks=kinks
    )
