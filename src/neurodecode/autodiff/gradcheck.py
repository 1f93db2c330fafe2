"""Finite-difference verification of analytic gradients.

Central differences with a fixed step compare every sampled parameter
entry against the tape's gradient.  Checks run in double precision
only: float32 round-off swamps the signal long before the tolerances
of interest here.

The checker also guards against nondeterministic forward passes (a
live dropout mask, an unseeded generator): it evaluates the loss twice
before differencing and refuses to certify gradients whose reference
point is not reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericError, UsageError
from .core import Parameter, no_grad

FD_STEP = 1e-5
# a report passes when its relative errors stay within all three
MEDIAN_TOL = 1e-6
P99_TOL = 1e-4
MAX_TOL = 1e-3


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


@dataclass
class ParamCheck:
    name: str
    n_entries: int
    max_rel: float
    worst_index: tuple
    worst_analytic: float
    worst_numeric: float


@dataclass
class GradCheckReport:
    checks: list[ParamCheck]
    rel_errors: np.ndarray
    deterministic: bool = True

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
            f"median {self.median_rel:.3e}, p99 {self.p99_rel:.3e}, max {self.max_rel:.3e}"
        )


def _entry_indices(p: Parameter, sample: int | None, rng: np.random.Generator) -> np.ndarray:
    size = p.data.size
    if sample is None or size <= sample:
        return np.arange(size)
    return np.sort(rng.choice(size, size=sample, replace=False))


def grad_check(
    loss_fn,
    params: list[tuple[str, Parameter]],
    step: float = FD_STEP,
    sample: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare tape gradients of ``loss_fn`` against central differences.

    Parameters
    ----------
    loss_fn : callable
        Builds a fresh graph and returns the scalar loss Tensor.  Must
        be deterministic; randomness (dropout masks, data order) has to
        be frozen by the caller.
    params : list of (name, Parameter)
        Float64 parameters reached by ``loss_fn``.
    step : float
        Central-difference half-step.
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
    first = float(loss_fn().data)
    second_t = loss_fn()
    second = float(second_t.data)
    if first != second:
        raise NumericError(
            "nondeterministic forward pass: two evaluations of the loss at the same "
            f"point returned {first!r} and {second!r}; freeze dropout masks and seed "
            "every random source before checking gradients"
        )
    for _, p in params:
        p.grad = None
    second_t.backward()
    analytic = {name: np.array(p.grad, copy=True) for name, p in params}
    for name, p in params:
        if p.grad is None:
            raise NumericError(f"parameter {name!r} received no gradient from loss_fn")

    rng = np.random.default_rng(seed)
    checks = []
    all_rel = []
    for name, p in params:
        idx = _entry_indices(p, sample, rng)
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        worst = (0.0, (0,), 0.0, 0.0)
        for i in idx:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + step
                f_plus = float(loss_fn().data)
                flat[i] = orig - step
                f_minus = float(loss_fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            rel = relative_error(float(a_flat[i]), numeric)
            all_rel.append(rel)
            if rel >= worst[0]:
                worst = (rel, np.unravel_index(i, p.data.shape), float(a_flat[i]), numeric)
        checks.append(
            ParamCheck(
                name=name,
                n_entries=len(idx),
                max_rel=worst[0],
                worst_index=worst[1],
                worst_analytic=worst[2],
                worst_numeric=worst[3],
            )
        )
    return GradCheckReport(checks=checks, rel_errors=np.array(all_rel))
