"""Minimal reverse-mode autodiff: tensors, ops, and gradient checking."""

from . import ops
from .core import Parameter, Tensor, constant, no_grad
from .gradcheck import FD_STEP, GradCheckReport, grad_check, relative_error

__all__ = [
    "FD_STEP",
    "GradCheckReport",
    "Parameter",
    "Tensor",
    "constant",
    "grad_check",
    "no_grad",
    "ops",
    "relative_error",
]
