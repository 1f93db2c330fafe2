"""Minimal reverse-mode autodiff: tensors, ops, and gradient checking."""

from . import ops
from .core import Parameter, Tensor, constant, no_grad
from .gradcheck import GradCheckReport, grad_check

__all__ = [
    "GradCheckReport",
    "Parameter",
    "Tensor",
    "constant",
    "grad_check",
    "no_grad",
    "ops",
]
