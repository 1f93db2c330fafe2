"""Covariance baseline: common spatial patterns + shrinkage LDA.

The reference linear decoder.  CSP finds spatial filters extremizing
the variance ratio between the two classes via the generalized
eigenproblem ``sigma_1 w = lambda (sigma_0 + sigma_1) w`` on
trace-normalized average covariance matrices; log-variance features of
the top and bottom ``N_FILTER_PAIRS`` filters feed a two-class LDA whose
pooled covariance gets a small diagonal shrinkage.

Anything this model can exploit lives in the lag-0 covariance; a task
whose classes share it (the parity construction) leaves it at chance by
design.  Covariances across time lags can still tell such classes
apart: on the parity task, CSP+LDA on a two-tap time-delay embedding
scores 1.000 at lags of 2 to 5 samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EpochSet
from .errors import DataError, NumericError

N_FILTER_PAIRS = 3
LDA_SHRINKAGE = 1e-4


@dataclass
class CspModel:
    filters: np.ndarray  # (2m, channels); first m favor class 1, last m class 0
    eigenvalues: np.ndarray

    @property
    def n_filters(self) -> int:
        return self.filters.shape[0]


@dataclass
class LdaModel:
    weights: np.ndarray
    bias: float


@dataclass
class CspLdaPipeline:
    csp: CspModel
    lda: LdaModel

    def predict(self, x: np.ndarray) -> np.ndarray:
        feats = csp_features(self.csp, x)
        return (feats @ self.lda.weights + self.lda.bias > 0).astype(np.int64)


def _class_covariances(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 3:
        raise DataError(f"expected trials x channels x samples, got shape {x.shape}")
    classes = np.unique(y)
    if not np.array_equal(classes, [0, 1]):
        raise DataError(f"CSP needs both classes 0 and 1; labels present: {classes.tolist()}")
    c = x @ x.transpose(0, 2, 1) / x.shape[2]
    tr = np.trace(c, axis1=1, axis2=2)
    if (tr <= 0).any():
        raise NumericError("trial covariance has non-positive trace")
    c /= tr[:, None, None]
    # a sum over axis 0 adds the trials in order, as a running total does
    return tuple(c[y == k].sum(axis=0) / np.count_nonzero(y == k) for k in (0, 1))


def fit_csp(x: np.ndarray, y: np.ndarray) -> CspModel:
    """Fit ``N_FILTER_PAIRS`` pairs of CSP filters from labeled epochs
    (trials x channels x samples)."""
    import scipy.linalg  # loaded here: only the CSP baseline needs it
    sigma0, sigma1 = _class_covariances(x, y)
    composite = sigma0 + sigma1
    try:
        eigvals, eigvecs = scipy.linalg.eigh(sigma1, composite)
    except np.linalg.LinAlgError as exc:  # the class scipy.linalg re-exports
        raise NumericError(f"generalized eigendecomposition failed: {exc}") from exc
    n, m = eigvals.size, N_FILTER_PAIRS
    if 2 * m > n:
        raise DataError(f"{m} filter pairs need >= {2 * m} channels, have {n}")
    # eigh returns ascending eigenvalues; big ones favor class 1
    order = list(range(n - 1, n - 1 - m, -1)) + list(range(m))
    filters = eigvecs[:, order].T
    return CspModel(filters=filters, eigenvalues=eigvals[order])


def csp_features(model: CspModel, x: np.ndarray) -> np.ndarray:
    """Normalized log-variance of each spatially filtered trial."""
    x = np.asarray(x, dtype=np.float64)
    z = np.einsum("fc,nct->nft", model.filters, x)
    var = z.var(axis=2)
    var = np.maximum(var, 1e-30)
    return np.log(var / var.sum(axis=1, keepdims=True))


def fit_lda(feats: np.ndarray, y: np.ndarray) -> LdaModel:
    """Two-class LDA with diagonal shrinkage of the pooled covariance."""
    feats = np.asarray(feats, dtype=np.float64)
    y = np.asarray(y)
    mu0 = feats[y == 0].mean(axis=0)
    mu1 = feats[y == 1].mean(axis=0)
    n = feats.shape[0]
    if n < 3:
        raise DataError(f"LDA needs at least 3 trials, got {n}")
    centered = feats.copy()
    centered[y == 0] -= mu0
    centered[y == 1] -= mu1
    pooled = centered.T @ centered / (n - 2)
    pooled = pooled + LDA_SHRINKAGE * np.mean(np.diag(pooled)) * np.eye(pooled.shape[0])
    try:
        weights = np.linalg.solve(pooled, mu1 - mu0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"LDA covariance is singular even after shrinkage: {exc}") from exc
    bias = -float(weights @ (mu0 + mu1) / 2.0)
    return LdaModel(weights=weights, bias=bias)


def fit_csp_lda(x: np.ndarray, y: np.ndarray) -> CspLdaPipeline:
    csp = fit_csp(x, y)
    lda = fit_lda(csp_features(csp, x), y)
    return CspLdaPipeline(csp=csp, lda=lda)


def baseline(epochs: EpochSet) -> dict:
    """Fit CSP+LDA on the train split of ``epochs``; its trial counts, filter
    count, and accuracy on both splits."""
    train_set, test_set = epochs.split_view("train"), epochs.split_view("test")
    model = fit_csp_lda(train_set.tensor, train_set.labels)
    return {
        "n_train": len(train_set),
        "n_test": len(test_set),
        "n_filters": model.csp.n_filters,
        "train_acc": float(np.mean(model.predict(train_set.tensor) == train_set.labels)),
        "test_acc": float(np.mean(model.predict(test_set.tensor) == test_set.labels)),
    }
