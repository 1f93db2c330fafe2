"""CSP + shrinkage LDA reference decoder."""

import numpy as np
import pytest

from neurodecode import baseline
from neurodecode.baseline import csp_features, fit_csp, fit_csp_lda
from neurodecode.data import SynthConfig, generate_synthetic, split
from neurodecode.errors import DataError


def variance_contrast_trials(n=200, c=8, t=400, seed=0):
    """Two classes differing only in which channel carries high variance.

    Channel 0 is loud for class 1, channel 1 for class 0: the textbook
    CSP geometry with a known best filter direction per class.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, t))
    y = np.repeat([0, 1], n // 2)
    x[y == 1, 0, :] *= 4.0
    x[y == 0, 1, :] *= 4.0
    return x, y


class TestCsp:
    def test_filters_find_planted_axes(self):
        x, y = variance_contrast_trials()
        model = fit_csp(x, y)
        m = baseline.N_FILTER_PAIRS
        assert model.filters.shape == (2 * m, 8)
        # the first filter of each half extremizes its class's variance:
        # mass on channel 0 for class 1, on channel 1 for class 0
        top = np.abs(model.filters[0]) / np.linalg.norm(model.filters[0])
        bot = np.abs(model.filters[m]) / np.linalg.norm(model.filters[m])
        assert top[0] > 0.95
        assert bot[1] > 0.95

    def test_eigenvalue_order(self):
        x, y = variance_contrast_trials()
        model = fit_csp(x, y)
        m = baseline.N_FILTER_PAIRS
        # eigenvalues of sigma_1 w = lam (sigma_0+sigma_1) w live in (0,1),
        # stored extremes-first: [largest m, descending; smallest m, ascending]
        ev = model.eigenvalues
        assert ev.shape == (2 * m,)
        assert (ev > 0).all() and (ev < 1).all()
        assert (np.diff(ev[:m]) <= 0).all() and (np.diff(ev[m:]) >= 0).all()
        assert ev[0] > 0.5 > ev[m]

    def test_feature_shape_and_finiteness(self):
        x, y = variance_contrast_trials(n=60)
        model = fit_csp(x, y)
        feats = csp_features(model, x)
        assert feats.shape == (60, 6)
        assert np.isfinite(feats).all()

    def test_separable_task_high_accuracy(self):
        x, y = variance_contrast_trials(n=300, seed=1)
        pipe = fit_csp_lda(x[:200], y[:200])
        acc = float((pipe.predict(x[200:]) == y[200:]).mean())
        assert acc > 0.95

    def test_missing_class_rejected(self):
        x, y = variance_contrast_trials(n=40)
        with pytest.raises(DataError, match="classes"):
            fit_csp(x, np.zeros_like(y))
        with pytest.raises(DataError, match="classes"):
            fit_csp(x, y + 1)

    def test_too_few_channels_rejected(self):
        x, y = variance_contrast_trials(n=40, c=2 * baseline.N_FILTER_PAIRS - 1)
        with pytest.raises(DataError, match="filter pairs need"):
            fit_csp(x, y)

    def test_bad_rank_rejected(self):
        x = np.zeros((10, 3, 50))
        y = np.repeat([0, 1], 5)
        with pytest.raises((DataError, baseline.NumericError)):
            fit_csp_lda(x, y)

    def test_copied_channels_fail_the_eigendecomposition(self):
        # every channel carries one signal: each trial covariance has rank 1
        # and a positive trace, so the composite reaches eigh singular
        x = np.repeat(np.random.default_rng(0).standard_normal((10, 1, 50)), 8, axis=1)
        y = np.repeat([0, 1], 5)
        with pytest.raises(baseline.NumericError, match="generalized eigendecomposition failed"):
            fit_csp_lda(x, y)

    def test_deterministic(self):
        x, y = variance_contrast_trials(n=80, seed=2)
        a = fit_csp_lda(x, y)
        b = fit_csp_lda(x, y)
        assert np.array_equal(a.csp.filters, b.csp.filters)
        assert np.array_equal(a.lda.weights, b.lda.weights)
        assert a.lda.bias == b.lda.bias


class TestOnSynthetic:
    def test_linear_mode_separable(self):
        es = split(
            generate_synthetic(SynthConfig(mode="linear", n_trials=600, seed=0)), 0.25, 0
        )
        tr, te = es.split_view("train"), es.split_view("test")
        pipe = fit_csp_lda(tr.tensor.astype(np.float64), tr.labels)
        acc = float((pipe.predict(te.tensor.astype(np.float64)) == te.labels).mean())
        assert acc > 0.9

    def test_xor_mode_at_chance(self):
        # covariance statistics are class-identical by construction, so
        # the linear pipeline cannot beat coin flipping beyond noise
        es = split(
            generate_synthetic(SynthConfig(mode="xor", n_trials=1200, seed=0)), 0.25, 0
        )
        tr, te = es.split_view("train"), es.split_view("test")
        pipe = fit_csp_lda(tr.tensor.astype(np.float64), tr.labels)
        acc = float((pipe.predict(te.tensor.astype(np.float64)) == te.labels).mean())
        assert 0.38 < acc < 0.62
