"""CSP + shrinkage LDA reference decoder."""

import numpy as np
import pytest

from neurodecode import baseline
from neurodecode.baseline import csp_features, fit_csp, fit_csp_lda
from neurodecode.data import SynthConfig, generate_synthetic, split
from neurodecode.errors import DataError, NumericError


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


def _class_covariances_per_trial(x, y):
    """The per-trial loop ``_class_covariances`` replaces: each trial's
    trace-normalized covariance, added to its class's running total."""
    x = np.asarray(x, dtype=np.float64)
    sums, counts = {0: None, 1: None}, {0: 0, 1: 0}
    for xi, yi in zip(x, y):
        c = xi @ xi.T / xi.shape[1]
        tr = np.trace(c)
        if tr <= 0:
            raise NumericError("trial covariance has non-positive trace")
        c /= tr
        k = int(yi)
        sums[k] = c if sums[k] is None else sums[k] + c
        counts[k] += 1
    return sums[0] / counts[0], sums[1] / counts[1]


class TestClassCovariances:
    @pytest.mark.parametrize("mode", ["linear", "xor"])
    def test_batched_product_matches_the_per_trial_loop_bit_for_bit(self, mode):
        epochs = split(generate_synthetic(SynthConfig(mode=mode, n_trials=200, seed=0)), 0.2, 0)
        train = epochs.split_view("train")
        got = baseline._class_covariances(train.tensor, train.labels)
        want = _class_covariances_per_trial(train.tensor, train.labels)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

    def test_zero_trace_trial_is_a_numeric_error(self):
        x, y = variance_contrast_trials(n=20, t=50)
        x[7] = 0.0
        for fn in (baseline._class_covariances, _class_covariances_per_trial):
            with pytest.raises(NumericError, match="non-positive trace"):
                fn(x, y)
        # with the zero trial gone, the two agree bit for bit again
        keep = np.arange(20) != 7
        got = baseline._class_covariances(x[keep], y[keep])
        want = _class_covariances_per_trial(x[keep], y[keep])
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


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
