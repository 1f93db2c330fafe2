"""Preprocessing pipeline: oracles and invariants."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodecode import data, pipeline
from neurodecode.errors import DataError, NumericError
from neurodecode.pipeline import (
    BAND,
    BUTTER_ORDER,
    CHANNEL_BLOCK,
    RawRecording,
    bandpass,
    baseline_correct,
    crop_and_zscore,
    downsample,
    extract_epochs,
    rereference,
    run_pipeline,
)


def _rec(data_arr, rate=1000, onsets=(), names=None):
    n = data_arr.shape[0]
    if names is None:
        names = ("Cz",) + tuple(f"E{i:02d}" for i in range(1, n))
    return RawRecording(
        data=np.asarray(data_arr, dtype=np.float64),
        channel_names=names,
        sample_rate=rate,
        event_onsets=tuple(onsets),
    )


class TestRereference:
    def test_subtracts_reference_and_drops_it(self):
        arr = np.array([[1.0, 2.0], [5.0, 7.0], [3.0, -1.0]])
        rec = _rec(arr, names=("Cz", "E01", "E02"))
        out = rereference(rec)
        assert out.channel_names == ("E01", "E02")
        np.testing.assert_allclose(out.data, [[4.0, 5.0], [2.0, -3.0]])

    def test_common_mode_cancellation(self):
        rng = np.random.default_rng(0)
        common = rng.standard_normal(500)
        arr = np.tile(common, (4, 1))
        rec = _rec(arr, names=("Cz", "E01", "E02", "E03"))
        out = rereference(rec)
        assert np.abs(out.data).max() == 0.0

    @pytest.mark.parametrize("ref", [0, 3, 6], ids=["first", "middle", "last"])
    def test_matches_the_fancy_index_expression_bit_for_bit(self, ref):
        arr = np.random.default_rng(ref).standard_normal((7, 300)) * 50.0
        names = [f"E{i:02d}" for i in range(7)]
        names[ref] = "Cz"
        rec = _rec(arr, names=tuple(names))
        out = rereference(rec)
        keep = [i for i in range(7) if i != ref]
        assert out.channel_names == tuple(rec.channel_names[i] for i in keep)
        assert out.data.tobytes() == (arr[keep] - arr[ref]).tobytes()

    def test_unknown_reference(self):
        rec = _rec(np.zeros((2, 10)), names=("A", "B"))
        with pytest.raises(DataError):
            rereference(rec)


class TestBandpass:
    def test_zero_phase_impulse_symmetry(self):
        # forward-backward filtering has zero phase: the impulse
        # response must be symmetric around the impulse.  The short
        # 24-sample padding leaves ~1e-4 edge transients (the 1 Hz
        # corner settles over hundreds of samples), so compare the
        # central region against the peak; a causal filter would show
        # asymmetry on the order of the peak itself.
        n = 2001
        arr = np.zeros((1, n))
        arr[0, n // 2] = 1.0
        rec = _rec(arr, names=("E01",))
        out = bandpass(rec).data[0]
        mid = out[400:-400]
        sym_err = np.abs(mid - mid[::-1]).max()
        assert sym_err < 1e-2 * np.abs(out).max()

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 800))
        b = rng.standard_normal((2, 800))
        fa = bandpass(_rec(a, names=("x", "y"))).data
        fb = bandpass(_rec(b, names=("x", "y"))).data
        fab = bandpass(_rec(a + 2.0 * b, names=("x", "y"))).data
        np.testing.assert_allclose(fab, fa + 2.0 * fb, atol=1e-9)

    def test_stopband_attenuation(self):
        # an order-4 butterworth run twice gives |H|^2 = 1/(1+r^8):
        # ~0.19 at 50 Hz (r=1.25), ~0.004 at 80 Hz, tiny at 0.2 Hz
        t = np.arange(4000) / 1000.0
        line = np.sin(2 * np.pi * 50.0 * t)  # just above the band edge
        high = np.sin(2 * np.pi * 80.0 * t)  # well above
        drift = np.sin(2 * np.pi * 0.2 * t)  # slow drift, below the band
        keep = np.sin(2 * np.pi * 10.0 * t)  # inside the band
        rec = _rec(np.stack([line, high, drift, keep]), names=("a", "b", "c", "d"))
        out = bandpass(rec).data
        # the short pinned padding lets edge transients reach deep into
        # the signal; judge the response on the central steady state
        mid = slice(1700, 2300)
        assert np.abs(out[0, mid]).max() < 0.25
        assert np.abs(out[1, mid]).max() < 0.05
        assert np.abs(out[2, mid]).max() < 0.01
        assert 0.9 < np.abs(out[3, mid]).max() < 1.1

    @pytest.mark.parametrize("n_channels", [1, CHANNEL_BLOCK, 2 * CHANNEL_BLOCK + 3])
    def test_equals_one_whole_array_call_bit_for_bit(self, n_channels):
        from scipy.signal import butter, sosfiltfilt

        arr = np.random.default_rng(n_channels).standard_normal((n_channels, 3000)) * 20.0
        rec = _rec(arr)
        sos = butter(BUTTER_ORDER, BAND, btype="bandpass", output="sos", fs=1000)
        want = sosfiltfilt(sos, arr, axis=1, padtype="odd", padlen=3 * (2 * BUTTER_ORDER))
        out = bandpass(rec).data
        assert out.shape == arr.shape
        assert out.tobytes() == want.tobytes()

    def test_too_short_signal(self, monkeypatch):
        # rejected before scipy loads: a None entry makes its import raise ImportError
        monkeypatch.setitem(sys.modules, "scipy.signal", None)
        rec = _rec(np.zeros((1, 10)), names=("a",))
        with pytest.raises(DataError, match="too short"):
            bandpass(rec)


class TestDownsample:
    def test_keeps_every_kth_sample(self):
        arr = np.arange(40.0)[None, :]
        rec = _rec(arr, rate=1000, names=("a",), onsets=((10, 0), (25, 1)))
        out = downsample(rec, 100)
        np.testing.assert_array_equal(out.data[0], np.arange(0.0, 40.0, 10.0))
        assert out.sample_rate == 100
        # onsets divide by the factor, flooring
        assert out.event_onsets == ((1, 0), (2, 1))

    def test_returns_an_owned_contiguous_copy(self):
        # a view would keep the whole full-rate array alive through epoching
        arr = np.random.default_rng(0).standard_normal((5, 1003))
        out = downsample(_rec(arr), 100).data
        assert out.flags["C_CONTIGUOUS"] and out.base is None
        assert out.tobytes() == arr[:, ::10].tobytes()

    def test_non_integer_factor(self):
        rec = _rec(np.zeros((1, 30)), rate=1000, names=("a",))
        with pytest.raises(DataError):
            downsample(rec, 300)


class TestEpochs:
    def test_window_and_skip_reporting(self):
        n = 200
        arr = np.arange(n, dtype=np.float64)[None, :]
        # onset 5 leaves no room for the 20-sample pre-window; onset 190
        # leaves no room for the 50-sample post-window
        rec = _rec(arr, rate=100, names=("a",), onsets=((5, 0), (100, 1), (190, 2)))
        trial_ids, windows, skipped = extract_epochs(rec)
        assert trial_ids == [1]
        assert sorted(t for t, _ in skipped) == [0, 2]
        for _, reason in skipped:
            assert isinstance(reason, str) and reason
        assert windows.shape == (1, 1, 70)
        assert windows.dtype == np.float64 and windows.flags.c_contiguous
        np.testing.assert_array_equal(windows[0, 0], np.arange(80.0, 150.0))

    def test_rows_follow_kept_trials(self):
        arr = np.arange(600, dtype=np.float64).reshape(2, 300)
        rec = _rec(arr, rate=100, names=("a", "b"), onsets=((250, 7), (30, 4), (280, 9)))
        trial_ids, windows, skipped = extract_epochs(rec)
        assert trial_ids == [7, 4] and [t for t, _ in skipped] == [9]
        np.testing.assert_array_equal(windows[0], arr[:, 230:300])
        np.testing.assert_array_equal(windows[1], arr[:, 10:80])

    def test_baseline_oracle(self):
        # window mean [1, 3] -> 2 and [2, 2] -> 2, subtracted everywhere
        arr = np.array([[[1.0, 3.0, 1.0, 3.0], [2.0, 2.0, 2.0, 2.0]]])
        out = baseline_correct(np.concatenate([arr, arr + 5.0]), t0=2)
        expected = [[-1.0, 1.0, -1.0, 1.0], [0.0, 0.0, 0.0, 0.0]]
        np.testing.assert_allclose(out, [expected, expected])

    def test_baseline_requires_window(self):
        with pytest.raises(DataError):
            baseline_correct(np.zeros((1, 1, 4)), t0=0)

    def test_non_finite_after_baseline_is_numeric_error(self):
        windows = np.array([[[0.0, 0.0, np.inf]]])
        with pytest.raises(NumericError, match="non-finite"):
            baseline_correct(windows, t0=2)

    def test_crop_and_zscore(self):
        rng = np.random.default_rng(2)
        windows = rng.standard_normal((2, 3, 70)) * 5 + 2
        out = crop_and_zscore(windows, t0=20, n_keep=50)
        assert out.shape == (2, 3, 50)
        np.testing.assert_allclose(out.mean(axis=2), 0.0, atol=1e-12)
        # std slightly under 1 because of the epsilon in the denominator
        assert np.all(out.std(axis=2) < 1.0)
        assert np.all(out.std(axis=2) > 0.99)

    def test_crop_needs_enough_post_onset_samples(self):
        with pytest.raises(DataError):
            crop_and_zscore(np.zeros((1, 1, 60)), t0=20, n_keep=50)


def _per_trial_reference(rec, pre=20, post=50, n_keep=50, eps=1e-8):
    """The epoch stages one trial at a time: cut, baseline, crop, z-score."""
    rows, trial_ids = [], []
    for onset, trial_id in rec.event_onsets:
        if onset - pre < 0 or onset + post > rec.n_samples:
            continue
        ep = rec.data[:, onset - pre : onset + post].copy()
        ep = ep - ep[:, :pre].mean(axis=1, keepdims=True)
        x = ep[:, pre : pre + n_keep]
        std = x.std(axis=1, keepdims=True)
        rows.append((x - x.mean(axis=1, keepdims=True)) / (std + eps))
        trial_ids.append(trial_id)
    return np.stack(rows), trial_ids


class TestFullPipeline:
    def test_on_synthetic_raw(self):
        cfg = data.SynthConfig(mode="linear", n_trials=20, seed=0)
        rec, meta = data.generate_raw(cfg)
        tensor, trial_ids, skipped = run_pipeline(rec)
        assert tensor.dtype == np.float32
        assert tensor.shape[1] == 63 and tensor.shape[2] == 50
        assert tensor.shape[0] + len(skipped) == len(rec.event_onsets)
        assert np.isfinite(tensor).all()
        np.testing.assert_allclose(tensor.mean(axis=2), 0.0, atol=1e-5)

    def test_short_lead_in_skips_first_trials(self):
        cfg = data.SynthConfig(mode="linear", n_trials=8, seed=0)
        rec, _ = data.generate_raw(cfg, lead_in_ms=50)
        tensor, trial_ids, skipped = run_pipeline(rec)
        assert len(skipped) >= 1
        assert len(trial_ids) + len(skipped) == 8

    def test_deterministic(self):
        cfg = data.SynthConfig(mode="linear", n_trials=10, seed=3)
        rec, _ = data.generate_raw(cfg)
        t1, _, _ = run_pipeline(rec)
        t2, _, _ = run_pipeline(rec)
        assert np.array_equal(t1.view(np.uint8), t2.view(np.uint8))

    @pytest.mark.parametrize("seed, n_trials, lead_in_ms", [(0, 120, 120), (5, 64, 50), (7, 10, 0)])
    def test_stack_matches_per_trial_reference(self, seed, n_trials, lead_in_ms):
        cfg = data.SynthConfig(mode="linear", n_trials=n_trials, seed=seed)
        rec, _ = data.generate_raw(cfg, lead_in_ms=lead_in_ms)
        down = downsample(bandpass(rereference(rec)), 100)
        ref, ref_ids = _per_trial_reference(down)
        tensor, trial_ids, _ = run_pipeline(rec)
        assert trial_ids == ref_ids
        assert tensor.shape == ref.shape
        assert tensor.tobytes() == ref.astype(np.float32).tobytes()
        # the float64 stack before the cast, bit for bit: row reductions
        # over the stack must sum in the per-trial order
        _, windows, _ = extract_epochs(down)
        assert crop_and_zscore(baseline_correct(windows, 20), 20, 50).tobytes() == ref.tobytes()

    def test_peak_memory_above_the_input(self):
        # 31.5 MB of recording; one whole-array sosfiltfilt call and a
        # strided downsampled view peak at 3.9x it above the input, a
        # block-wise filter and a downsampled copy at 2.3x
        import scipy.signal  # noqa: F401  the import's own allocations are not the chain's

        cfg = data.SynthConfig(mode="linear", n_trials=600, seed=0)
        rec, _ = data.generate_raw(cfg, lead_in_ms=120.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_pipeline(rec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * rec.data.nbytes, f"peak {peak / rec.data.nbytes:.2f}x the recording"

    def test_epochs_are_cut_with_one_copy(self):
        arr = np.random.default_rng(1).standard_normal((63, 20000))
        rec = _rec(arr, rate=100, onsets=[(s, s) for s in range(20, 19900, 50)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, windows, _ = extract_epochs(rec)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert windows.flags["C_CONTIGUOUS"]
        # a (channels, n, samples) gather then a transposed copy peaks at 2x
        assert peak < 1.2 * windows.nbytes, f"peak {peak / windows.nbytes:.2f}x the stack"

    def test_recording_shorter_than_a_window(self):
        cfg = data.SynthConfig(mode="linear", n_trials=2, seed=0)
        rec, _ = data.generate_raw(cfg, lead_in_ms=0)
        short = RawRecording(rec.data[:, :300], rec.channel_names, rec.sample_rate, ((10, 0), (200, 1)))
        tensor, trial_ids, skipped = run_pipeline(short)
        assert tensor.shape == (0, 63, 50) and tensor.dtype == np.float32
        assert trial_ids == [] and [t for t, _ in skipped] == [0, 1]

    def test_nan_sample_is_numeric_error(self):
        cfg = data.SynthConfig(mode="linear", n_trials=10, seed=7)
        rec, _ = data.generate_raw(cfg)
        bad = rec.data.copy()
        bad[5, 1500] = np.nan
        rec = RawRecording(bad, rec.channel_names, rec.sample_rate, rec.event_onsets)
        with pytest.raises(NumericError, match="epoch contains non-finite values"):
            run_pipeline(rec)


@settings(max_examples=25, deadline=None)
@given(
    scale=st.floats(0.1, 100.0),
    shift=st.floats(-50.0, 50.0),
    seed=st.integers(0, 2**16),
)
def test_zscore_scale_shift_invariance(scale, shift, seed):
    """Per-channel z-scoring is invariant to affine rescaling (up to eps)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((3, 4, 70))
    za = crop_and_zscore(base, t0=20, n_keep=50)
    zb = crop_and_zscore(base * scale + shift, t0=20, n_keep=50)
    np.testing.assert_allclose(za, zb, atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), factor=st.sampled_from([2, 5, 10]))
def test_downsample_preserves_values(seed, factor):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((3, 120))
    rec = _rec(arr, rate=1000, names=("a", "b", "c"))
    out = downsample(rec, 1000 // factor)
    np.testing.assert_array_equal(out.data, arr[:, ::factor])
