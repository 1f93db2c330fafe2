"""ERP-style preprocessing: reference, filter, downsample, epoch, normalize.

The pipeline turns a multichannel raw recording into per-trial epochs of
shape ``n_channels x 50`` at 100 Hz: re-reference (dropping the reference
electrode), zero-phase 1-40 Hz Butterworth band-pass, integer-factor
downsampling, stimulus-locked epoch extraction over [-200 ms, +500 ms),
pre-stimulus baseline correction, and per-channel z-scoring of the
post-stimulus 500 ms crop.

The stages after ``downsample`` act on the whole trial stack, one
n_trials x n_channels x n_samples array, in one call.  All stages
compute in double precision; ``run_pipeline`` casts to float32.  Every
stage is a pure function, safe to apply in parallel across recordings.

Memory: a stage returns a new array and its caller drops the old one,
so each full-rate stage holds one input and one output.  The band-pass
filters ``CHANNEL_BLOCK`` rows at a time into its output, so its
temporaries scale with a block, not the recording; ``downsample``
copies the rows it keeps, so the full-rate array is freed before
epoching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, NumericError

REF_CHANNEL = "Cz"  # subtracted from every other channel, then dropped
BAND = (1.0, 40.0)  # Hz: the band-pass edges
BUTTER_ORDER = 4  # applied forward-backward: effective order 8
BASELINE_MS = 200.0  # pre-stimulus baseline, ending at onset
CROP_MS = 500.0  # post-stimulus crop, starting at onset
TARGET_RATE = 100  # Hz: the rate of the epochs, and of the synthetic ones
ZSCORE_EPS = 1e-8
# channel rows per band-pass call, and per pink-noise draw of the raw generator
CHANNEL_BLOCK = 8


@dataclass(frozen=True)
class RawRecording:
    """A continuous multichannel recording with stimulus onsets.

    data is channels x samples in microvolts; event_onsets holds
    (sample_index, trial_id) pairs.
    """

    data: np.ndarray
    channel_names: tuple[str, ...]
    sample_rate: int
    event_onsets: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))
        object.__setattr__(self, "event_onsets", tuple((int(s), int(t)) for s, t in self.event_onsets))
        if data.ndim != 2:
            raise DataError(f"recording data must be channels x samples, got shape {data.shape}")
        if len(self.channel_names) != data.shape[0]:
            raise DataError(
                f"{len(self.channel_names)} channel names for {data.shape[0]} data rows"
            )
        if len(set(self.channel_names)) != len(self.channel_names):
            raise DataError("channel names must be unique")
        if self.sample_rate < 100:
            raise DataError(f"sample rate must be >= 100 Hz, got {self.sample_rate}")
        for onset, trial_id in self.event_onsets:
            if not 0 <= onset < data.shape[1]:
                raise DataError(f"event onset {onset} (trial {trial_id}) outside recording")

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def rereference(rec: RawRecording) -> RawRecording:
    """Subtract ``REF_CHANNEL`` from every other channel and drop it."""
    if REF_CHANNEL not in rec.channel_names:
        raise DataError(f"no reference channel {REF_CHANNEL!r} in {rec.channel_names[:8]}...")
    idx = rec.channel_names.index(REF_CHANNEL)
    # one output array, filled on each side of the reference row
    data = np.empty((len(rec.channel_names) - 1, rec.n_samples), dtype=rec.data.dtype)
    np.subtract(rec.data[:idx], rec.data[idx], out=data[:idx])
    np.subtract(rec.data[idx + 1 :], rec.data[idx], out=data[idx:])
    names = rec.channel_names[:idx] + rec.channel_names[idx + 1 :]
    return replace(rec, data=data, channel_names=names)


def bandpass(rec: RawRecording) -> RawRecording:
    """Zero-phase Butterworth band-pass over ``BAND``, applied forward-backward
    per channel.  ``BAND`` ends below the Nyquist rate of every recording,
    whose sample rate is at least 100 Hz.

    ``sosfiltfilt`` runs on ``CHANNEL_BLOCK`` rows at a time, writing
    into one output array.  Every row is filtered on its own, so the
    bytes equal one whole-array call's.
    """
    padlen = 3 * (2 * BUTTER_ORDER)
    if rec.n_samples <= padlen:
        raise DataError(f"recording too short to filter: {rec.n_samples} <= pad {padlen}")
    from scipy.signal import butter, sosfiltfilt  # loaded here: only the band-pass needs it
    # second-order sections: the flat polynomial form of an 8-pole
    # bandpass with a 1 Hz corner at 1 kHz amplifies round-off by ~1e10
    sos = butter(BUTTER_ORDER, BAND, btype="bandpass", output="sos", fs=rec.sample_rate)
    data = np.empty_like(rec.data)
    for start in range(0, len(data), CHANNEL_BLOCK):
        rows = slice(start, start + CHANNEL_BLOCK)
        data[rows] = sosfiltfilt(sos, rec.data[rows], axis=1, padtype="odd", padlen=padlen)
    return replace(rec, data=data)


def downsample(rec: RawRecording, target: int) -> RawRecording:
    """Keep every k-th sample (k = rate/target); onsets are floor-divided.

    The kept samples are copied into a new C-contiguous array, not
    viewed, so the full-rate input can be freed once its caller drops it.
    """
    if target <= 0 or rec.sample_rate % target != 0:
        raise DataError(f"sample rate {rec.sample_rate} is not an integer multiple of {target}")
    k = rec.sample_rate // target
    if k == 1:
        return rec
    data = rec.data[:, ::k].copy()
    onsets = tuple((s // k, t) for s, t in rec.event_onsets)
    return replace(rec, data=data, sample_rate=target, event_onsets=onsets)


def _samples(ms: float, rate: int) -> int:
    return int(round(ms / 1000.0 * rate))


def extract_epochs(rec: RawRecording) -> tuple[list[int], np.ndarray, list[tuple[int, str]]]:
    """Cut one window per event over [-``BASELINE_MS``, +``CROP_MS``).

    Returns (trial_ids, windows, skipped): windows is the C-contiguous
    n_kept x channels x samples stack, row i cut for trial_ids[i];
    skipped pairs (trial_id, reason) for onsets too close to a recording
    edge.  Nothing is dropped silently.
    """
    pre = _samples(BASELINE_MS, rec.sample_rate)
    post = _samples(CROP_MS, rec.sample_rate)
    trial_ids: list[int] = []
    starts: list[int] = []
    skipped: list[tuple[int, str]] = []
    for onset, trial_id in rec.event_onsets:
        start, stop = onset - pre, onset + post
        if start < 0:
            skipped.append((trial_id, f"window start {start} before recording start"))
        elif stop > rec.n_samples:
            skipped.append((trial_id, f"window end {stop} beyond recording end {rec.n_samples}"))
        else:
            trial_ids.append(trial_id)
            starts.append(start)
    if starts:
        windows = np.stack([rec.data[:, s : s + pre + post] for s in starts])
    else:
        windows = np.empty((0, rec.data.shape[0], pre + post), dtype=rec.data.dtype)
    if not np.isfinite(windows).all():
        raise NumericError("epoch contains non-finite values")
    return trial_ids, windows, skipped


def baseline_correct(windows: np.ndarray, t0: int) -> np.ndarray:
    """Subtract each channel's mean over the ``t0`` pre-stimulus samples."""
    if t0 == 0:
        raise DataError("epoch has no pre-stimulus samples to baseline from")
    out = windows - windows[..., :t0].mean(axis=-1, keepdims=True)
    if not np.isfinite(out).all():
        raise NumericError("epoch contains non-finite values")
    return out


def crop_and_zscore(windows: np.ndarray, t0: int, n_keep: int) -> np.ndarray:
    """Keep ``n_keep`` samples from onset ``t0`` and z-score each channel.

    Constant channels map to all zeros through the ``ZSCORE_EPS`` guard.
    """
    if windows.shape[-1] < t0 + n_keep:
        raise DataError(
            f"epoch of {windows.shape[-1]} samples cannot supply {n_keep} post-onset samples"
        )
    x = windows[..., t0 : t0 + n_keep]
    # centred once: the same operations, in the same order, as ``np.std``
    centered = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt(np.mean(centered * centered, axis=-1, keepdims=True))
    centered /= std + ZSCORE_EPS
    return centered


def run_pipeline(rec: RawRecording) -> tuple[np.ndarray, list[int], list[tuple[int, str]]]:
    """Full preprocessing chain over one recording.

    Returns (tensor, trial_ids, skipped): tensor is float32 of shape
    n_kept x n_channels x n_crop, trial_ids gives the event id per row.
    """
    rec = rereference(rec)
    rec = bandpass(rec)
    rec = downsample(rec, TARGET_RATE)
    trial_ids, windows, skipped = extract_epochs(rec)
    t0 = _samples(BASELINE_MS, rec.sample_rate)
    windows = baseline_correct(windows, t0)
    tensor = crop_and_zscore(windows, t0, n_keep=_samples(CROP_MS, rec.sample_rate))
    return tensor.astype(np.float32), trial_ids, skipped
