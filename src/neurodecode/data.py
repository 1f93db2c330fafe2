"""Trial metadata, epoch containers, task builders, and synthetic data.

The decoding task is binary animacy classification over visual-object
concepts grouped into eleven categories.  This module owns the category
to label table and the concept inventory, train/test splitting, and
seeded synthetic generators used to exercise every downstream stage at
desk scale:

``linear``
    Class-signed spatial pattern with a fixed temporal envelope, plus a
    class-indexed oscillatory variance carrier.  Linearly separable;
    both the covariance baseline and the trained decoders should solve
    it.
``xor``
    Two spatial patterns whose signs are drawn independently; the label
    is their parity.  The two patterns ride on quadrature temporal
    envelopes, so the class-conditional means and the lag-0 covariances
    are identical and a decoder of lag-0 covariance (CSP+LDA) sits at
    chance.  The label is not hidden from covariances across time lags:
    CSP+LDA on a two-tap time-delay embedding (x(t) stacked on
    x(t + tau)) scores 1.000 at tau = 2, 3 and 5 samples (xor, 4000
    trials, seed 0).
``subject_signature``
    Each subject gets a random spatial fingerprint; the label is the
    subject index.  A sanity task for subject-identity leakage.

All randomness flows through numpy's default PCG64 generator, seeded
from a single ``SeedSequence`` so that independent streams (patterns,
noise, labels) are reproducible bit for bit across runs and platforms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import eegb, pipeline
from .errors import DataError, MetaMismatchError, UsageError, check_fields, check_seed
from .pipeline import (
    CHANNEL_BLOCK,
    CROP_MS,
    REF_CHANNEL,
    TARGET_RATE,
    RawRecording,
    _samples,
    crop_and_zscore,
)

# Category table for the animacy task: category name -> number of
# concepts.  Label 1 = alive, 0 = not alive; anything absent (e.g.
# "vehicle") is excluded from the task.
ALIVE_CATEGORIES: dict[str, int] = {
    "animal": 113,
    "body part": 34,
    "animal, bird": 25,
    "animal, food": 20,
    "animal, insect": 17,
    "people": 5,
}
NONLIVING_CATEGORIES: dict[str, int] = {
    "tool": 59,
    "sports equipment": 51,
    "electronic device": 43,
    "musical instrument": 33,
    "weapon": 29,
}
N_CONCEPTS = sum(ALIVE_CATEGORIES.values()) + sum(NONLIVING_CATEGORIES.values())  # 429

N_CHANNELS = 63
N_SAMPLES = _samples(CROP_MS, TARGET_RATE)  # 50: the post-onset crop at the epoch rate
N_SUBJECTS = 4  # trial i goes to subject i % 4 + 1
# the raw recording: a 1 kHz stream with one stimulus every 100 ms
RAW_RATE = 1000
RAW_INTERVAL_MS = 100.0
TEST_FRAC = 0.2  # the share of test trials in the split that synthesize and preprocess draw

# Per-mode signal-to-noise defaults, fixed by the pilot sweep in
# scripts/pilot_snr.py (see its header for the recorded accuracies).
# Its keys are the generator modes: ``SynthConfig`` and ``synth --mode`` take these.
DEFAULT_SNR: dict[str, float] = {
    "linear": 1.2,
    "xor": 1.5,
    "subject_signature": 1.2,
}


def category_to_label(category: str) -> int | None:
    """Map a category name to its animacy label, or None if excluded."""
    if category in ALIVE_CATEGORIES:
        return 1
    if category in NONLIVING_CATEGORIES:
        return 0
    return None


@dataclass
class TrialMeta:
    """Everything known about one trial besides its samples."""

    trial_id: int
    subject: int
    concept_id: int
    concept_name: str
    category: str
    label: int
    split: str | None = None

    def __post_init__(self):
        if self.trial_id < 0:
            raise DataError(f"negative trial_id {self.trial_id}")
        if self.subject < 1:
            raise DataError(f"subject ids are 1-based, got {self.subject}")
        if not 0 <= self.concept_id < N_CONCEPTS:
            raise DataError(f"concept_id {self.concept_id} outside [0, {N_CONCEPTS})")
        if self.label < 0:
            raise DataError(f"negative label {self.label}")
        if self.split not in (None, "train", "test"):
            raise DataError(f"split must be train/test/None, got {self.split!r}")

    def to_dict(self) -> dict:
        # every field is a scalar, so asdict's deep copy buys nothing
        return {name: getattr(self, name) for name in _META_KINDS}

    @classmethod
    def from_dict(cls, d: dict, where) -> "TrialMeta":
        """Inverse of ``to_dict`` for a record read from ``where``; only split may be absent."""
        check_fields(d, _META_KINDS, where, required=_META_REQUIRED)
        try:
            return cls(**{name: d[name] for name in _META_KINDS if name in d})
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from exc


# the JSON kind of each TrialMeta field
_META_KINDS = {
    "trial_id": int, "subject": int, "concept_id": int, "concept_name": str,
    "category": str, "label": int, "split": (str, None),
}
_META_REQUIRED = _META_KINDS.keys() - {"split"}


@dataclass
class EpochSet:
    """Preprocessed trials: float32 tensor n x channels x samples + metadata."""

    tensor: np.ndarray
    meta: list[TrialMeta]

    def __post_init__(self):
        self.tensor = np.asarray(self.tensor, dtype=np.float32)
        if self.tensor.ndim != 3:
            raise DataError(f"epoch tensor must be 3-d, got shape {self.tensor.shape}")
        if len(self.meta) != self.tensor.shape[0]:
            raise DataError(
                f"{len(self.meta)} metadata rows for {self.tensor.shape[0]} trials"
            )

    def __len__(self) -> int:
        return self.tensor.shape[0]

    @property
    def labels(self) -> np.ndarray:
        return np.array([m.label for m in self.meta], dtype=np.int64)

    def subset(self, indices) -> "EpochSet":
        indices = np.asarray(indices)
        return EpochSet(self.tensor[indices], [self.meta[i] for i in indices])

    def _require_split(self, where: str = "") -> None:
        unsplit = sum(m.split is None for m in self.meta)
        if unsplit:
            raise DataError(f"{where}{unsplit} of {len(self)} trials have no train/test split")

    def split_rows(self, which: str) -> np.ndarray:
        """The row indices of split ``which``, in order; every trial must
        have a split, so none is left out silently."""
        self._require_split()
        rows = np.array([i for i, m in enumerate(self.meta) if m.split == which], dtype=np.intp)
        if not rows.size:
            raise DataError(f"no trials assigned to split {which!r}")
        return rows

    def split_view(self, which: str) -> "EpochSet":
        """The trials of split ``which``, copied out of the tensor."""
        return self.subset(self.split_rows(which))


def concept_table() -> list[tuple[int, str, str, int]]:
    """The full concept inventory as (concept_id, name, category, label).

    Concepts are synthetic stand-ins named after their category; ids are
    assigned in fixed table order, alive block first.
    """
    rows = []
    cid = 0
    for table in (ALIVE_CATEGORIES, NONLIVING_CATEGORIES):
        for category, count in table.items():
            label = category_to_label(category)
            for i in range(count):
                rows.append((cid, f"{category} {i:03d}", category, label))
                cid += 1
    return rows


def build_task(epochs: EpochSet, subject: int | None = None) -> EpochSet:
    """Select the cross-subject task (all trials) or one subject's trials."""
    if subject is None:
        return epochs
    known = sorted({m.subject for m in epochs.meta})
    if subject not in known:
        raise DataError(f"unknown subject {subject}; dataset has subjects {known}")
    idx = [i for i, m in enumerate(epochs.meta) if m.subject == subject]
    return epochs.subset(idx)


def n_test_trials(n: int, test_frac: float, error=DataError) -> int:
    """The test size of an ``n``-trial split, round(frac * n); raises
    ``error`` unless both splits are nonempty."""
    n_test = int(round(test_frac * n))
    if n_test <= 0 or n_test >= n:
        raise error(
            f"test_frac {test_frac} gives {n_test} test trials out of {n}; both splits must be nonempty"
        )
    return n_test


def split(epochs: EpochSet, test_frac: float, seed: int) -> EpochSet:
    """Assign a seeded random train/test split; test size = round(frac * n)."""
    check_seed(seed)
    n = len(epochs)
    n_test = n_test_trials(n, test_frac)
    perm = np.random.default_rng(seed).permutation(n)
    assignment = ["train"] * n
    for i in perm[:n_test]:
        assignment[i] = "test"
    meta = [replace(m, split=s) for m, s in zip(epochs.meta, assignment)]
    return EpochSet(epochs.tensor, meta)


@dataclass(frozen=True)
class SynthConfig:
    mode: str = "linear"
    n_trials: int = 2000
    snr: float | None = None  # None: per-mode default from the pilot sweep
    seed: int = 0

    def __post_init__(self):
        if self.mode not in DEFAULT_SNR:
            raise UsageError(f"unknown synthetic mode {self.mode!r}")
        if self.n_trials < 2 or self.n_trials % 2 != 0:
            raise UsageError(f"n_trials must be even and >= 2, got {self.n_trials}")
        if self.snr is not None and not np.isfinite(self.snr):
            raise UsageError(f"snr must be finite, got {self.snr}")
        if self.snr is not None and self.snr <= 0:
            raise UsageError(f"snr must be positive, got {self.snr}")
        check_seed(self.seed)

    @property
    def effective_snr(self) -> float:
        return DEFAULT_SNR[self.mode] if self.snr is None else self.snr


def _envelopes(rate: int = TARGET_RATE) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature pair of Gaussian-windowed 5 Hz envelopes over one
    ``CROP_MS`` trial at ``rate`` Hz, unit RMS.

    The pair is explicitly orthogonalized so the cross term of the lag-0
    second moments vanishes exactly, not just in expectation.  At a lag
    tau it does not: sum_t w1(t) w2(t + tau) is not 0 for a quadrature
    pair.
    """
    t = np.arange(_samples(CROP_MS, rate), dtype=np.float64) / rate
    window = np.exp(-0.5 * ((t - 0.17) / 0.035) ** 2)
    w1 = window * np.cos(2 * np.pi * 5.0 * (t - 0.17))
    w2 = window * np.sin(2 * np.pi * 5.0 * (t - 0.17))
    w2 = w2 - (w1 @ w2) / (w1 @ w1) * w1
    w1 /= np.sqrt(np.mean(w1**2))
    w2 /= np.sqrt(np.mean(w2**2))
    return w1, w2


def _patterns(rng: np.random.Generator, count: int) -> np.ndarray:
    """Mutually orthogonal spatial patterns, each scaled to unit per-channel RMS."""
    raw = rng.standard_normal((N_CHANNELS, count))
    q, _ = np.linalg.qr(raw)
    return (q * np.sqrt(N_CHANNELS)).T.copy()


def _shape_pink(white: np.ndarray) -> np.ndarray:
    """White noise shaped to 1/f amplitude along the last axis, unit RMS per row.

    Every step acts on one row at a time, so a block of rows gets the
    same bytes as the whole array it was cut from.
    """
    length = white.shape[-1]
    spec = np.fft.rfft(white, axis=-1)
    freqs = np.fft.rfftfreq(length)
    scale = np.zeros_like(freqs)
    scale[1:] = 1.0 / np.sqrt(freqs[1:])
    spec *= scale
    out = np.fft.irfft(spec, n=length, axis=-1)
    rms = np.sqrt(np.mean(out**2, axis=-1, keepdims=True))
    return out / (rms + 1e-12)


def _pink_noise(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """1/f-amplitude noise along the last axis, unit RMS per row."""
    return _shape_pink(rng.standard_normal(shape))


def _background(own: np.ndarray, sources: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """Per-channel pink noise ``own`` (``... x N_CHANNELS x T``) plus the
    spatially correlated component that ``mixing`` makes of the pink ``sources``.

    The sources are mixed by ``einsum``, not a BLAS product, whose bits
    would depend on the BLAS thread count.
    """
    mixed = np.einsum("cs,...st->...ct", mixing, sources)
    # in place: the einsum output is the only new array of the output's size
    mixed += own
    mixed /= np.sqrt(2.0)
    return mixed


def _fast_len(n: int) -> int:
    """The smallest length >= ``n`` whose prime factors are all <= 11.

    The rule of ``scipy.fft.next_fast_len``: numpy's FFT has radix passes
    for these primes and falls back to Bluestein's algorithm, about 4x
    slower on a recording, for any other factor.
    """
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _concept_meta(labels: np.ndarray) -> list[TrialMeta]:
    """Round-robin subjects; each class cycles through a pool of 16 concepts
    in trial order, the pool taking one concept of each of its categories in turn."""
    by_category: dict[str, list[tuple[int, str, str]]] = {}
    for cid, name, category, _ in concept_table():
        by_category.setdefault(category, []).append((cid, name, category))
    pools = {}
    for y, table in ((1, ALIVE_CATEGORIES), (0, NONLIVING_CATEGORIES)):
        cats = list(table)
        pool = [by_category[cats[k % len(cats)]][k // len(cats)] for k in range(16)]
        pools[y] = itertools.cycle(pool)
    meta = []
    for i, y in enumerate(labels.tolist()):
        cid, name, cat = next(pools[y])
        meta.append(TrialMeta(i, i % N_SUBJECTS + 1, cid, name, cat, y))
    return meta


def _design(cfg: SynthConfig):
    """The trial design that both generators draw from one root seed.

    Returns ``(rng_noise, mixing, meta, signal)``: the noise generator,
    the unit-row 63 x 16 mixing matrix of the correlated background, the
    trial metadata, and ``signal(s, w1, w2, rate)``, the clean trials of
    slice ``s`` (trials x channels x ``w1.size``) on the envelopes ``w1``
    and ``w2`` sampled at ``rate`` Hz.  Patterns, labels and noise come
    from independent child streams of the seed, so every draw is
    reproducible bit for bit.
    """
    rng_pat, rng_lab, rng_noise = (
        np.random.default_rng(ss) for ss in np.random.SeedSequence(cfg.seed).spawn(3)
    )
    n = cfg.n_trials
    # orthogonal patterns p, q, q0, q1, then one fingerprint per subject
    pats = _patterns(rng_pat, 4 + (N_SUBJECTS if cfg.mode == "subject_signature" else 0))
    mixing = rng_pat.standard_normal((N_CHANNELS, 16))
    mixing /= np.linalg.norm(mixing, axis=1, keepdims=True)

    if cfg.mode == "linear":
        # balanced labels in random order, and a random 10 Hz carrier phase per trial
        labels = np.repeat([0, 1], n // 2)[rng_lab.permutation(n)]
        phases = rng_lab.uniform(0.0, 2 * np.pi, size=n)

        def signal(s, w1, w2, rate):
            # pattern p signed by the class on the 5 Hz envelope, plus a 10 Hz
            # carrier on q1 (alive) or q0
            t = np.arange(w1.size, dtype=np.float64) / rate
            sign = 2.0 * labels[s] - 1.0
            osc = np.sqrt(2.0) * np.cos(2 * np.pi * 10.0 * t[None, :] + phases[s][:, None])
            carrier_pat = np.where(labels[s][:, None] == 1, pats[3][None, :], pats[2][None, :])
            return (
                sign[:, None, None] * pats[0][None, :, None] * w1[None, None, :]
                + carrier_pat[:, :, None] * osc[:, None, :]
            )

    elif cfg.mode == "xor":
        signs = rng_lab.choice([-1.0, 1.0], size=(n, 2))
        labels = (signs[:, 0] * signs[:, 1] > 0).astype(np.int64)

        def signal(s, w1, w2, rate):
            return (
                signs[s, 0][:, None, None] * pats[0][None, :, None] * w1[None, None, :]
                + signs[s, 1][:, None, None] * pats[1][None, :, None] * w2[None, None, :]
            )

    else:  # subject_signature: the label is the 0-based round-robin subject
        labels = np.arange(n) % N_SUBJECTS

        def signal(s, w1, w2, rate):
            return pats[4:][labels[s]][:, :, None] * w1[None, None, :]

        meta = [
            TrialMeta(i, y + 1, y, f"subject {y + 1:02d}", "subject", y)
            for i, y in enumerate(labels.tolist())
        ]
        return rng_noise, mixing, meta, signal
    return rng_noise, mixing, _concept_meta(labels), signal


_CHUNK = 1024  # trials of white noise drawn at a time
_BLOCK = 32  # trials a worker shapes, mixes and z-scores at a time
_WORKERS = 2


def generate_synthetic(cfg: SynthConfig) -> EpochSet:
    """Seeded synthetic epochs at 100 Hz, already z-scored, float32.

    Regenerating with the same config is bitwise reproducible.  The
    calling thread draws all the noise, a ``_CHUNK`` of trials at a
    time and in a fixed order; ``_WORKERS`` threads draw nothing.  They
    shape, mix, add the signal and z-score ``_BLOCK``-trial blocks of a
    chunk while the next chunk is drawn.  Every step acts per row or per
    element, so the bytes do not depend on the blocks or the threads.
    A chunk's noise is drawn as one array per block, the same draws as
    one call per chunk, and only the block's worker holds it, so each
    block's noise is freed when that worker is done with it.
    """
    from concurrent.futures import ThreadPoolExecutor  # loaded here: only synthesis uses threads

    rng_noise, mixing, meta, signal = _design(cfg)
    n = cfg.n_trials
    w1, w2 = _envelopes()
    snr = cfg.effective_snr
    tensor = np.empty((n, N_CHANNELS, N_SAMPLES), dtype=np.float32)

    def fill(own, sources, start):
        # the trials from ``start`` on, one block; writes a slice no other block touches
        trials = _background(_shape_pink(own), _shape_pink(sources), mixing)
        s = slice(start, start + len(own))
        trials += snr * signal(s, w1, w2, TARGET_RATE)
        tensor[s] = crop_and_zscore(trials, 0, n_keep=N_SAMPLES)

    with ThreadPoolExecutor(_WORKERS) as pool:
        running = []
        for start in range(0, n, _CHUNK):
            end = min(start + _CHUNK, n)
            offsets = range(start, end, _BLOCK)
            # the draws of one call per chunk, in that order, one array per block
            sizes = [min(_BLOCK, end - b) for b in offsets]
            own = [rng_noise.standard_normal((k, N_CHANNELS, N_SAMPLES)) for k in sizes]
            sources = [rng_noise.standard_normal((k, mixing.shape[1], N_SAMPLES)) for k in sizes]
            for job in running:  # at most one drawn chunk waits for the workers
                job.result()
            running = [pool.submit(fill, *block) for block in zip(own, sources, offsets)]
            del own, sources  # a block is freed once its worker is done with it
        for job in running:
            job.result()
    return EpochSet(tensor, meta)


def generate_raw(
    cfg: SynthConfig, lead_in_ms: float = 1000.0
) -> tuple[RawRecording, list[TrialMeta]]:
    """Continuous 64-channel 1 kHz recording for exercising the preprocessing chain.

    The same config draws the same patterns, labels and metadata as
    ``generate_synthetic``, in any mode.  The reference channel carries
    only the shared common-mode component, so re-referencing recovers
    the clean per-channel signal.  Stimuli arrive every 100 ms after a
    ``lead_in_ms`` quiet period; a short lead-in leaves early trials too
    close to the edge so they surface through the skip report rather
    than silently.  At least 1 s of noise follows the last trial: the
    length is rounded up to the next one whose prime factors are all
    <= 11 (``_fast_len``), so the noise FFTs never fall back to
    Bluestein's algorithm.

    This is a rapid stream, not a set of separate epochs: a trial's
    signal lasts 500 ms, so each epoch cut from the stream also carries
    the tails of the four trials before it.  The recording tests the
    preprocessing chain; its epochs are a harder task than
    ``generate_synthetic``'s (linear mode, seed 0: CSP+LDA scores 0.57
    test accuracy at 1000 trials and 0.665 at 2000, against 1.000 on the
    synthetic epochs of the same configs).

    Memory: the per-channel pink noise is drawn and shaped straight into
    the recording, ``CHANNEL_BLOCK`` rows at a time, and the mixed
    sources are added and scaled block by block.  ``standard_normal``
    fills row-major and every shaping step acts per row, so the bytes
    equal those of one whole-array draw.  Each trial's signal is made
    and added on its own, so the peak stays near twice the recording,
    most of it the 16 shared sources being shaped.
    """
    if not 0 <= lead_in_ms < np.inf:
        raise UsageError(f"lead_in_ms must be finite and not negative, got {lead_in_ms}")
    rng_noise, mixing, meta, signal = _design(cfg)
    n = cfg.n_trials
    sample_rate = RAW_RATE
    w1, w2 = _envelopes(sample_rate)
    trial_len = w1.size
    lead_in = _samples(lead_in_ms, sample_rate)
    interval = _samples(RAW_INTERVAL_MS, sample_rate)
    # at least 1 s after the last trial ends, rounded up to a length the FFT factors
    total = _fast_len(lead_in + (n - 1) * interval + trial_len + sample_rate)

    data = np.zeros((N_CHANNELS + 1, total), dtype=np.float64)
    own = data[1:]  # the reference row 0 gets no background of its own
    blocks = [slice(b, b + CHANNEL_BLOCK) for b in range(0, N_CHANNELS, CHANNEL_BLOCK)]
    for rows in blocks:  # standard_normal fills row-major: blocks draw what one call would
        own[rows] = _pink_noise(rng_noise, own[rows].shape)
    sources = _pink_noise(rng_noise, (mixing.shape[1], total))
    for rows in blocks:
        own[rows] = _background(own[rows], sources, mixing[rows])
    common = _pink_noise(rng_noise, (1, total))[0]
    line = 0.3 * np.sin(2 * np.pi * 50.0 * np.arange(total) / sample_rate)
    data += common + line  # common mode on every channel, reference included

    # trials overlap in time, so they are added one at a time, in trial order
    onsets = tuple((lead_in + i * interval, i) for i in range(n))
    for onset, i in onsets:
        seg = signal(slice(i, i + 1), w1, w2, sample_rate)[0]
        data[1:, onset : onset + trial_len] += cfg.effective_snr * seg

    names = (REF_CHANNEL,) + tuple(f"E{i:02d}" for i in range(1, N_CHANNELS + 1))
    rec = RawRecording(
        data=data, channel_names=names, sample_rate=sample_rate, event_onsets=onsets
    )
    return rec, meta


def synthesize(cfg: SynthConfig) -> EpochSet:
    """``cfg``'s synthetic epochs, split at ``TEST_FRAC`` from ``cfg.seed``; too
    few trials for that split is a ``UsageError``, raised before anything is generated."""
    n_test_trials(cfg.n_trials, TEST_FRAC, UsageError)
    return split(generate_synthetic(cfg), TEST_FRAC, cfg.seed)


def preprocess(rec: RawRecording, meta: list[TrialMeta], seed: int) -> tuple[EpochSet, list[tuple[int, str]]]:
    """The epochs ``pipeline.run_pipeline`` cuts from ``rec``, each with its record
    from ``meta``, split at ``TEST_FRAC`` from ``seed``; and the pipeline's skip report."""
    tensor, trial_ids, skipped = pipeline.run_pipeline(rec)
    by_id = {m.trial_id: m for m in meta}
    return split(EpochSet(tensor, [by_id[t] for t in trial_ids]), TEST_FRAC, seed), skipped


def save_epochs(path, epochs: EpochSet) -> None:
    eegb.write_tensor_file(path, epochs.tensor, [m.to_dict() for m in epochs.meta])


def load_epochs(path) -> EpochSet:
    """An epoch file's trials; each must carry the train/test split its writer drew."""
    tensor, lines = eegb.read_tensor_file(path)
    if len(lines) != len(tensor):
        raise MetaMismatchError(
            f"{path}: tensor header declares {len(tensor)} trials but sidecar has {len(lines)} records"
        )
    epochs = EpochSet(tensor, [TrialMeta.from_dict(d, path) for d in lines])
    epochs._require_split(f"{path}: ")
    return epochs


def save_raw(path, rec: RawRecording, meta: list[TrialMeta]) -> None:
    """Raw variant: one continuous block plus a header line and event lines."""
    header = {
        "kind": "raw",
        "sample_rate": rec.sample_rate,
        "channel_names": list(rec.channel_names),
    }
    by_trial = {m.trial_id: m for m in meta}
    lines: list[dict] = [header]
    for onset, trial_id in rec.event_onsets:
        d = by_trial[trial_id].to_dict()
        d["onset"] = onset
        lines.append(d)
    # RawRecording holds float64, so the recording round-trips bit for bit
    eegb.write_tensor_file(path, rec.data[None, :, :], lines)


# the JSON kinds of a raw sidecar's header line, and the field each event line adds
_RAW_HEADER_KINDS = {"channel_names": [str], "sample_rate": int}
_EVENT_KINDS = {"onset": int}


def load_raw(path) -> tuple[RawRecording, list[TrialMeta]]:
    tensor, lines = eegb.read_tensor_file(path)
    if tensor.shape[0] != 1 or not lines:
        raise DataError(f"{path} is not a raw-variant file")
    header, *events = lines
    if header.get("kind") != "raw":
        raise DataError(f"{path} sidecar does not declare kind=raw")
    check_fields(header, _RAW_HEADER_KINDS, path)
    onsets = [check_fields(d, _EVENT_KINDS, path)["onset"] for d in events]
    meta = [TrialMeta.from_dict(d, path) for d in events]
    rec = RawRecording(
        data=np.ascontiguousarray(tensor[0], dtype=np.float64),
        channel_names=tuple(header["channel_names"]),
        sample_rate=header["sample_rate"],
        event_onsets=tuple(zip(onsets, (m.trial_id for m in meta))),
    )
    return rec, meta
