"""Synthetic generator, category table, splits."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurodecode import data, pipeline
from neurodecode.data import (
    SynthConfig,
    TrialMeta,
    build_task,
    category_to_label,
    concept_table,
    generate_synthetic,
    split,
)
from neurodecode.errors import DataError, UsageError


class TestCategoryTable:
    def test_counts_per_category(self):
        rows = concept_table()
        assert len(rows) == data.N_CONCEPTS == 429
        by_cat = {}
        for _, _, cat, _ in rows:
            by_cat[cat] = by_cat.get(cat, 0) + 1
        assert by_cat["animal"] == 113
        assert by_cat["body part"] == 34
        assert by_cat["animal, bird"] == 25
        assert by_cat["animal, food"] == 20
        assert by_cat["animal, insect"] == 17
        assert by_cat["people"] == 5
        assert by_cat["tool"] == 59
        assert by_cat["sports equipment"] == 51
        assert by_cat["electronic device"] == 43
        assert by_cat["musical instrument"] == 33
        assert by_cat["weapon"] == 29

    def test_class_balance(self):
        rows = concept_table()
        alive = sum(1 for _, _, _, lab in rows if lab == 1)
        assert alive == 214
        assert len(rows) - alive == 215

    def test_label_mapping(self):
        assert category_to_label("animal") == 1
        assert category_to_label("tool") == 0
        assert category_to_label("subject") is None

    def test_unique_ids_and_names(self):
        rows = concept_table()
        assert len({cid for cid, _, _, _ in rows}) == 429
        assert len({name for _, name, _, _ in rows}) == 429


class TestSplit:
    def _epochs(self, n=100, seed=0):
        cfg = SynthConfig(mode="linear", n_trials=n, seed=seed)
        return generate_synthetic(cfg)

    def test_sizes_round(self):
        es = split(self._epochs(100), 0.2, 0)
        n_test = sum(1 for m in es.meta if m.split == "test")
        assert n_test == 20
        assert sum(1 for m in es.meta if m.split == "train") == 80

    def test_split_deterministic(self):
        a = split(self._epochs(60), 0.25, 7)
        b = split(self._epochs(60), 0.25, 7)
        assert [m.split for m in a.meta] == [m.split for m in b.meta]

    def test_views_partition(self):
        es = split(self._epochs(50), 0.2, 1)
        tr, te = es.split_view("train"), es.split_view("test")
        assert len(tr) + len(te) == 50
        assert set(m.trial_id for m in tr.meta).isdisjoint(m.trial_id for m in te.meta)

    def test_meta_dict_is_every_field_in_order(self):
        for m in split(self._epochs(20), 0.25, 0).meta[:4]:
            d = m.to_dict()
            assert list(d.items()) == list(dataclasses.asdict(m).items())
            assert TrialMeta.from_dict(d, "x") == m

    def test_empty_side_rejected(self):
        es = self._epochs(10)
        with pytest.raises(DataError):
            split(es, 0.0, 0)

    def test_negative_seed_is_usage_error(self):
        with pytest.raises(UsageError, match="seed must be non-negative, got -1"):
            split(self._epochs(10), 0.2, -1)


def _epoch_bytes(es):
    return es.tensor.tobytes(), [m.to_dict() for m in es.meta]


@pytest.mark.parametrize("mode", ["linear", "xor", "subject_signature"])
def test_synthesize_is_the_split_synthetic_epochs(mode):
    cfg = SynthConfig(mode=mode, n_trials=40, seed=3)
    want = split(generate_synthetic(cfg), data.TEST_FRAC, cfg.seed)
    assert _epoch_bytes(data.synthesize(cfg)) == _epoch_bytes(want)


def test_preprocess_is_the_split_pipeline_epochs():
    rec, meta = data.generate_raw(SynthConfig(mode="xor", n_trials=30, seed=2), lead_in_ms=120.0)
    tensor, trial_ids, skipped = pipeline.run_pipeline(rec)
    by_id = {m.trial_id: m for m in meta}
    want = split(data.EpochSet(tensor, [by_id[t] for t in trial_ids]), data.TEST_FRAC, 5)
    epochs, got_skipped = data.preprocess(rec, meta, 5)
    assert skipped and got_skipped == skipped
    assert _epoch_bytes(epochs) == _epoch_bytes(want)


class TestSynthetic:
    def test_shapes_and_dtype(self):
        for mode in ("linear", "xor", "subject_signature"):
            es = generate_synthetic(SynthConfig(mode=mode, n_trials=24, seed=0))
            assert es.tensor.shape == (24, 63, 50)
            assert es.tensor.dtype == np.float32
            assert np.isfinite(es.tensor).all()

    def test_linear_exactly_balanced(self):
        es = generate_synthetic(SynthConfig(mode="linear", n_trials=50, seed=2))
        assert int(es.labels.sum()) == 25

    def test_subject_round_robin(self):
        es = generate_synthetic(
            SynthConfig(mode="subject_signature", n_trials=40, seed=0)
        )
        assert np.bincount(es.labels).tolist() == [10, 10, 10, 10]
        assert sorted({m.subject for m in es.meta}) == [1, 2, 3, 4]

    def test_bitwise_deterministic(self):
        a = generate_synthetic(SynthConfig(mode="xor", n_trials=64, seed=5))
        b = generate_synthetic(SynthConfig(mode="xor", n_trials=64, seed=5))
        assert np.array_equal(a.tensor.view(np.uint8), b.tensor.view(np.uint8))
        assert [m.to_dict() for m in a.meta] == [m.to_dict() for m in b.meta]

    def test_signal_is_built_one_noise_chunk_at_a_time(self):
        # the result is 4000 x 63 x 50 float32 (50 MB); building the whole
        # float64 signal before the noise chunks adds another 100 MB
        tracemalloc.start()
        try:
            generate_synthetic(SynthConfig(mode="xor", n_trials=4000, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"

    def test_raw_noise_is_shaped_a_channel_block_at_a_time(self):
        # 600 trials at a 120 ms lead-in: 31.5 MB of recording.  Shaping all
        # 63 channels of pink noise at once peaks at 5x it, a block of
        # channel rows at a time at 2x
        cfg = SynthConfig(mode="linear", n_trials=600, seed=0)
        tracemalloc.start()
        try:
            rec, _ = data.generate_raw(cfg, lead_in_ms=120.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * rec.data.nbytes, f"peak {peak / rec.data.nbytes:.2f}x the recording"

    def test_small_raw_adds_the_signal_one_trial_at_a_time(self):
        # 100 trials: 6.4 MB of recording.  A 32-trial float64 signal batch
        # and the temporaries of its expression peak at 5.2x it, one trial
        # at a time at 2.1x
        cfg = SynthConfig(mode="linear", n_trials=100, seed=3)
        tracemalloc.start()
        try:
            rec, _ = data.generate_raw(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * rec.data.nbytes, f"peak {peak / rec.data.nbytes:.2f}x the recording"

    def test_golden_digests(self):
        # any byte change in either generator fails here and has to be declared;
        # 1030 synthetic trials cross one noise-chunk boundary.  Recorded with
        # numpy 2.4.6 on x86-64; both generators mix the background by einsum,
        # so no BLAS product enters these bytes
        def sha(*parts):
            h = hashlib.sha256()
            for p in parts:
                h.update(p.tobytes() if isinstance(p, np.ndarray) else json.dumps(p).encode())
            return h.hexdigest()

        want = {
            "linear": "7efe27fa6f45b762e4a58650c93898ab2cc2f2680e7c763477a88cc6b4fe5373",
            "xor": "96dc7d32a8c76c5552c7a329a15354024cd803710766e2d1e9ba1466d3d7385a",
            "subject_signature": "4afae2a90ead07f03e4a471408fc61ac3aef7da94186f24b84914b34f61ccd17",
        }
        for mode, digest in want.items():
            es = generate_synthetic(SynthConfig(mode=mode, n_trials=1030, seed=0))
            assert sha(es.tensor, [m.to_dict() for m in es.meta]) == digest, mode
        cfg = SynthConfig(mode="linear", n_trials=50, seed=5)
        rec, meta = data.generate_raw(cfg, lead_in_ms=0.0)
        assert sha(rec.data, rec.event_onsets, [m.to_dict() for m in meta]) == (
            "e91e45216b9c70d82db82703b3c79d0333e255dafc6f10e0291a7df262418984"
        )

    def test_raw_bytes_do_not_depend_on_the_blas_thread_count(self):
        # n = 12 at a 316 ms lead-in gives 2916 samples, a size where a
        # (63, 16) @ (16, 2916) OpenBLAS product rounds differently at one
        # and two threads
        code = (
            "import hashlib; from neurodecode import data; "
            "cfg = data.SynthConfig(mode='linear', n_trials=12, seed=0); "
            "rec, _ = data.generate_raw(cfg, lead_in_ms=316.0); "
            "print(hashlib.sha256(rec.data.tobytes()).hexdigest())"
        )
        src = str(Path(data.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1, digests

    def test_seeds_differ(self):
        a = generate_synthetic(SynthConfig(mode="linear", n_trials=32, seed=0))
        b = generate_synthetic(SynthConfig(mode="linear", n_trials=32, seed=1))
        assert not np.array_equal(a.tensor, b.tensor)

    def test_zscored_per_trial(self):
        es = generate_synthetic(SynthConfig(mode="linear", n_trials=16, seed=3))
        x = es.tensor.astype(np.float64)
        np.testing.assert_allclose(x.mean(axis=2), 0.0, atol=1e-6)
        np.testing.assert_allclose(x.std(axis=2), 1.0, atol=1e-3)

    def test_envelopes_orthonormal(self):
        w1, w2 = data._envelopes()
        assert abs(float(w1 @ w2)) < 1e-12
        np.testing.assert_allclose(np.sqrt(np.mean(w1**2)), 1.0, rtol=1e-12)
        np.testing.assert_allclose(np.sqrt(np.mean(w2**2)), 1.0, rtol=1e-12)

    def test_xor_class_means_indistinguishable(self):
        # the xor construction leaves first-order statistics identical
        # between classes; with n trials the per-entry difference is
        # noise with standard error ~ sqrt(2/n).  3150 entries make
        # occasional 3-4 SE excursions expected under the null, so the
        # check bounds the tail fraction and the maximum.
        es = generate_synthetic(SynthConfig(mode="xor", n_trials=2000, seed=0))
        x = es.tensor.astype(np.float64)
        y = es.labels
        m1 = x[y == 1].mean(axis=0)
        m0 = x[y == 0].mean(axis=0)
        n1, n0 = int((y == 1).sum()), int((y == 0).sum())
        se = np.sqrt(x[y == 1].var(axis=0) / n1 + x[y == 0].var(axis=0) / n0)
        z = np.abs(m1 - m0) / se
        assert (z > 3.0).mean() <= 0.01
        assert z.max() < 5.0

    def test_mode_validation(self):
        with pytest.raises(UsageError):
            SynthConfig(mode="nope", n_trials=10)
        with pytest.raises(UsageError):
            SynthConfig(mode="linear", n_trials=3)  # odd


class TestBuildTask:
    def test_subject_filter(self):
        es = generate_synthetic(
            SynthConfig(mode="subject_signature", n_trials=40, seed=0)
        )
        one = build_task(es, subject=2)
        assert all(m.subject == 2 for m in one.meta)
        assert len(one) == 10

    def test_unknown_subject_lists_known(self):
        es = generate_synthetic(SynthConfig(mode="linear", n_trials=10, seed=0))
        with pytest.raises(DataError, match="known"):
            build_task(es, subject=99)


class TestRawRoundTrip:
    def test_save_load_epochs(self, tmp_path):
        es = split(generate_synthetic(SynthConfig(mode="linear", n_trials=20, seed=1)), 0.2, 1)
        p = tmp_path / "e.eegb"
        data.save_epochs(p, es)
        back = data.load_epochs(p)
        assert np.array_equal(back.tensor.view(np.uint8), es.tensor.view(np.uint8))
        assert [m.to_dict() for m in back.meta] == [m.to_dict() for m in es.meta]

    def test_save_load_raw(self, tmp_path):
        cfg = SynthConfig(mode="linear", n_trials=6, seed=0)
        rec, meta = data.generate_raw(cfg)
        p = tmp_path / "raw.eegb"
        data.save_raw(p, rec, meta)
        rec2, meta2 = data.load_raw(p)
        assert np.array_equal(rec2.data, rec.data)
        assert rec2.sample_rate == rec.sample_rate
        assert rec2.channel_names == rec.channel_names
        assert rec2.event_onsets == rec.event_onsets
        assert [m.to_dict() for m in meta2] == [m.to_dict() for m in meta]

    @pytest.mark.parametrize("field", ["onset", "channel_names", "sample_rate"])
    def test_raw_sidecar_missing_field_is_data_error(self, tmp_path, field):
        rec, meta = data.generate_raw(SynthConfig(mode="linear", n_trials=4, seed=0))
        p = tmp_path / "raw.eegb"
        data.save_raw(p, rec, meta)
        side = tmp_path / "raw.eegb.jsonl"
        lines = [json.loads(ln) for ln in side.read_text().splitlines()]
        side.write_text(
            "".join(json.dumps({k: v for k, v in d.items() if k != field}) + "\n" for d in lines)
        )
        with pytest.raises(DataError, match=f"missing field '{field}'"):
            data.load_raw(p)

    @pytest.mark.parametrize("rate", ["fast", None, [1000], 999.7, True])
    def test_raw_sample_rate_not_an_integer_is_data_error(self, tmp_path, rate):
        rec, meta = data.generate_raw(SynthConfig(mode="linear", n_trials=4, seed=0))
        p = tmp_path / "raw.eegb"
        data.save_raw(p, rec, meta)
        side = tmp_path / "raw.eegb.jsonl"
        header, *events = side.read_text().splitlines(keepends=True)
        header = {**json.loads(header), "sample_rate": rate}
        side.write_text(json.dumps(header) + "\n" + "".join(events))
        with pytest.raises(DataError, match="sample_rate"):
            data.load_raw(p)

    @pytest.mark.parametrize("mode", ["linear", "xor", "subject_signature"])
    def test_raw_meta_matches_synthetic(self, mode):
        cfg = SynthConfig(mode=mode, n_trials=10, seed=4)
        _, meta = data.generate_raw(cfg)
        assert meta == generate_synthetic(cfg).meta

    @pytest.mark.parametrize("lead_in_ms", [-5.0, float("nan"), float("inf")])
    def test_raw_lead_in_must_be_finite_and_not_negative(self, lead_in_ms):
        cfg = SynthConfig(mode="linear", n_trials=2, seed=0)
        with pytest.raises(UsageError, match="lead_in_ms must be finite and not negative"):
            data.generate_raw(cfg, lead_in_ms=lead_in_ms)

    def test_raw_structure(self):
        cfg = SynthConfig(mode="linear", n_trials=6, seed=0)
        rec, meta = data.generate_raw(cfg)
        assert rec.sample_rate == 1000
        assert rec.channel_names[0] == "Cz"
        assert len(rec.channel_names) == 64
        assert len(rec.event_onsets) == 6
        onsets = [o for o, _ in rec.event_onsets]
        assert onsets[0] == 1000  # default lead-in
        assert all(b - a == 100 for a, b in zip(onsets, onsets[1:]))
        # at least 1 s of noise after the last 500 ms trial, at a length the FFT factors
        assert rec.n_samples >= onsets[-1] + 500 + 1000
        assert _largest_prime_factor(rec.n_samples) <= 11


def _largest_prime_factor(n: int) -> int:
    p, largest = 2, 1
    while n > 1:
        while n % p == 0:
            n, largest = n // p, p
        p += 1
    return largest


def test_fast_len_is_the_next_11_smooth_length():
    smooth = [m for m in range(1, 3200) if _largest_prime_factor(m) <= 11]
    for n in range(1, 3001):
        assert data._fast_len(n) == min(m for m in smooth if m >= n), n
    assert all(data._fast_len(m) == m for m in smooth)


def test_synthetic_bytes_do_not_depend_on_blocks_or_threads(monkeypatch):
    # one worker on whole chunks is the serial order; eight workers on 7-trial
    # blocks, switching threads every microsecond, must write the same bytes
    cfg = SynthConfig(mode="linear", n_trials=1030, seed=1)
    monkeypatch.setattr(data, "_WORKERS", 1)
    monkeypatch.setattr(data, "_BLOCK", data._CHUNK)
    serial = generate_synthetic(cfg).tensor
    monkeypatch.setattr(data, "_WORKERS", 8)
    monkeypatch.setattr(data, "_BLOCK", 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = generate_synthetic(cfg).tensor
    finally:
        sys.setswitchinterval(interval)
    assert stressed.tobytes() == serial.tobytes()


def test_per_block_noise_draws_equal_one_draw_per_chunk():
    # generate_synthetic draws a chunk's noise as one array per block, all the
    # own-noise blocks first; the draws must be those of one call per array
    cfg = SynthConfig(mode="xor", n_trials=70, seed=4)
    whole, blocks = data._design(cfg)[0], data._design(cfg)[0]
    want = [whole.standard_normal((70, data.N_CHANNELS, 50)), whole.standard_normal((70, 16, 50))]
    sizes = [32, 32, 6]
    got = [
        np.concatenate([blocks.standard_normal((k, rows, 50)) for k in sizes])
        for rows in (data.N_CHANNELS, 16)
    ]
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_generate_synthetic_leaves_no_thread_behind():
    before = threading.active_count()
    generate_synthetic(SynthConfig(mode="xor", n_trials=100, seed=0))
    assert threading.active_count() == before


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(4, 60).map(lambda v: v * 2),
    frac=st.floats(0.1, 0.5),
    seed=st.integers(0, 1000),
)
def test_split_counts_property(n, frac, seed):
    es = generate_synthetic(SynthConfig(mode="linear", n_trials=n, seed=0))
    out = split(es, frac, seed)
    n_test = sum(1 for m in out.meta if m.split == "test")
    assert n_test == int(round(frac * n))
