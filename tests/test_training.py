"""Training loop: optimizer, schedule, metrics, determinism, steady-state memory."""

import ctypes
import json
import os
import subprocess
import sys
import tracemalloc
import types
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import neurodecode
from neurodecode import analysis, training
from neurodecode.autodiff.core import Parameter
from neurodecode.data import SynthConfig, generate_synthetic, save_epochs, split
from neurodecode.errors import DataError, UsageError
from neurodecode.models import build_model
from neurodecode.training import LR_MAX, LR_MIN, TrainConfig, evaluate, lr_at, restart_epochs, sgd_step


class TestSgd:
    def test_momentum_hand_values(self):
        # g <- g + 1e-3 p, v <- 0.9 v + g, p <- p - lr v; (g=1, lr=1):
        # v = 1, p = -1; then g = 0.999, v = 1.899, p = -2.899
        p = Parameter(np.array([0.0]), name="p")
        p.grad = np.array([1.0])
        sgd_step([p], lr=1.0)
        np.testing.assert_allclose(p.data, [-1.0])
        p.grad = np.array([1.0])
        sgd_step([p], lr=1.0)
        np.testing.assert_allclose(p.data, [-2.899])

    def test_weight_decay_coupled(self):
        p = Parameter(np.array([2.0]), name="p")
        p.grad = np.array([0.0])
        sgd_step([p], lr=0.1)
        # effective gradient 0 + 1e-3*2 = 0.002 on a zero momentum buffer
        np.testing.assert_allclose(p.data, [1.9998])

    def test_missing_grad_raises(self):
        p = Parameter(np.array([0.0]), name="w")
        with pytest.raises(training.NumericError, match="w"):
            sgd_step([p], lr=0.1)


class TestSchedule:
    def test_restart_epochs_geometric(self):
        assert restart_epochs(945) == [15, 45, 105, 225, 465, 945]

    def test_restart_epochs_truncated(self):
        assert restart_epochs(460) == [15, 45, 105, 225, 460]

    def test_restart_epochs_short_budget(self):
        assert restart_epochs(45) == [15, 45]
        assert restart_epochs(10) == [10]

    def test_lr_peaks_and_restarts(self):
        assert lr_at(1) == LR_MAX
        assert lr_at(16) == LR_MAX  # fresh cycle after epoch 15
        # near-minimum at cycle end, never below LR_MIN
        end = lr_at(15)
        assert LR_MIN <= end < LR_MIN + 0.03 * (LR_MAX - LR_MIN)

    def test_lr_monotone_within_cycle(self):
        vals = [lr_at(e) for e in range(1, 16)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_second_cycle_twice_as_long(self):
        # epochs 16..45 form one 30-epoch cycle; midpoint halves the range
        mid = lr_at(31)
        np.testing.assert_allclose(mid, LR_MIN + 0.5 * (LR_MAX - LR_MIN))

    def test_epoch_is_one_based(self):
        with pytest.raises(UsageError):
            lr_at(0)


class TestEvaluate:
    def test_never_predicted_class_zero_precision(self):
        m = build_model("eegnet", "small", seed=0)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 63, 50)).astype(np.float32)
        y = np.array([0, 1] * 6)
        res = evaluate(m, x, y)
        preds = res.predictions
        if len(np.unique(preds)) == 1:
            missing = 1 - int(preds[0])
            row = next(c for c in res.per_class if c.label == missing)
            assert row.precision == 0.0
            assert row.recall == 0.0
        # macro averages stay defined either way
        assert 0.0 <= res.macro_precision <= 1.0
        assert 0.0 <= res.macro_recall <= 1.0

    def test_perfect_predictor_metrics(self):
        from neurodecode.autodiff.ops import constant

        class Oracle:
            n_classes = 2

            def forward(self, x, training):
                cls = (x[:, 0, 0] > 0).astype(np.int64)
                logits = np.zeros((len(cls), 2))
                logits[np.arange(len(cls)), cls] = 10.0
                return constant(logits)

        x = np.zeros((10, 2, 3), dtype=np.float32)
        x[5:, 0, 0] = 1.0
        y = np.array([0] * 5 + [1] * 5)
        res = evaluate(Oracle(), x, y)
        assert res.accuracy == 1.0
        assert res.macro_precision == 1.0
        assert res.macro_recall == 1.0

    def test_accuracy_counts(self):
        from neurodecode.autodiff.ops import constant

        class Fixed:
            n_classes = 2

            def forward(self, x, training):
                logits = np.zeros((x.shape[0], 2))
                logits[: len(logits) // 2, 0] = 5.0
                logits[len(logits) // 2 :, 1] = 5.0
                return constant(logits)

        res = evaluate(Fixed(), np.zeros((4, 1, 1), np.float32), np.array([0, 1, 1, 0]))
        assert res.accuracy == 0.5


class TestConfig:
    def test_rejects_bad_fields(self):
        for kw in (dict(epochs=0), dict(batch_size=0)):
            with pytest.raises(UsageError):
                TrainConfig(**kw)

    def test_defaults_match_protocol(self):
        assert [f.name for f in fields(TrainConfig)] == ["epochs", "batch_size", "seed"]
        assert TrainConfig().batch_size == 128
        assert (training.LR_MAX, training.LR_MIN) == (0.05, 1e-6)
        assert (training.MOMENTUM, training.WEIGHT_DECAY) == (0.9, 1e-3)
        assert (training.RESTART_T0, training.RESTART_MULT) == (15, 2)


class TestTrainLoop:
    def _dataset(self, n=64, seed=0):
        return split(
            generate_synthetic(SynthConfig(mode="linear", n_trials=n, seed=seed)), 0.25, seed
        )

    def test_bitwise_deterministic_runs(self):
        cfg = TrainConfig(epochs=2, batch_size=16, seed=4)
        data = self._dataset()
        r1 = training.train(build_model("eegnet", "small", seed=4), data, cfg)
        r2 = training.train(build_model("eegnet", "small", seed=4), data, cfg)
        assert r1.history == r2.history
        assert r1.predictions == r2.predictions
        timeless = [{k: v for k, v in r.manifest.items() if not k.endswith("_at")} for r in (r1, r2)]
        assert timeless[0] == timeless[1]

    def test_seed_changes_trajectory(self):
        data = self._dataset()
        r1 = training.train(
            build_model("eegnet", "small", seed=0), data, TrainConfig(epochs=2, batch_size=16, seed=0)
        )
        r2 = training.train(
            build_model("eegnet", "small", seed=1), data, TrainConfig(epochs=2, batch_size=16, seed=1)
        )
        assert r1.history[-1]["train_loss"] != r2.history[-1]["train_loss"]

    def test_history_structure(self):
        cfg = TrainConfig(epochs=3, batch_size=16, seed=0)
        res = training.train(build_model("eegnet", "small", seed=0), self._dataset(), cfg)
        assert [r["epoch"] for r in res.history] == [1, 2, 3]
        assert res.manifest["cycle_ends"] == [3]
        assert all(np.isfinite(r["train_loss"]) for r in res.history)
        assert all(0.0 <= r["test_acc"] <= 1.0 for r in res.history)
        assert len(res.predictions) == 16

    def test_run_dir_artifacts(self, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=16, seed=0)
        run = tmp_path / "run"
        training.train(build_model("eegnet", "small", seed=0), self._dataset(), cfg, run_dir=run)
        names = {f.name for f in run.iterdir()}
        assert names == {"history.jsonl", "manifest.json", "model.ckpt", "predictions.csv"}
        import json

        rows = [json.loads(l) for l in (run / "history.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        assert {"epoch", "lr", "train_loss", "test_loss", "test_acc"} <= set(rows[0])
        manifest = json.loads((run / "manifest.json").read_text())
        assert (manifest["epochs"], manifest["batch_size"], manifest["seed"]) == (2, 16, 0)
        header = (run / "predictions.csv").read_text().splitlines()[0]
        assert header == "trial_id,subject,concept_id,concept_name,category,label,pred"

    def test_rewrite_that_fails_partway_leaves_no_complete_run(self, tmp_path, monkeypatch):
        cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
        model, run_dir = build_model("eegnet", "small", seed=0), tmp_path / "run"
        run = training.train(model, self._dataset(), cfg, run_dir=run_dir)
        analysis.collect_runs([run_dir])

        def fail(*args):
            raise OSError("disk full")

        # history.jsonl is rewritten, then the checkpoint fails
        monkeypatch.setattr(training, "save_model", fail)
        with pytest.raises(OSError, match="disk full"):
            training.write_run_dir(run_dir, model, run)
        assert not (run_dir / "manifest.json").exists()
        with pytest.raises(DataError, match="manifest.json"):
            analysis.collect_runs([run_dir])

    @pytest.mark.parametrize("threads", ["1", None])
    def test_manifest_records_the_blas_thread_count(self, tmp_path, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
        run = training.train(
            build_model("lstm", "small", seed=0), self._dataset(), cfg, run_dir=tmp_path / "run"
        )
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["blas_threads"] == run.manifest["blas_threads"] == threads

    def test_run_record_round_trip(self, tmp_path):
        # two restart cycles, ending at epochs 15 and 16
        cfg = TrainConfig(epochs=16, batch_size=16, seed=0)
        trained = training.train(
            build_model("eegnet", "small", seed=0), self._dataset(), cfg, run_dir=tmp_path / "run"
        )
        (read,) = analysis.collect_runs([tmp_path / "run"])
        assert read.path == trained.path == tmp_path / "run"
        assert read.history == trained.history
        assert read.manifest == trained.manifest
        assert read.manifest["cycle_ends"] == [15, 16]
        assert analysis.per_object_accuracy(read.predictions) == analysis.per_object_accuracy(
            trained.predictions
        )


@pytest.mark.parametrize("mode, n_classes", [("linear", 2), ("subject_signature", 4)])
def test_fit_is_build_model_then_train(tmp_path, mode, n_classes):
    task = split(generate_synthetic(SynthConfig(mode=mode, n_trials=48, seed=1)), 0.25, 1)
    cfg = TrainConfig(epochs=1, batch_size=16, seed=2)
    model = build_model("eegnet", "small", seed=2, n_classes=n_classes)
    training.train(model, task, cfg, run_dir=tmp_path / "train")
    run = training.fit("eegnet", "small", task, cfg, run_dir=tmp_path / "fit")
    assert run.path == tmp_path / "fit"
    for name in ("model.ckpt", "history.jsonl", "predictions.csv"):
        assert (tmp_path / "fit" / name).read_bytes() == (tmp_path / "train" / name).read_bytes(), name


class TestTrainMemory:
    def test_holds_at_most_one_step_graph(self):
        # the output of each training forward lives in its step's graph; the
        # previous one must be freed before the next forward builds another
        model = build_model("eegnet", "small", seed=0)
        forward = model.forward
        outputs = []
        alive_at_start = []

        def tracked(x, training):
            if training:
                alive_at_start.append(bool(outputs) and outputs[-1]() is not None)
            out = forward(x, training)
            if training:
                outputs.append(weakref.ref(out.data))
            return out

        model.forward = tracked
        dataset = split(generate_synthetic(SynthConfig(mode="linear", n_trials=80, seed=0)), 0.25, 0)
        training.train(model, dataset, TrainConfig(epochs=2, batch_size=16, seed=0))
        assert len(alive_at_start) == 8
        assert not any(alive_at_start)

    def test_never_copies_the_train_split(self):
        # a 1520-trial train split is 19 MB; one step of dgcnn-small at batch
        # 32, the 80-trial test split and its evaluation peak at 6 MB together
        dataset = split(generate_synthetic(SynthConfig(mode="xor", n_trials=1600, seed=0)), 0.05, 0)
        model = build_model("dgcnn", "small", seed=0)
        train_bytes = sum(m.split == "train" for m in dataset.meta) * dataset.tensor[0].nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            training.train(model, dataset, TrainConfig(epochs=1, batch_size=32, seed=0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < train_bytes, f"peak {peak / 1e6:.1f} MB, train split {train_bytes / 1e6:.1f} MB"

    def test_lstm_step_holds_each_gate_block_once(self):
        # one batch-128 lstm-medium step: 74 MB when the gates were kept
        # beside the projection, h stacked a second time and the input
        # gradient copied; 45.5 MB with each held once
        rng = np.random.default_rng(0)
        x = rng.standard_normal((128, 63, 50)).astype(np.float32)
        y = np.arange(128) % 2
        model = build_model("lstm", "medium", seed=0)

        def step():
            model.zero_grad()
            model.loss(x, y, training=True).backward()
            sgd_step(model.params(), 0.01)

        step()  # the traced step is a steady-state one
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 55e6, f"peak {peak / 1e6:.1f} MB"


# three warm-up steps of dgcnn-small at batch 128 on an epoch file read back
# as `train` reads it, then the minor page faults of the next three
STEADY_STATE_FAULTS = """
import resource, sys
from neurodecode.data import load_epochs
from neurodecode.models import build_model
from neurodecode.training import sgd_step

train = load_epochs(sys.argv[1]).split_view("train")
x, y = train.tensor[:128], train.labels[:128]
model = build_model("dgcnn", "small", seed=0)

def step():
    model.zero_grad()
    loss = model.loss(x, y, training=True)
    loss.backward()
    sgd_step(model.params(), 0.01)

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeap:
    @pytest.mark.skipif(not neurodecode._HEAP_KEPT, reason="the C library has no mallopt")
    def test_training_steps_take_no_page_faults_in_steady_state(self, tmp_path):
        # 8,000-14,000 faults without the package's mallopt settings (1 or 2 BLAS threads), 0 with them
        path = tmp_path / "xor.eegb"
        save_epochs(path, split(generate_synthetic(SynthConfig(mode="xor", n_trials=200)), 0.2, 0))
        src = str(Path(neurodecode.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", STEADY_STATE_FAULTS, str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 300

    def test_no_mallopt_leaves_the_allocator_alone(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert neurodecode._keep_freed_heap() is False

    def test_refused_mmap_threshold_sets_no_trim_threshold(self, monkeypatch):
        # a trim threshold alone switches off the dynamic mmap threshold
        calls = []

        def mallopt(param, value):
            calls.append(param)
            return 0

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert neurodecode._keep_freed_heap() is False
        assert calls == [neurodecode._M_MMAP_THRESHOLD]

    @pytest.mark.parametrize("refused", [None, neurodecode._M_TRIM_THRESHOLD])
    def test_one_arena_only_once_both_thresholds_took(self, monkeypatch, refused):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return int(param != refused)

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert neurodecode._keep_freed_heap() is (refused is None)
        thresholds = [neurodecode._M_MMAP_THRESHOLD, neurodecode._M_TRIM_THRESHOLD]
        arena = [(neurodecode._M_ARENA_MAX, 1)] if refused is None else []
        assert [param for param, _ in calls[:2]] == thresholds
        assert calls[2:] == arena
