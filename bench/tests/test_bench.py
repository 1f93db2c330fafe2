"""Tests of the benchmark harness itself: tracing, derivation, output checks.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neurodecode
from neurodecode import data, models, training
from neurodecode.autodiff import GradCheckReport, Parameter, ops

import run
from tracer import PER_LAYER, SpanTable, Tracer, derive
from verify import Ledger, history_finite, report_passed, run_dir_digests
from workloads import WORKLOADS, GradCheck, RawToCsp, XorTape

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture
def tracer():
    t = Tracer(run_id="test")
    t.install(neurodecode)
    try:
        yield t
    finally:
        t.restore()


def names_of(spans: SpanTable) -> list[str]:
    return [spans.names[i] for i in spans.name]


def test_restore_puts_back_every_patched_function():
    t = Tracer(run_id="test")
    t.install(neurodecode)
    patched = list(t._patches)
    assert len(patched) > 60
    assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    t.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    assert not t._patches


def test_op_spans_nest_and_time_backward(tracer):
    x = Parameter(np.linspace(-1.0, 1.0, 6).reshape(2, 3))
    loss = ops.mean_axis(ops.reshape(ops.tanh(x), (6,)), 0)
    loss.backward()
    spans = tracer.table()
    names = names_of(spans)
    for expected in ("ops.tanh.fwd", "ops.tanh.bwd", "ops.make", "core.check_finite",
                     "core.Tensor.backward", "core.Tensor.accumulate"):
        assert expected in names
    make = names.index("ops.make")
    assert names[spans.parent[make]] == "ops.tanh.fwd"
    assert names[spans.parent[names.index("ops.tanh.bwd")]] == "core.Tensor.backward"


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    t = Tracer(run_id="test", clock=lambda: next(ticks))
    outer, inner = t.intern("outer"), t.intern("inner")
    a = t.open(outer)
    t.close(t.open(inner))
    t.close(t.open(inner))
    t.close(a)
    spans = t.table()
    np.testing.assert_allclose(spans.duration, [10.0, 2.0, 2.0])
    np.testing.assert_allclose(spans.self_time(), [6.0, 2.0, 2.0])


def traced_training_metrics(tmp_path: Path, tag: str) -> dict:
    epochs = data.generate_synthetic(data.SynthConfig(mode="xor", n_trials=64, seed=3))
    dataset = data.split(epochs, 0.25, 3)
    t = Tracer(run_id=tag)
    t.install(neurodecode)
    try:
        model = models.build_model("dgcnn", "small", seed=3)
        cfg = training.TrainConfig(epochs=1, batch_size=16, seed=3)
        training.train(model, dataset, cfg, run_dir=tmp_path / tag)
    finally:
        t.restore()
    return derive(t.table())


def test_derived_counts_repeat_exactly(tmp_path):
    first = traced_training_metrics(tmp_path, "a")
    second = traced_training_metrics(tmp_path, "b")
    # the parent process adds the overhead, measured against an untraced pass
    assert set(first) == {name for name, _, _ in PER_LAYER} - {"trace.overhead_pct"}
    assert first["models.dgcnn-small.step_ms"] > 0
    assert first["core.nodes_per_step"] > 0
    assert first["ops.conv_temporal.fwd_ms"] == 0
    counts = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_failed_gradient_report_is_counted(tmp_path):
    wrong = GradCheckReport(checks=[], rel_errors=np.array([1.0]))
    assert wrong.passed() is False
    ledger = Ledger()
    GradCheck(0, tmp_path)._count(ledger, "wrong backward", wrong)
    assert (ledger.attempted, ledger.failed) == (1, 1)


class _PropertyReport:
    def __init__(self, passed, deterministic):
        self.passed = passed
        self.deterministic = deterministic


@pytest.mark.parametrize("passed, deterministic, ok", [
    (True, True, True), (True, False, False), (False, True, False),
])
def test_gate_accepts_passed_as_a_property(passed, deterministic, ok):
    assert report_passed(_PropertyReport(passed, deterministic)) is ok


def write_run_dir(path: Path) -> Path:
    path.mkdir(parents=True)
    (path / "history.jsonl").write_text('{"epoch": 1, "test_acc": 0.5, "train_acc": null}\n')
    (path / "predictions.csv").write_text("trial_id,pred\n0,1\n")
    return path


def test_tampered_history_digest_is_counted(tmp_path):
    run_dir = write_run_dir(tmp_path / "run")
    first = run_dir_digests(run_dir)
    (run_dir / "history.jsonl").write_text('{"epoch": 1, "test_acc": 0.51, "train_acc": null}\n')
    tampered = run_dir_digests(run_dir)
    ledger = Ledger()
    workload = XorTape(0, tmp_path)
    workload.check_repeat(ledger, "lstm-small", first)
    workload.check_repeat(ledger, "lstm-small", dict(first))
    workload.check_repeat(ledger, "lstm-small", tampered)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert run.digest_mismatches({"lstm-small": first}, {"lstm-small": tampered})[1]
    assert not run.digest_mismatches({"lstm-small": first}, {"lstm-small": dict(first)})[1]


def test_history_with_nan_is_not_finite(tmp_path):
    run_dir = write_run_dir(tmp_path / "run")
    assert history_finite(run_dir / "history.jsonl")
    (run_dir / "history.jsonl").write_text('{"epoch": 1, "test_loss": NaN}\n')
    assert not history_finite(run_dir / "history.jsonl")


@pytest.mark.parametrize("mode, accuracy, failed", [
    ("linear", 0.5, 1), ("linear", 0.95, 0), ("xor", 0.5, 0), ("xor", 0.9, 1),
])
def test_baseline_accuracy_checks(tmp_path, mode, accuracy, failed):
    ledger = Ledger()
    RawToCsp(0, tmp_path).check_accuracy(ledger, mode, accuracy, n_test=200)
    assert ledger.failed == failed


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, w.why) for name, w in WORKLOADS.items()]
    assert list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gradcheck", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
