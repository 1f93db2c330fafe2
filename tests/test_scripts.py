"""The scripts under scripts/ and the bench tracer still run against the library's current API."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neurodecode
import neurodecode.checks

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BENCH = str(SCRIPTS.parent / "bench")


def test_run_benchmark_writes_report(tmp_path):
    src = str(Path(neurodecode.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, str(SCRIPTS / "run_benchmark.py"), "--seeds", "2",
            "--archs", "dgcnn", "lstm", "--epochs", "1", "--n-trials", "200", "--out", str(tmp_path)]
    subprocess.run(argv, env=env, check=True, capture_output=True)
    for name in ("baseline.json", "report/metrics.csv", "report/comparison.txt"):
        assert (tmp_path / name).exists(), name
    report = json.loads((tmp_path / "baseline.json").read_text())
    assert all(0.0 <= report[mode]["test_acc"] <= 1.0 for mode in ("linear", "xor"))


def test_pilot_snr_helpers():
    spec = importlib.util.spec_from_file_location("pilot_snr", SCRIPTS / "pilot_snr.py")
    pilot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pilot)
    assert pilot.csp_accuracy("linear", 1.2, 200, 0) == 1.0
    assert 0.0 <= pilot.decoder_accuracy("linear", 1.2, 64, 0, 1) <= 1.0


def test_bench_tracer_finds_every_name_it_wraps(monkeypatch):
    # the tracer patches library attributes by name; a renamed or deleted one fails install
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    original = neurodecode.training.train
    t = tracer.Tracer("t")
    try:
        t.install(neurodecode)
        assert neurodecode.training.train is not original
    finally:
        t.restore()
    assert neurodecode.training.train is original


def test_traced_transformer_step_records_its_ffn_relu(monkeypatch):
    # the tracer wraps ops.relu after models.py was imported; a model built now must call the wrapper
    monkeypatch.syspath_prepend(BENCH)
    import tracer

    t = tracer.Tracer("t")
    try:
        t.install(neurodecode)
        model = neurodecode.models.build_model("transformer", "small", seed=0)
        x = np.random.default_rng(0).standard_normal((4, model.n_channels, model.n_samples))
        model.loss(x.astype(np.float32), np.array([0, 1, 0, 1]), training=True).backward()
    finally:
        t.restore()
    spans = t.table()
    assert spans.ids("ops.relu.fwd").any() and spans.ids("ops.relu.bwd").any()


@pytest.mark.parametrize("name, passes", [
    ("raw-to-csp", 1), ("gradcheck", 1), ("xor-tape", 2), ("xor-conv", 2),
])
def test_bench_workloads_run_without_a_failure(tmp_path, monkeypatch, name, passes):
    # the benchmark's own calls into the library, checked as the benchmark checks
    # them; the parity tasks are cut to 200 trials for speed only
    monkeypatch.syspath_prepend(BENCH)
    import verify
    import workloads

    monkeypatch.setattr(workloads, "XOR_TRIALS", 200)
    workload = workloads.WORKLOADS[name](0, tmp_path)
    workload.setup()
    ledger = verify.Ledger()
    for _ in range(passes):
        workload.run_pass(workloads.Pass(ledger))
    assert ledger.failed == 0, ledger.failures
