"""Acceptance gate: eleven criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print; under plain pytest they surface on failure.  The slow
criteria (1 and 4) are real training and verification runs, not mocks:
the whole gate finishes in a few minutes on a laptop-class machine.
"""

import json
import math
import time

import numpy as np
import pytest

from neurodecode import analysis, baseline, checks, eegb, models, pipeline, training
from neurodecode.data import SynthConfig, generate_raw, generate_synthetic, split
from neurodecode.errors import (
    BadMagicError,
    DataError,
    NumericError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from neurodecode.models import build_model
from neurodecode.training import TrainConfig, train

N_CRITERIA = 11


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[{num:2d}/{N_CRITERIA}] {status}  {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


@pytest.mark.slow
def test_01_gradients_verified_everywhere():
    t0 = time.monotonic()
    op_reports = checks.check_op_gradients()
    ops_ok = all(rep.passed and rep.deterministic for _, rep in op_reports)
    failures = []
    for arch in checks.ARCHITECTURES:
        for size in checks.SIZES:
            rep = checks.check_model_gradients(arch, size)
            if not (rep.passed and rep.deterministic):
                failures.append(f"{arch}-{size}: {rep.summary()}")
    wall = time.monotonic() - t0
    report(
        1,
        "analytic gradients match finite differences (all ops, all 15 models)",
        ops_ok and not failures and wall < 600.0,
        f"{len(op_reports)} ops, 15 models, {wall:.0f}s" + ("; " + "; ".join(failures) if failures else ""),
    )


def test_02_pipeline_produces_clean_epochs():
    cfg = SynthConfig(mode="linear", n_trials=24, seed=0)
    rec, meta = generate_raw(cfg, lead_in_ms=120.0)
    tensor, trial_ids, skipped = pipeline.run_pipeline(rec)
    ok = (
        tensor.dtype == np.float32
        and tensor.ndim == 3
        and tensor.shape[1:] == (63, 50)
        and np.isfinite(tensor).all()
        and len(tensor) + len(skipped) == 24
        and len(skipped) > 0
        and all(isinstance(reason, str) and reason for _, reason in skipped)
    )
    report(
        2,
        "raw recording -> finite 63x50 epochs, boundary trials skipped with reasons",
        ok,
        f"kept {len(tensor)}, skipped {len(skipped)}",
    )


def test_03_parameter_budgets():
    rows = models.audit_params()
    worst = max(rows, key=lambda r: abs(r.deviation))
    ok = len(rows) == 15 and all(abs(r.deviation) <= models.PARAM_TOLERANCE for r in rows)
    report(
        3,
        "all 15 decoder variants within 30% of their size budgets",
        ok,
        f"largest deviation {worst.deviation:+.1%} ({worst.arch}-{worst.size})",
    )


@pytest.mark.slow
def test_04_parity_task_separates_decoder_families():
    t0 = time.monotonic()
    es = split(
        generate_synthetic(SynthConfig(mode="xor", n_trials=4000, snr=1.5, seed=0)), 0.2, 0
    )
    tr, te = es.split_view("train"), es.split_view("test")
    pipe = baseline.fit_csp_lda(tr.tensor.astype(np.float64), tr.labels)
    csp_acc = float((pipe.predict(te.tensor.astype(np.float64)) == te.labels).mean())

    model = build_model("eegnet", "small", seed=0)
    result = train(model, es, TrainConfig(epochs=15, seed=0))
    peak = analysis.peak_metric(result.history(), result.cycle_ends, "max_last5").value
    wall = time.monotonic() - t0
    ok = peak >= 0.9 and 0.47 <= csp_acc <= 0.53 and wall < 900.0
    report(
        4,
        "parity task: nonlinear decoder >= 0.9 while linear baseline stays at chance",
        ok,
        f"eegnet-small max_last5 {peak:.3f}, CSP+LDA {csp_acc:.3f}, {wall:.0f}s",
    )


def test_05_linear_task_solved_by_baseline():
    es = split(generate_synthetic(SynthConfig(mode="linear", n_trials=2000, seed=0)), 0.2, 0)
    tr, te = es.split_view("train"), es.split_view("test")
    pipe = baseline.fit_csp_lda(tr.tensor.astype(np.float64), tr.labels)
    acc = float((pipe.predict(te.tensor.astype(np.float64)) == te.labels).mean())
    report(
        5,
        "covariance task: CSP+LDA accuracy >= 0.95",
        acc >= 0.95,
        f"accuracy {acc:.3f}",
    )


@pytest.mark.slow
def test_06_subject_signatures_decodable():
    es = split(
        generate_synthetic(SynthConfig(mode="subject_signature", n_trials=2000, seed=0)), 0.2, 0
    )
    model = build_model("eegnet", "small", seed=0, n_classes=4)
    result = train(model, es, TrainConfig(epochs=8, seed=0))
    peak = analysis.peak_metric(result.history(), result.cycle_ends, "max_last5").value
    report(
        6,
        "4-way subject identification >= 0.9 with a small decoder",
        peak >= 0.9,
        f"max_last5 {peak:.3f}",
    )


def test_07_protocol_oracles():
    sched_ok = (
        training.restart_epochs(15, 2, 945) == [15, 45, 105, 225, 465, 945]
        and training.restart_epochs(15, 2, 460) == [15, 45, 105, 225, 460]
    )
    cfg = TrainConfig()
    lr_ok = (
        training.lr_at(1, cfg) == cfg.lr_max
        and training.lr_at(16, cfg) == cfg.lr_max
        and cfg.lr_min <= training.lr_at(15, cfg) < cfg.lr_min + 0.03 * (cfg.lr_max - cfg.lr_min)
    )
    r1 = analysis.paired_ttest([0.0, 2.0], [0.0, 0.0])
    r2 = analysis.paired_ttest(
        [4.0, 6.0, 3.0, 5.0, 8.0, 2.0, 7.0, 5.0, 4.0, 6.0, 5.0],
        [3.0, 6.0, 4.0, 4.0, 6.0, 3.0, 5.0, 5.0, 3.0, 6.0, 4.0],
    )
    r3 = analysis.paired_ttest([0.5, 0.5], [0.5, 0.5])
    r4 = analysis.paired_ttest([1.0, 1.0], [0.0, 0.0])
    stats_ok = (
        abs(r1.p - 0.5) < 1e-12
        and abs(r2.t - 1.7466675292187457) < 1e-10
        and abs(r2.p - 0.11127906485691494) < 1e-10
        and r3.degenerate
        and r3.p == 1.0
        and r4.degenerate
        and r4.t == math.inf
        and r4.p == 0.0
    )
    report(
        7,
        "restart schedule and paired-test oracles reproduce frozen values",
        sched_ok and lr_ok and stats_ok,
        f"sched {sched_ok}, lr {lr_ok}, stats {stats_ok}",
    )


def test_08_comparison_pipeline(tmp_path):
    es = split(generate_synthetic(SynthConfig(mode="xor", n_trials=400, snr=1.5, seed=0)), 0.25, 0)
    metrics = {}
    run_dirs = []
    for arch in ("eegnet", "lstm"):
        vals = []
        for seed in (0, 1, 2):
            rd = tmp_path / f"{arch}-s{seed}"
            model = build_model(arch, "small", seed=seed)
            res = train(model, es, TrainConfig(epochs=3, batch_size=64, seed=seed), run_dir=rd)
            vals.append(analysis.peak_metric(res.history(), res.cycle_ends, "max_last5").value)
            run_dirs.append(rd)
        metrics[arch] = vals
    rep = analysis.compare_decoders(metrics)
    out = tmp_path / "report"
    paths = analysis.emit_report(analysis.collect_runs([str(r) for r in run_dirs]), out)
    finite = all(np.isfinite(r.mean) for r in rep.ranking) and all(
        np.isfinite(t.p) for _, _, t in rep.pairwise
    )
    ok = (
        finite
        and len(rep.ranking) == 2
        and len(rep.pairwise) == 1
        and rep.ranking[0].mean >= rep.ranking[1].mean
        and all(p.exists() for p in paths.values())
    )
    report(
        8,
        "multi-seed comparison yields ranking, paired stats, and report files",
        ok,
        "; ".join(f"{r.name} {r.mean:.3f}" for r in rep.ranking),
    )


def test_09_bitwise_reproducibility(tmp_path):
    es = split(generate_synthetic(SynthConfig(mode="linear", n_trials=64, seed=0)), 0.25, 0)

    def one(run_name):
        rd = tmp_path / run_name
        model = build_model("eegnet", "small", seed=3)
        train(model, es, TrainConfig(epochs=2, batch_size=16, seed=3), run_dir=rd)
        return (
            (rd / "history.jsonl").read_bytes(),
            (rd / "model.ckpt").read_bytes(),
            (rd / "predictions.csv").read_bytes(),
        )

    a, b = one("a"), one("b")
    ok = a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
    report(
        9,
        "two identical training runs agree bit for bit (history, checkpoint, predictions)",
        ok,
        "history/ckpt/preds equal" if ok else "outputs diverged",
    )


def test_10_nondeterminism_is_caught():
    from neurodecode.autodiff import ops
    from neurodecode.autodiff.core import Parameter
    from neurodecode.autodiff.ops import constant

    p = Parameter(np.ones(3, dtype=np.float64), name="p")
    rng = np.random.default_rng()

    def noisy_loss():
        return ops.mean_axis(ops.mul(p, constant(rng.standard_normal(3))), 0)

    caught = None
    try:
        checks.grad_check(noisy_loss, [("p", p)])
    except NumericError as exc:
        caught = str(exc)
    ok = caught is not None and "nondeterministic" in caught and "freeze" in caught
    report(
        10,
        "nondeterministic forward pass fails gradient checking with actionable message",
        ok,
        (caught or "no error raised")[:80],
    )


def test_11_container_integrity(tmp_path):
    x = np.random.default_rng(0).standard_normal((4, 3, 5)).astype(np.float32)
    meta = [{"trial_id": i} for i in range(4)]
    p = tmp_path / "t.eegb"
    eegb.write_tensor_file(p, x, meta)
    back, lines = eegb.read_tensor_file(p)
    round_trip = np.array_equal(back.view(np.uint8), x.view(np.uint8)) and lines == meta

    raw = p.read_bytes()
    errors = {}
    bad_magic = tmp_path / "bad_magic.eegb"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    eegb.sidecar_path(bad_magic).write_text("")
    try:
        eegb.read_tensor_file(bad_magic)
    except DataError as exc:
        errors["magic"] = exc

    truncated = tmp_path / "trunc.eegb"
    truncated.write_bytes(raw[:-7])
    eegb.sidecar_path(truncated).write_text("")
    try:
        eegb.read_tensor_file(truncated)
    except DataError as exc:
        errors["trunc"] = exc

    wrong_version = tmp_path / "ver.eegb"
    wrong_version.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    eegb.sidecar_path(wrong_version).write_text("")
    try:
        eegb.read_tensor_file(wrong_version)
    except DataError as exc:
        errors["version"] = exc

    distinct = (
        isinstance(errors.get("magic"), BadMagicError)
        and isinstance(errors.get("trunc"), TruncatedPayloadError)
        and isinstance(errors.get("version"), VersionMismatchError)
    )
    report(
        11,
        "container round-trips bitwise; each corruption mode raises its own error",
        round_trip and distinct,
        "magic/truncation/version all distinguished" if distinct else f"errors: { {k: type(v).__name__ for k, v in errors.items()} }",
    )
