"""Command-line interface, end to end at desk scale."""

import argparse
import csv
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import neurodecode
from neurodecode import checks, eegb, models
from neurodecode.autodiff.gradcheck import GradCheckReport
from neurodecode.cli import build_parser, main
from neurodecode.data import (
    TEST_FRAC,
    EpochSet,
    SynthConfig,
    generate_raw,
    generate_synthetic,
    load_epochs,
    save_epochs,
    save_raw,
    split,
)
from neurodecode.pipeline import (
    bandpass,
    baseline_correct,
    crop_and_zscore,
    downsample,
    extract_epochs,
    rereference,
)
from neurodecode.training import TrainConfig


# every subcommand's flags; change this table only with the parser, and say so in CHANGES.md
FLAGS = {
    "synth": "--mode --n-trials --snr --seed --raw --out",
    "preprocess": "--raw --out --seed",
    "train": "--data --arch --size --run-dir --subject --epochs --batch-size --seed",
    "baseline": "--data --subject --out",
    "eval": "--run-dir --data",
    "analyze": "--runs --out",
    "gradcheck": "--scope --arch --size",
    "audit-params": "",
}


def run(argv):
    return main(argv)


@pytest.fixture()
def epochs_file(tmp_path):
    out = tmp_path / "linear.eegb"
    code = run(
        ["synth", "--mode", "linear", "--n-trials", "64", "--seed", "0", "--out", str(out)]
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_container_and_sidecar(self, epochs_file):
        assert epochs_file.exists()
        assert epochs_file.with_suffix(epochs_file.suffix + ".jsonl").exists()

    def test_raw_variant(self, tmp_path):
        out = tmp_path / "raw.eegb"
        assert run(["synth", "--mode", "linear", "--n-trials", "8", "--raw", "--out", str(out)]) == 0
        assert out.exists()

    def test_bad_mode_is_usage_error(self, tmp_path):
        code = run(
            ["synth", "--mode", "linear", "--n-trials", "7", "--out", str(tmp_path / "x.eegb")]
        )
        assert code == 1  # an odd trial count is a bad flag value

    def test_missing_out_dir_parent(self, tmp_path):
        code = run(
            [
                "synth",
                "--mode",
                "linear",
                "--n-trials",
                "8",
                "--out",
                str(tmp_path / "no" / "such" / "dir" / "x.eegb"),
            ]
        )
        assert code == 0  # parents created on demand


class TestPreprocess:
    def test_raw_to_epochs(self, tmp_path):
        raw = tmp_path / "raw.eegb"
        out = tmp_path / "prep.eegb"
        assert run(["synth", "--mode", "linear", "--n-trials", "8", "--raw", "--out", str(raw)]) == 0
        assert run(["preprocess", "--raw", str(raw), "--out", str(out)]) == 0
        from neurodecode.data import load_epochs

        es = load_epochs(out)
        assert es.tensor.shape[1:] == (63, 50)
        assert np.isfinite(es.tensor).all()

    def test_raw_xor_to_epochs_keeps_the_parity_labels(self, tmp_path):
        raw = tmp_path / "raw.eegb"
        out = tmp_path / "prep.eegb"
        synth = ["synth", "--mode", "xor", "--n-trials", "12", "--seed", "3", "--raw"]
        assert run(synth + ["--out", str(raw)]) == 0
        assert run(["preprocess", "--raw", str(raw), "--out", str(out)]) == 0
        from neurodecode.data import SynthConfig, generate_synthetic, load_epochs

        want = generate_synthetic(SynthConfig(mode="xor", n_trials=12, seed=3)).labels
        assert load_epochs(out).labels.tolist() == want.tolist()

    def test_recording_already_at_100_hz_is_not_resampled(self, tmp_path):
        raw, out = tmp_path / "raw100.eegb", tmp_path / "prep.eegb"
        rec, meta = generate_raw(SynthConfig(n_trials=40))
        save_raw(raw, downsample(rec, 100), meta)
        assert run(["preprocess", "--raw", str(raw), "--out", str(out)]) == 0
        assert load_epochs(out).tensor.shape == (40, 63, 50)

    def test_epoch_input_rejected(self, tmp_path, epochs_file):
        code = run(["preprocess", "--raw", str(epochs_file), "--out", str(tmp_path / "o.eegb")])
        assert code == 2

    def test_raw_sidecar_without_onsets_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.eegb"
        assert run(["synth", "--mode", "linear", "--n-trials", "8", "--raw", "--out", str(raw)]) == 0
        side = tmp_path / "raw.eegb.jsonl"
        lines = [json.loads(ln) for ln in side.read_text().splitlines()]
        side.write_text(
            "".join(json.dumps({k: v for k, v in d.items() if k != "onset"}) + "\n" for d in lines)
        )
        assert run(["preprocess", "--raw", str(raw), "--out", str(tmp_path / "o.eegb")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "'onset'" in err

    def test_raw_sample_rate_not_an_integer_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "raw.eegb"
        assert run(["synth", "--mode", "linear", "--n-trials", "8", "--raw", "--out", str(raw)]) == 0
        side = tmp_path / "raw.eegb.jsonl"
        header, *events = side.read_text().splitlines(keepends=True)
        header = {**json.loads(header), "sample_rate": "fast"}
        side.write_text(json.dumps(header) + "\n" + "".join(events))
        assert run(["preprocess", "--raw", str(raw), "--out", str(tmp_path / "o.eegb")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "sample_rate" in err


class TestTrainEvalAnalyze:
    def test_full_cycle(self, tmp_path, epochs_file):
        rd = tmp_path / "run"
        code = run(
            [
                "train",
                "--data",
                str(epochs_file),
                "--arch",
                "eegnet",
                "--size",
                "small",
                "--epochs",
                "2",
                "--batch-size",
                "16",
                "--run-dir",
                str(rd),
            ]
        )
        assert code == 0
        assert (rd / "model.ckpt").exists()
        assert (rd / "history.jsonl").exists()

        assert run(["eval", "--run-dir", str(rd), "--data", str(epochs_file)]) == 0

        report = tmp_path / "report"
        assert run(["analyze", "--runs", str(rd), "--out", str(report)]) == 0
        assert (report / "metrics.csv").exists()

    def test_run_directory_describes_the_final_model(self, tmp_path, capsys):
        # this run's test accuracy peaks at epoch 2 (0.46) and ends at 0.23 (one
        # BLAS thread): predictions of any epoch but the last would not match
        data, rd = tmp_path / "xor.eegb", tmp_path / "run"
        assert run(["synth", "--mode", "xor", "--n-trials", "64", "--snr", "0.5", "--out", str(data)]) == 0
        argv = ["train", "--data", str(data), "--arch", "eegnet", "--epochs", "6", "--batch-size", "16"]
        assert run([*argv, "--run-dir", str(rd)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in rd.iterdir()) == [
            "history.jsonl", "manifest.json", "model.ckpt", "predictions.csv"
        ]
        assert json.loads((rd / "manifest.json").read_text())["batch_size"] == 16
        last = json.loads((rd / "history.jsonl").read_text().splitlines()[-1])
        with open(rd / "predictions.csv", newline="") as fh:
            hits = [row["pred"] == row["label"] for row in csv.DictReader(fh)]
        assert sum(hits) / len(hits) == last["test_acc"]
        assert run(["eval", "--run-dir", str(rd), "--data", str(data)]) == 0
        result = json.loads(capsys.readouterr().out)
        # shortest-repr floats: equal values are equal bytes in both files
        assert (result["accuracy"], result["loss"]) == (last["test_acc"], last["test_loss"])

    @pytest.mark.parametrize("arch", ["eegnet", "lstm", "dgcnn", "transformer", "conformer"])
    def test_model_sized_from_the_data(self, tmp_path, epochs_200hz, arch):
        data, rd = str(epochs_200hz), str(tmp_path / "run")
        assert run(["train", "--data", data, "--arch", arch, "--epochs", "1", "--run-dir", rd]) == 0
        assert run(["eval", "--run-dir", rd, "--data", data]) == 0

    def test_subject_all_trains_one_run_per_subject(self, tmp_path, capsys, xor_96):
        rd = tmp_path / "runs"
        argv = ["train", "--data", str(xor_96), "--arch", "dgcnn", "--epochs", "2",
                "--subject", "all", "--run-dir", str(rd)]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sorted(p.name for p in rd.iterdir()) == SUBJECT_DIRS
        assert all((rd / sub / "model.ckpt").exists() for sub in SUBJECT_DIRS)
        assert len(lines) == 4
        for subject, line in zip((1, 2, 3, 4), lines):
            assert line.startswith(f"dgcnn-small subject {subject}: mean_last5 = ")
            assert line.endswith(str(rd / f"sub{subject:02d}"))

    def test_analyze_pairs_per_subject_runs_by_subject(self, tmp_path, xor_96):
        for arch in ("lstm", "dgcnn"):
            argv = ["train", "--data", str(xor_96), "--arch", arch, "--epochs", "1",
                    "--subject", "all", "--run-dir", str(tmp_path / arch)]
            assert run(argv) == 0
        dirs = [str(tmp_path / arch / sub) for arch in ("lstm", "dgcnn") for sub in SUBJECT_DIRS]
        for subject, rd in zip((1, 2, 3, 4) * 2, dirs):
            assert json.loads(Path(rd, "manifest.json").read_text())["subject"] == subject
        report = tmp_path / "report"
        assert run(["analyze", "--runs", *dirs, "--out", str(report)]) == 0
        # four subjects of seed 0 make four pairs, scored by the per-subject metric
        text = (report / "comparison.txt").read_text()
        assert text.startswith("peak metric: mean_last5\n")
        assert re.search(r"-small vs \w+-small: t = .*, df = 3,", text)
        assert (report / "training_curves.svg").read_text().count("<polyline") == 8

    def test_eval_scores_the_subject_the_run_was_trained_on(self, tmp_path, capsys, xor_96):
        rd = str(tmp_path / "sub02")
        argv = ["train", "--data", str(xor_96), "--arch", "dgcnn", "--epochs", "1",
                "--subject", "2", "--run-dir", rd]
        assert run(argv) == 0
        capsys.readouterr()
        assert run(["eval", "--run-dir", rd, "--data", str(xor_96)]) == 0
        per_class = json.loads(capsys.readouterr().out)["per_class"]
        meta = load_epochs(xor_96).meta
        n_test = sum(1 for m in meta if m.split == "test" and m.subject == 2)
        assert sum(c["support"] for c in per_class) == n_test
        assert 0 < n_test < sum(1 for m in meta if m.split == "test")

    def test_missing_data_file(self, tmp_path):
        code = run(
            [
                "train",
                "--data",
                str(tmp_path / "nope.eegb"),
                "--arch",
                "eegnet",
                "--size",
                "small",
                "--epochs",
                "1",
                "--run-dir",
                str(tmp_path / "r"),
            ]
        )
        assert code == 2

    def test_env_seed_is_ignored(self, tmp_path, epochs_file, monkeypatch):
        # the seed is --seed, else 0: no environment variable
        monkeypatch.setenv("NEURODECODE_SEED", "7")
        rd = tmp_path / "run"
        argv = ["train", "--data", str(epochs_file), "--arch", "eegnet", "--epochs", "1"]
        assert run([*argv, "--batch-size", "16", "--run-dir", str(rd)]) == 0
        assert json.loads((rd / "manifest.json").read_text())["seed"] == 0

    def test_flag_overrides_env_seed(self, tmp_path, epochs_file, monkeypatch):
        monkeypatch.setenv("NEURODECODE_SEED", "7")
        rd = tmp_path / "run"
        run(
            [
                "train",
                "--data",
                str(epochs_file),
                "--arch",
                "eegnet",
                "--size",
                "small",
                "--epochs",
                "1",
                "--batch-size",
                "16",
                "--seed",
                "3",
                "--run-dir",
                str(rd),
            ]
        )
        assert json.loads((rd / "manifest.json").read_text())["seed"] == 3


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    data = root / "linear.eegb"
    assert run(["synth", "--n-trials", "64", "--out", str(data)]) == 0
    rd = root / "run"
    argv = ["train", "--data", str(data), "--arch", "eegnet", "--epochs", "1", "--run-dir", str(rd)]
    assert run(argv) == 0
    return rd


SUBJECT_DIRS = ["sub01", "sub02", "sub03", "sub04"]


@pytest.fixture(scope="module")
def xor_96(tmp_path_factory):
    """96 xor trials: each of the four subjects has test trials."""
    out = tmp_path_factory.mktemp("xor96") / "xor.eegb"
    assert run(["synth", "--mode", "xor", "--n-trials", "96", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def epochs_200hz(tmp_path_factory):
    """63 x 100 epochs: the preprocessing stages at 200 Hz, where ``preprocess`` gives 50 samples."""
    rec, meta = generate_raw(SynthConfig(n_trials=16))
    rec = downsample(bandpass(rereference(rec)), 200)
    trial_ids, windows, _ = extract_epochs(rec)
    t0 = 40  # the 200 ms baseline at 200 Hz
    tensor = crop_and_zscore(baseline_correct(windows, t0), t0, n_keep=100).astype(np.float32)
    by_id = {m.trial_id: m for m in meta}
    out = tmp_path_factory.mktemp("prep200") / "prep.eegb"
    save_epochs(out, split(EpochSet(tensor, [by_id[t] for t in trial_ids]), TEST_FRAC, 0))
    return out


@pytest.fixture(scope="module")
def signature_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("signature") / "signature.eegb"
    argv = ["synth", "--mode", "subject_signature", "--n-trials", "64", "--seed", "0", "--out", str(out)]
    assert run(argv) == 0
    return out


@pytest.fixture(scope="module")
def corrupt_dir(tmp_path_factory, trained_run, signature_file):
    """CLI-written files with one record field of the wrong JSON type, or value, each."""
    root = tmp_path_factory.mktemp("corrupt")

    def retype(src, dst, line_no, key, value):
        shutil.copy(src, dst)
        lines = (src.parent / (src.name + ".jsonl")).read_text().splitlines()
        lines[line_no] = json.dumps({**json.loads(lines[line_no]), key: value})
        (dst.parent / (dst.name + ".jsonl")).write_text("\n".join(lines) + "\n")

    retype(signature_file, root / "subject.eegb", 0, "subject", "one")
    retype(signature_file, root / "subject0.eegb", 0, "subject", 0)
    raw = root / "raw.eegb"
    assert run(["synth", "--raw", "--n-trials", "8", "--out", str(raw)]) == 0
    retype(raw, root / "onset.eegb", 1, "onset", "soon")  # line 0 is the header
    retype(raw, root / "names.eegb", 0, "channel_names", 5)
    retype(raw, root / "repeat.eegb", 2, "trial_id", 0)  # trial 1's event relabelled as trial 0
    shutil.copytree(trained_run, root / "run")
    desc, tensors = eegb.load_checkpoint(root / "run" / "model.ckpt")
    eegb.save_checkpoint(root / "run" / "model.ckpt", {**desc, "n_classes": "2"}, tensors)
    shutil.copytree(trained_run, root / "empty")
    eegb.save_checkpoint(root / "empty" / "model.ckpt", {**desc, "n_samples": 0}, tensors)
    shutil.copytree(trained_run, root / "seed")
    eegb.save_checkpoint(root / "seed" / "model.ckpt", {**desc, "seed": -1}, tensors)
    save_epochs(root / "none.eegb", EpochSet(np.zeros((0, 63, 50), np.float32), []))
    return root


class TestAnalyzeBadRuns:
    @pytest.mark.parametrize("fname, content", [
        ("manifest.json", None),  # missing
        ("manifest.json", '{"arch": "eegnet", "si'),  # truncated
        ("history.jsonl", '{"epoch": 1, "lr": 0.05}\nnot json\n'),
        ("history.jsonl", json.dumps(
            {"epoch": 1, "lr": 0.05, "train_loss": 0.7, "test_loss": 0.7, "test_acc": "high"}
        )),
    ])
    def test_exit_2_with_data_error(self, tmp_path, capsys, trained_run, fname, content):
        rd = tmp_path / "run"
        shutil.copytree(trained_run, rd)
        if content is None:
            (rd / fname).unlink()
        else:
            (rd / fname).write_text(content)
        assert run(["analyze", "--runs", str(rd), "--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and fname in err


class TestBaseline:
    def test_baseline_json(self, tmp_path, epochs_file):
        out = tmp_path / "baseline.json"
        assert run(["baseline", "--data", str(epochs_file), "--out", str(out)]) == 0
        j = json.loads(out.read_text())
        assert "test_acc" in j
        assert 0.0 <= j["test_acc"] <= 1.0
        assert j["n_train"] + j["n_test"] == 64


class TestSplitFromTheFile:
    """train, baseline and eval read the split that synth or preprocess drew."""

    @pytest.fixture(scope="class", params=[16, 4])
    def unsplit_file(self, request, tmp_path_factory):
        """16 trials, the first ``param`` of them without a split."""
        out = tmp_path_factory.mktemp("unsplit") / "unsplit.eegb"
        epochs = split(generate_synthetic(SynthConfig(n_trials=16, seed=0)), 0.25, 0)
        for m in epochs.meta[: request.param]:
            m.split = None
        save_epochs(out, epochs)
        return out

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "{data}", "--arch", "eegnet", "--epochs", "1", "--run-dir", "{tmp}/r"],
        ["baseline", "--data", "{data}"],
        ["eval", "--run-dir", "{run}", "--data", "{data}"],
    ])
    def test_file_without_a_split_is_a_data_error(
        self, tmp_path, capsys, unsplit_file, trained_run, argv
    ):
        paths = {"{data}": str(unsplit_file), "{tmp}": str(tmp_path), "{run}": str(trained_run)}
        for key, value in paths.items():
            argv = [a.replace(key, value) for a in argv]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "trials have no train/test split" in err
        assert f"{unsplit_file}: " in err

    def test_eval_scores_the_test_split(self, capsys, trained_run, epochs_file):
        capsys.readouterr()
        assert run(["eval", "--run-dir", str(trained_run), "--data", str(epochs_file)]) == 0
        n_test = sum(1 for m in load_epochs(epochs_file).meta if m.split == "test")
        per_class = json.loads(capsys.readouterr().out)["per_class"]
        assert sum(c["support"] for c in per_class) == n_test < 64


def test_readme_command_lines_parse():
    """Every ``neurodecode`` line of the README's bash blocks is a valid command."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```bash\n(.*?)```", readme.read_text(), flags=re.S)
    lines = [ln.strip() for ln in "".join(blocks).replace("\\\n", " ").splitlines()]
    commands = [shlex.split(ln, comments=True) for ln in lines if ln.startswith("neurodecode ")]
    assert len(commands) >= 10
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_cold_start_loads_no_scipy():
    """Only band-pass, CSP and the t-tests import scipy, inside those functions;
    only ``generate_synthetic`` imports ``concurrent.futures``, inside it; the
    package's mallopt call opens the C library without ``ctypes.util``, whose
    ``find_library`` spawns a subprocess; the SVG labels are escaped without
    ``xml.sax``, whose ``saxutils`` loads ``urllib.request`` and ``http.client``."""
    code = (
        "import sys, neurodecode, neurodecode.cli; neurodecode.cli.build_parser(); "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures') or m == 'ctypes.util' "
        "or m.startswith('xml.sax') or m in ('urllib.request', 'http.client')))"
    )
    src = str(Path(neurodecode.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_flag_census():
    """Every subcommand's flags, pinned: a flag added or left over fails here."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    census = {
        name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in commands.choices.items()
    }
    assert census == {name: sorted(flags.split()) for name, flags in FLAGS.items()}


class TestChecks:
    def test_gradcheck_ops(self, capsys):
        assert run(["gradcheck", "--scope", "ops"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out.lower()

    def test_gradcheck_single_model(self, capsys):
        assert run(["gradcheck", "--scope", "models", "--arch", "eegnet", "--size", "small"]) == 0
        out = capsys.readouterr().out
        assert "eegnet" in out

    def test_gradcheck_failure_exits_3(self, capsys, monkeypatch):
        report = GradCheckReport(["x"], np.array([1.0]))
        monkeypatch.setattr(checks, "check_op_gradients", lambda: [("add", report)])
        assert run(["gradcheck", "--scope", "ops"]) == 3
        captured = capsys.readouterr()
        assert captured.out.rstrip().endswith("FAIL")
        assert captured.err == "numeric error: gradient checks failed: op add\n"

    def test_audit_params(self, capsys):
        assert run(["audit-params"]) == 0
        out = capsys.readouterr().out
        assert "eegnet" in out and "conformer" in out

    def test_audit_params_cell_outside_budget_exits_3(self, capsys, monkeypatch):
        row = models.AuditRow("eegnet", "small", params=1500, target=1000, deviation=0.5)
        monkeypatch.setattr(models, "audit_params", lambda: [row])
        assert run(["audit-params"]) == 3
        captured = capsys.readouterr()
        assert "eegnet" in captured.out
        assert captured.err.startswith("numeric error: 1 model configurations fall outside")


class TestBadInputs:
    """Every malformed input ends in its documented exit code and message."""

    @pytest.mark.parametrize("argv, code, prefix", [
        ([], 1, "error: neurodecode: the following arguments are required: command"),
        (["synth"], 1, "error: neurodecode synth: the following arguments are required: --out"),
        (["synth", "--n-trials", "many", "--out", "{tmp}/x.eegb"], 1,
         "error: neurodecode synth: argument --n-trials: invalid int value"),
        (["train", "--data", "{tmp}/x.eegb", "--arch", "cnn", "--run-dir", "{tmp}/run"], 1,
         "error: neurodecode train: argument --arch: invalid choice"),
        (["train", "--data", "{tmp}/x.eegb", "--arch", "eegnet", "--run-dir", "{tmp}/run",
          "--subject", "abc"], 1, "error: neurodecode train: argument --subject: expected"),
        (["synth", "--n-trials", "3", "--out", "{tmp}/x.eegb"], 1,
         "error: n_trials must be even and >= 2, got 3"),
        (["synth", "--snr", "-1", "--out", "{tmp}/x.eegb"], 1, "error: snr must be positive, got -1.0"),
        # a 2-class checkpoint scored on labels 0-3
        (["eval", "--run-dir", "{run}", "--data", "{signature}"], 2,
         "data error: labels span 0..3, but the model scores classes 0..1"),
        # record fields of the wrong JSON type
        (["baseline", "--data", "{corrupt}/subject.eegb"], 2,
         "data error: {corrupt}/subject.eegb: field 'subject' must be int, got 'one'"),
        (["preprocess", "--raw", "{corrupt}/onset.eegb", "--out", "{tmp}/o.eegb"], 2,
         "data error: {corrupt}/onset.eegb: field 'onset' must be int, got 'soon'"),
        (["eval", "--run-dir", "{corrupt}/run", "--data", "{signature}"], 2,
         "data error: {corrupt}/run/model.ckpt: field 'n_classes' must be int, got '2'"),
        (["preprocess", "--raw", "{corrupt}/names.eegb", "--out", "{tmp}/o.eegb"], 2,
         "data error: {corrupt}/names.eegb: field 'channel_names' must be list of str, got 5"),
        # the training protocol, dropout and test fraction are constants, not settings
        (["train", "--data", "{signature}", "--arch", "lstm", "--run-dir", "{tmp}/run",
          "--lr-max", "0.1"], 1, "error: neurodecode: unrecognized arguments: --lr-max 0.1"),
        (["train", "--data", "{signature}", "--arch", "lstm", "--run-dir", "{tmp}/run",
          "--dropout", "0.1"], 1, "error: neurodecode: unrecognized arguments: --dropout 0.1"),
        (["synth", "--test-frac", "0.3", "--out", "{tmp}/x.eegb"], 1,
         "error: neurodecode: unrecognized arguments: --test-frac 0.3"),
        (["preprocess", "--raw", "{corrupt}/raw.eegb", "--out", "{tmp}/o.eegb",
          "--test-frac", "0.3"], 1, "error: neurodecode: unrecognized arguments: --test-frac 0.3"),
        # the subject count, lead-in and preprocessing chain are constants too
        (["synth", "--n-subjects", "2", "--out", "{tmp}/x.eegb"], 1,
         "error: neurodecode: unrecognized arguments: --n-subjects 2"),
        (["synth", "--raw", "--lead-in-ms", "120", "--out", "{tmp}/raw.eegb"], 1,
         "error: neurodecode: unrecognized arguments: --lead-in-ms 120"),
        (["preprocess", "--raw", "{corrupt}/raw.eegb", "--out", "{tmp}/o.eegb",
          "--ref-channel", "E01"], 1, "error: neurodecode: unrecognized arguments: --ref-channel E01"),
        (["preprocess", "--raw", "{corrupt}/raw.eegb", "--out", "{tmp}/o.eegb",
          "--band", "1", "40"], 1, "error: neurodecode: unrecognized arguments: --band 1 40"),
        (["preprocess", "--raw", "{corrupt}/raw.eegb", "--out", "{tmp}/o.eegb",
          "--target-rate", "200"], 1, "error: neurodecode: unrecognized arguments: --target-rate 200"),
        # what a run directory records is read from it, and a budget miss always fails
        (["eval", "--run-dir", "{run}", "--data", "{signature}", "--subject", "2"], 1,
         "error: neurodecode: unrecognized arguments: --subject 2"),
        (["analyze", "--runs", "{run}", "--out", "{tmp}/report", "--headline", "mean_last5"], 1,
         "error: neurodecode: unrecognized arguments: --headline mean_last5"),
        (["audit-params", "--strict"], 1, "error: neurodecode: unrecognized arguments: --strict"),
        # right types, but values no trial or model takes
        (["baseline", "--data", "{corrupt}/subject0.eegb"], 2,
         "data error: {corrupt}/subject0.eegb: subject ids are 1-based, got 0"),
        (["eval", "--run-dir", "{corrupt}/empty", "--data", "{signature}"], 2,
         "data error: {corrupt}/empty/model.ckpt: checkpoint describes no buildable model"),
        # an operating-system error reading or writing a file is a data error too
        (["eval", "--run-dir", "{run}", "--data", "{tmp}"], 2,
         "data error: [Errno 21] Is a directory: '{tmp}'"),
        (["synth", "--n-trials", "8", "--out", "{tmp}"], 2,
         "data error: [Errno 21] Is a directory: '{tmp}'"),
        # a signal scale that is not a number would write an all-NaN file
        (["synth", "--snr", "nan", "--out", "{tmp}/x.eegb"], 1, "error: snr must be finite, got nan"),
        (["synth", "--snr", "inf", "--out", "{tmp}/x.eegb"], 1, "error: snr must be finite, got inf"),
        # numpy's seed sequences take no negative seed
        (["synth", "--seed", "-1", "--out", "{tmp}/x.eegb"], 1,
         "error: seed must be non-negative, got -1"),
        (["preprocess", "--raw", "{corrupt}/raw.eegb", "--out", "{tmp}/o.eegb", "--seed", "-3"], 1,
         "error: seed must be non-negative, got -3"),
        (["train", "--data", "{signature}", "--arch", "lstm", "--run-dir", "{tmp}/run",
          "--seed", "-1"], 1, "error: seed must be non-negative, got -1"),
        (["eval", "--run-dir", "{corrupt}/seed", "--data", "{signature}"], 2,
         "data error: {corrupt}/seed/model.ckpt: checkpoint describes no buildable model: "
         "seed must be non-negative, got -1"),
        # too few trials for a test split is a bad flag value, not a bad file
        (["synth", "--n-trials", "2", "--out", "{tmp}/x.eegb"], 1,
         "error: test_frac 0.2 gives 0 test trials out of 2"),
        # a file with no trials has no train split, for train as for baseline
        (["train", "--data", "{corrupt}/none.eegb", "--arch", "lstm", "--run-dir", "{tmp}/run"], 2,
         "data error: no trials assigned to split 'train'"),
        # two events with one trial id would both take the last one's record
        (["preprocess", "--raw", "{corrupt}/repeat.eegb", "--out", "{tmp}/o.eegb"], 2,
         "data error: {corrupt}/repeat.eegb: trial_id 0 names more than one event"),
        (["synth", "--mode", "foo", "--out", "{tmp}/x.eegb"], 1,
         "error: unknown synthetic mode 'foo'; choose from ('linear', 'xor', 'subject_signature')"),
    ])
    def test_exit_code_and_message(
        self, tmp_path, capsys, trained_run, signature_file, corrupt_dir, argv, code, prefix
    ):
        paths = {
            "{tmp}": str(tmp_path),
            "{run}": str(trained_run),
            "{signature}": str(signature_file),
            "{corrupt}": str(corrupt_dir),
        }
        for key, value in paths.items():
            argv = [a.replace(key, value) for a in argv]
            prefix = prefix.replace(key, value)
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(prefix), captured.err
        assert captured.out == ""

    def test_too_few_trials_fail_before_anything_is_generated(self, tmp_path, monkeypatch):
        def generate(cfg):
            raise AssertionError("generated before the flags were checked")

        monkeypatch.setattr(neurodecode.data, "generate_synthetic", generate)
        assert run(["synth", "--n-trials", "2", "--out", str(tmp_path / "x.eegb")]) == 1
        # the raw recording is not split, so two trials still make one
        assert run(["synth", "--raw", "--n-trials", "2", "--out", str(tmp_path / "raw.eegb")]) == 0

    def test_out_of_memory_is_one_line_without_traceback(self, tmp_path, capsys, monkeypatch):
        def generate(cfg):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(neurodecode.data, "generate_synthetic", generate)
        assert run(["synth", "--n-trials", "8", "--out", str(tmp_path / "x.eegb")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "out of memory: Unable to allocate 745. GiB for an array\n"
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "x.eegb").exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--subject" in out
        # one flag per TrainConfig field
        assert all(f"--{f.name.replace('_', '-')} " in out for f in fields(TrainConfig))

    def test_closed_stdout_exits_1_without_traceback(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first line is printed
        src = str(Path(neurodecode.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        argv = [sys.executable, "-m", "neurodecode.cli", "synth", "--n-trials", "8",
                "--out", str(tmp_path / "x.eegb")]
        try:
            proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""
