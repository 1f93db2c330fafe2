"""Command-line interface.

Subcommands cover the full desk-scale workflow: generate synthetic
data, preprocess a raw recording, train a decoder, run the covariance
baseline, evaluate a checkpoint, aggregate runs into a report, verify
gradients, and audit parameter budgets.

Exit codes: 0 success, 1 usage error (a bad flag or flag value), 2
data error (missing or malformed files, or any other ``OSError``, such as
a directory where a file is read or written) and running out of memory, 3
numeric failure (non-finite values, failed checks).  A closed stdout
(``neurodecode gradcheck | head -1``) exits 1 without a traceback.

Each setting has one source, and each rule one library function that
the commands and scripts call.  The train/test split is drawn once, from
``--seed``, by the command that writes the epoch file: ``synth`` through
``data.synthesize`` and ``preprocess`` through ``data.preprocess``.
``train``, ``baseline`` and ``eval`` read it, and ``eval`` scores the
file's test split.  An epoch file with a trial that has no split is a
data error.  ``train`` fits each model through ``training.fit``, which
shapes it by the task's tensor and labels.  The seed is ``--seed``,
else 0.  What a run directory records is read from it, not asked for:
``eval`` scores the subject in the run's manifest, and ``analyze`` ranks
runs by the peak metric that their subjects pick.  A run directory
describes one model: ``train`` writes ``history.jsonl``, the final
``model.ckpt``, that model's test ``predictions.csv`` and
``manifest.json``, which records the run's ``TrainConfig``.

The training flags are the fields of ``TrainConfig``, and ``synth``'s
data flags those of ``SynthConfig``, one each, with ``_`` written
``-``; a field comes from its flag, else from the dataclass default.
The optimizer and schedule are constants of ``training.py``, a model's
dropout is that of its size, and the preprocessing chain's reference,
band and rate are constants of ``pipeline.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import analysis, baseline, checks, data, models, training
from .errors import DataError, NumericError, UsageError


class _Parser(argparse.ArgumentParser):
    """A bad flag is a ``UsageError`` (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _subject(value: str) -> int | str:
    if value == "all":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a subject id or 'all', got {value!r}") from None


def _add_config_flags(p: argparse.ArgumentParser, cls) -> None:
    """One flag per field of ``cls``, defaulting to the field's default; a
    field whose default is None takes a float."""
    for f in dataclasses.fields(cls):
        kind = float if f.default is None else type(f.default)
        p.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default)


def _config(cls, args):
    """``cls`` from its flags."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


# ------------------------------------------------------------------ commands


def cmd_synth(args) -> int:
    cfg = _config(data.SynthConfig, args)
    if args.raw:
        rec, meta = data.generate_raw(cfg)
        data.save_raw(args.out, rec, meta)
        print(
            f"wrote raw recording: {rec.data.shape[0]} channels x {rec.data.shape[1]} samples "
            f"at {rec.sample_rate} Hz, {len(rec.event_onsets)} events -> {args.out}"
        )
        return 0
    epochs = data.synthesize(cfg)
    data.save_epochs(args.out, epochs)
    n_test = sum(1 for m in epochs.meta if m.split == "test")
    print(
        f"wrote {len(epochs)} epochs ({cfg.mode}, snr {cfg.effective_snr}, seed {cfg.seed}), "
        f"{len(epochs) - n_test} train / {n_test} test -> {args.out}"
    )
    return 0


def cmd_preprocess(args) -> int:
    rec, meta = data.load_raw(args.raw)
    epochs, skipped = data.preprocess(rec, meta, args.seed)
    for trial_id, reason in skipped:
        print(f"skipped trial {trial_id}: {reason}", file=sys.stderr)
    if skipped:
        print(f"skipped {len(skipped)} of {len(rec.event_onsets)} trials", file=sys.stderr)
    data.save_epochs(args.out, epochs)
    _, n_channels, n_samples = epochs.tensor.shape
    print(f"preprocessed {len(epochs)} epochs ({n_channels} channels x {n_samples} samples) -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _config(training.TrainConfig, args)
    epochs = data.load_epochs(args.data)
    if args.subject == "all":
        subjects = sorted({m.subject for m in epochs.meta})
    else:
        subjects = [args.subject]
    run_root = Path(args.run_dir)
    for subject in subjects:
        run_dir = run_root / f"sub{subject:02d}" if len(subjects) > 1 else run_root
        run = training.fit(args.arch, args.size, data.build_task(epochs, subject), cfg, run_dir)
        where = "" if subject is None else f" subject {subject}"
        print(
            f"{args.arch}-{args.size}{where}: {run.headline} = {run.peak(run.headline):.4f} "
            f"(final test acc {run.history[-1]['test_acc']:.4f}) -> {run_dir}"
        )
    return 0


def cmd_baseline(args) -> int:
    report = baseline.baseline(data.build_task(data.load_epochs(args.data), args.subject))
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_eval(args) -> int:
    model = models.load_model(Path(args.run_dir) / "model.ckpt")
    (run,) = analysis.collect_runs([args.run_dir])
    epochs = data.load_epochs(args.data)
    task = data.build_task(epochs, run.manifest["subject"]).split_view("test")
    result = training.evaluate(model, task.tensor, task.labels)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    print("\n".join(analysis.analyze(args.runs, args.out)))
    return 0


def _gradient_checks(args):
    """(padded label, report) for each op case, then for each model cell as it is checked."""
    if args.scope in ("all", "ops"):
        for name, report in checks.check_op_gradients():
            yield f"op {name:<24}", report
    if args.scope in ("all", "models"):
        for arch, size in models.CELLS:
            if args.arch in (None, arch) and args.size in (None, size):
                yield f"model {arch}-{size:<8}", checks.check_model_gradients(arch, size)


def cmd_gradcheck(args) -> int:
    failures = []
    for label, report in _gradient_checks(args):
        print(f"{label} {report.summary()}  {'PASS' if report.passed else 'FAIL'}")
        if not report.passed:
            failures.append(label.rstrip())
    if failures:
        raise NumericError(f"gradient checks failed: {', '.join(failures)}")
    print("all gradient checks passed")
    return 0


def cmd_audit_params(args) -> int:
    rows = models.audit_params()
    print(models.format_audit(rows))
    bad = [r for r in rows if not r.within_budget]
    if bad:
        raise NumericError(
            f"{len(bad)} model configurations fall outside the ±30% parameter budget"
        )
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="neurodecode",
        description="EEG decoding benchmark: synthetic data, decoders, baseline, analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic epochs or a raw recording")
    _add_config_flags(p, data.SynthConfig)
    p.add_argument("--raw", action="store_true", help="write a continuous 1 kHz recording")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="raw recording -> preprocessed epochs")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a decoder on an epoch file")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", required=True, choices=list(models.ARCHITECTURES))
    p.add_argument("--size", default="small", choices=list(models.SIZES))
    p.add_argument("--run-dir", required=True)
    p.add_argument("--subject", type=_subject, help="subject id, or 'all' for one run each")
    _add_config_flags(p, training.TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="CSP + LDA reference decoder")
    p.add_argument("--data", required=True)
    p.add_argument("--subject", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an epoch file")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="aggregate run directories into a report")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", choices=["all", "ops", "models"], default="all")
    p.add_argument("--arch", default=None, choices=list(models.ARCHITECTURES))
    p.add_argument("--size", default=None, choices=list(models.SIZES))
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("audit-params", help="parameter counts vs size-budget targets")
    p.set_defaults(func=cmd_audit_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, inside the try
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
