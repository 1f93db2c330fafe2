"""Command-line interface.

Subcommands cover the full desk-scale workflow: generate synthetic
data, preprocess a raw recording, train a decoder, run the covariance
baseline, evaluate a checkpoint, aggregate runs into a report, verify
gradients, and audit parameter budgets.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(missing or malformed files), 3 numeric failure (non-finite values,
failed checks).  When ``--seed`` is omitted the ``NEURODECODE_SEED``
environment variable is consulted before falling back to 0.

Config files are plain JSON objects whose keys are the dataclass field
names (``TrainConfig`` for ``train``, ``PipelineConfig`` for
``preprocess``); explicit flags override file values.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, baseline, checks, data, models, pipeline, training
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


def resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("NEURODECODE_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"NEURODECODE_SEED must be an integer, got {env!r}") from None


def _load_config_dict(path: str | None, cls) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config file {p} must hold a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise UsageError(
            f"config file {p} has unknown {cls.__name__} fields {unknown}; known: {sorted(known)}"
        )
    return raw


def _merged_config(cls, config_path: str | None, overrides: dict):
    base = _load_config_dict(config_path, cls)
    base.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return cls(**base)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {cls.__name__}: {exc}") from exc


def _ensure_split(epochs: data.EpochSet, test_frac: float, seed: int) -> data.EpochSet:
    if all(m.split in ("train", "test") for m in epochs.meta):
        return epochs
    return data.split(epochs, test_frac, seed)


# ------------------------------------------------------------------ commands


def cmd_synth(args) -> int:
    seed = resolve_seed(args.seed)
    cfg = data.SynthConfig(
        mode=args.mode,
        n_trials=args.n_trials,
        n_subjects=args.n_subjects,
        snr=args.snr,
        seed=seed,
        test_frac=args.test_frac,
    )
    if args.raw:
        rec, meta = data.generate_raw(cfg, lead_in_ms=args.lead_in_ms)
        data.save_raw(args.out, rec, meta)
        print(
            f"wrote raw recording: {rec.data.shape[0]} channels x {rec.data.shape[1]} samples "
            f"at {rec.sample_rate} Hz, {len(rec.event_onsets)} events -> {args.out}"
        )
        return 0
    epochs = data.generate_synthetic(cfg)
    epochs = data.split(epochs, cfg.test_frac, seed)
    data.save_epochs(args.out, epochs)
    n_test = sum(1 for m in epochs.meta if m.split == "test")
    print(
        f"wrote {len(epochs)} epochs ({cfg.mode}, snr {cfg.effective_snr}, seed {seed}), "
        f"{len(epochs) - n_test} train / {n_test} test -> {args.out}"
    )
    return 0


def cmd_preprocess(args) -> int:
    seed = resolve_seed(args.seed)
    overrides = {
        "ref_channel": args.ref_channel,
        "target_rate": args.target_rate,
    }
    if args.band_low is not None or args.band_high is not None:
        if args.band_low is None or args.band_high is None:
            raise UsageError("give both --band-low and --band-high or neither")
        overrides["band"] = (args.band_low, args.band_high)
    cfg = _merged_config(pipeline.PipelineConfig, args.config, overrides)
    rec, meta = data.load_raw(args.raw)
    tensor, trial_ids, skipped = pipeline.run_pipeline(rec, cfg)
    for trial_id, reason in skipped:
        print(f"skipped trial {trial_id}: {reason}", file=sys.stderr)
    if skipped:
        print(f"skipped {len(skipped)} of {len(rec.event_onsets)} trials", file=sys.stderr)
    by_id = {m.trial_id: m for m in meta}
    kept_meta = [by_id[t] for t in trial_ids]
    epochs = data.EpochSet(tensor, kept_meta)
    epochs = data.split(epochs, args.test_frac, seed)
    data.save_epochs(args.out, epochs)
    print(
        f"preprocessed {len(epochs)} epochs "
        f"({tensor.shape[1]} channels x {tensor.shape[2]} samples) -> {args.out}"
    )
    return 0


def _train_one(
    data_path: str,
    subject: int | None,
    arch: str,
    size: str,
    dropout: float | None,
    cfg: training.TrainConfig,
    test_frac: float,
    run_dir: str,
) -> dict:
    epochs = data.load_epochs(data_path)
    task = data.build_task(epochs, subject)
    task = _ensure_split(task, test_frac, cfg.seed)
    labels = task.labels
    n_classes = int(labels.max()) + 1
    model = models.build_model(
        arch, size, seed=cfg.seed, dropout=dropout, n_classes=max(n_classes, 2)
    )
    result = training.train(model, task, cfg, run_dir=run_dir)
    kind = "mean_last5" if subject is not None else "max_last5"
    peak = analysis.peak_metric(result.history(), result.cycle_ends, kind)
    return {
        "run_dir": run_dir,
        "subject": subject,
        "arch": arch,
        "size": size,
        "seed": cfg.seed,
        "peak_metric": peak.value,
        "peak_kind": kind,
        "best_epoch": result.best_epoch,
        "final_test_acc": result.rows[-1].test_acc,
    }


def _train_worker(payload: dict) -> dict:
    cfg = training.TrainConfig(**payload.pop("cfg"))
    return _train_one(cfg=cfg, **payload)


def cmd_train(args) -> int:
    seed = resolve_seed(args.seed)
    # every TrainConfig field has a flag of the same name; unset flags are None
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(training.TrainConfig)}
    overrides.update(track_train_acc=args.track_train_acc or None, seed=seed)
    cfg = _merged_config(training.TrainConfig, args.config, overrides)

    if args.subject == "all":
        epochs = data.load_epochs(args.data)
        subjects = sorted({m.subject for m in epochs.meta})
        del epochs
    elif args.subject is not None:
        subjects = [args.subject]
    else:
        subjects = [None]

    run_root = Path(args.run_dir)
    payloads = []
    for subject in subjects:
        sub_dir = run_root if subject is None or len(subjects) == 1 else run_root / f"sub{subject:02d}"
        payloads.append(
            dict(
                data_path=args.data,
                subject=subject,
                arch=args.arch,
                size=args.size,
                dropout=args.dropout,
                cfg=dataclasses.asdict(cfg),
                test_frac=args.test_frac,
                run_dir=str(sub_dir),
            )
        )
    if args.jobs > 1 and len(payloads) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            summaries = list(pool.map(_train_worker, payloads))
    else:
        summaries = [_train_worker(p) for p in payloads]
    for s in summaries:
        where = "" if s["subject"] is None else f" subject {s['subject']}"
        print(
            f"{s['arch']}-{s['size']}{where}: {s['peak_kind']} = {s['peak_metric']:.4f} "
            f"(best epoch {s['best_epoch']}, final test acc {s['final_test_acc']:.4f}) "
            f"-> {s['run_dir']}"
        )
    return 0


def cmd_baseline(args) -> int:
    seed = resolve_seed(args.seed)
    epochs = data.load_epochs(args.data)
    task = data.build_task(epochs, args.subject)
    task = _ensure_split(task, args.test_frac, seed)
    train_set = task.split_view("train")
    test_set = task.split_view("test")
    model = baseline.fit_csp_lda(train_set.tensor, train_set.labels)
    report = {
        "n_train": len(train_set),
        "n_test": len(test_set),
        "n_filters": model.csp.n_filters,
        "train_acc": float(np.mean(model.predict(train_set.tensor) == train_set.labels)),
        "test_acc": float(np.mean(model.predict(test_set.tensor) == test_set.labels)),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_eval(args) -> int:
    model = models.load_model(Path(args.run_dir) / "model.ckpt")
    epochs = data.load_epochs(args.data)
    task = data.build_task(epochs, args.subject)
    if any(m.split == "test" for m in task.meta):
        task = task.split_view("test")
    result = training.evaluate(model, task.tensor, task.labels)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_analyze(args) -> int:
    runs = analysis.collect_runs(args.runs)
    paths = analysis.emit_report(runs, args.out)
    text = analysis.write_comparison(runs, args.out, args.headline)
    if text is not None:
        print(text)
    for name, p in sorted(paths.items()):
        print(f"{name}: {p}")
    return 0


def cmd_gradcheck(args) -> int:
    failures = []
    if args.scope in ("all", "ops"):
        for name, report in checks.check_op_gradients():
            status = "PASS" if report.passed else "FAIL"
            print(f"op {name:<24} {report.summary()}  {status}")
            if not report.passed:
                failures.append(f"op {name}")
    if args.scope in ("all", "models"):
        archs = [args.arch] if args.arch else list(models.ARCHITECTURES)
        sizes = [args.size] if args.size else list(models.SIZES)
        for arch in archs:
            for size in sizes:
                report = checks.check_model_gradients(arch, size, sample=args.sample)
                status = "PASS" if report.passed else "FAIL"
                print(f"model {arch}-{size:<8} {report.summary()}  {status}")
                if not report.passed:
                    failures.append(f"model {arch}-{size}")
    if failures:
        raise NumericError(f"gradient checks failed: {', '.join(failures)}")
    print("all gradient checks passed")
    return 0


def cmd_audit_params(args) -> int:
    rows = models.audit_params()
    print(models.format_audit(rows))
    bad = [r for r in rows if not r.within_budget]
    if bad and args.strict:
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
    p.add_argument("--mode", choices=["linear", "xor", "subject_signature"], default="linear")
    p.add_argument("--n-trials", type=int, default=2000)
    p.add_argument("--n-subjects", type=int, default=4)
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--raw", action="store_true", help="write a continuous 1 kHz recording")
    p.add_argument("--lead-in-ms", type=float, default=1000.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("preprocess", help="raw recording -> preprocessed epochs")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="JSON with PipelineConfig fields")
    p.add_argument("--ref-channel", default=None)
    p.add_argument("--band-low", type=float, default=None)
    p.add_argument("--band-high", type=float, default=None)
    p.add_argument("--target-rate", type=int, default=None)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a decoder on an epoch file")
    p.add_argument("--data", required=True)
    p.add_argument("--arch", required=True, choices=list(models.ARCHITECTURES))
    p.add_argument("--size", default="small", choices=list(models.SIZES))
    p.add_argument("--run-dir", required=True)
    p.add_argument("--subject", type=_subject, help="subject id, or 'all' for one run each")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--config", default=None, help="JSON with TrainConfig fields")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr-max", type=float, default=None)
    p.add_argument("--lr-min", type=float, default=None)
    p.add_argument("--momentum", type=float, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--restart-t0", type=int, default=None)
    p.add_argument("--restart-mult", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--track-train-acc", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="CSP + LDA reference decoder")
    p.add_argument("--data", required=True)
    p.add_argument("--subject", type=int, default=None)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an epoch file")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subject", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="aggregate run directories into a report")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--headline", choices=["max_last5", "mean_last5"], default="max_last5")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", choices=["all", "ops", "models"], default="all")
    p.add_argument("--arch", default=None, choices=list(models.ARCHITECTURES))
    p.add_argument("--size", default=None, choices=list(models.SIZES))
    p.add_argument("--sample", type=int, default=checks.MODEL_CHECK_SAMPLE)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("audit-params", help="parameter counts vs size-budget targets")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_audit_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
