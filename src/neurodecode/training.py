"""Training protocol: SGD with momentum and warm cosine restarts.

One schedule, one optimizer, shared by every architecture.  The
learning rate follows an epoch-level cosine annealing between lr_max
and lr_min within cycles of length T0, 2*T0, 4*T0, ...; a cycle end
snaps the rate back to lr_max.  Weight decay couples into the gradient
(L2 on every parameter, normalization affines included).  Epochs are
1-based everywhere: in the schedule, the history rows, and the restart
ledger.

A training run is deterministic for a fixed config: batch shuffling
derives from the config seed, dropout masks from the model seed, and
history rows serialize with shortest-repr floats, so two identical runs
produce byte-identical ``history.jsonl`` files.
"""

from __future__ import annotations

import csv
import datetime
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import constant, ops
from .autodiff.core import Parameter, check_finite
from .data import EpochSet, TrialMeta
from .errors import NumericError, UsageError
from .models import Model, eval_logits, save_model


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 45
    batch_size: int = 128
    lr_max: float = 0.05
    lr_min: float = 1e-6
    momentum: float = 0.9
    weight_decay: float = 1e-3
    restart_t0: int = 15
    restart_mult: int = 2
    seed: int = 0
    track_train_acc: bool = False

    def __post_init__(self):
        if self.epochs < 1:
            raise UsageError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr_min <= self.lr_max:
            raise UsageError(f"need 0 < lr_min <= lr_max, got {self.lr_min}, {self.lr_max}")
        if not 0 <= self.momentum < 1:
            raise UsageError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise UsageError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.restart_t0 < 1 or self.restart_mult < 1:
            raise UsageError("restart_t0 and restart_mult must be >= 1")


def restart_epochs(t0: int, mult: int, total: int) -> list[int]:
    """1-based epochs at which each cosine cycle ends.

    The last cycle is truncated at ``total`` when the budget runs out
    mid-cycle, and that truncated end is included.
    """
    ends = []
    start, period = 1, t0
    while start <= total:
        end = start + period - 1
        if end >= total:
            ends.append(total)
            break
        ends.append(end)
        start = end + 1
        period *= mult
    return ends


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Cosine-annealed learning rate for a 1-based epoch index."""
    if epoch < 1:
        raise UsageError(f"epochs are 1-based, got {epoch}")
    start, period = 1, cfg.restart_t0
    while epoch > start + period - 1:
        start += period
        period *= cfg.restart_mult
    t_cur = epoch - start
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + np.cos(np.pi * t_cur / period))


def sgd_step(
    params: list[Parameter], lr: float, momentum: float, weight_decay: float
) -> None:
    """One momentum-SGD update with coupled L2 on every parameter."""
    for p in params:
        if p.grad is None:
            raise NumericError(f"parameter {p.name!r} received no gradient")
        g = p.grad
        if weight_decay:
            g = g + weight_decay * p.data
        check_finite(g, f"gradient of {p.name or 'parameter'}")
        p.momentum *= momentum
        p.momentum += g
        p.data -= lr * p.momentum


@dataclass
class EpochRow:
    epoch: int
    lr: float
    train_loss: float
    test_loss: float
    test_acc: float
    train_acc: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ClassMetrics:
    label: int
    support: int
    precision: float
    recall: float


@dataclass
class EvalResult:
    accuracy: float
    macro_precision: float
    macro_recall: float
    per_class: list[ClassMetrics]
    predictions: np.ndarray
    loss: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "loss": self.loss,
            "per_class": [asdict(c) for c in self.per_class],
        }


def evaluate(model: Model, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> EvalResult:
    """Evaluation-mode metrics.  A class never predicted scores
    precision 0.0; a class absent from ``y`` scores recall 0.0."""
    y = np.asarray(y)
    logits = eval_logits(model, x, batch_size)
    preds = np.argmax(logits, axis=1)
    # batch by batch, not in one call: the summation order fixes the bytes of test_loss
    loss_sum = 0.0
    for start in range(0, len(y), batch_size):
        batch = logits[start : start + batch_size]
        loss = ops.cross_entropy(constant(batch), y[start : start + batch_size])
        loss_sum += float(loss.data) * len(batch)
    accuracy = float(np.mean(preds == y))
    per_class = []
    for k in range(model.n_classes):
        tp = int(np.sum((preds == k) & (y == k)))
        n_pred = int(np.sum(preds == k))
        n_true = int(np.sum(y == k))
        per_class.append(
            ClassMetrics(
                label=k,
                support=n_true,
                precision=tp / n_pred if n_pred else 0.0,
                recall=tp / n_true if n_true else 0.0,
            )
        )
    return EvalResult(
        accuracy=accuracy,
        macro_precision=float(np.mean([c.precision for c in per_class])),
        macro_recall=float(np.mean([c.recall for c in per_class])),
        per_class=per_class,
        predictions=preds,
        loss=loss_sum / max(len(y), 1),
    )


@dataclass
class RunResult:
    rows: list[EpochRow]
    cycle_ends: list[int]
    best_epoch: int
    best_acc: float
    predictions: np.ndarray
    test_meta: list[TrialMeta]

    def history(self) -> list[dict]:
        """The rows as the records of ``history.jsonl``."""
        return [r.to_dict() for r in self.rows]

    def history_lines(self) -> list[str]:
        return [json.dumps(r, sort_keys=True) for r in self.history()]


def train(
    model: Model,
    dataset: EpochSet,
    cfg: TrainConfig,
    run_dir: str | Path | None = None,
) -> RunResult:
    """Train on the 'train' split, evaluating the 'test' split each epoch.

    Test predictions are stashed at the best-accuracy epoch within the
    last-5 windows of the restart cycles (the epochs the peak metric
    looks at), so the prediction file corresponds to the headline
    number.  The final model state is what gets checkpointed.
    """
    train_set = dataset.split_view("train")
    test_set = dataset.split_view("test")
    x_train, y_train = train_set.tensor, train_set.labels
    x_test, y_test = test_set.tensor, test_set.labels
    n = len(y_train)
    (shuffle_ss,) = np.random.SeedSequence(cfg.seed).spawn(1)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    cycle_ends = restart_epochs(cfg.restart_t0, cfg.restart_mult, cfg.epochs)
    windowed = set()
    for end in cycle_ends:
        windowed.update(range(max(1, end - 4), end + 1))

    started = datetime.datetime.now(datetime.timezone.utc)
    rows: list[EpochRow] = []
    best_epoch, best_acc = 0, -1.0
    best_preds = np.zeros(len(y_test), dtype=np.int64)
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at(epoch, cfg)
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            model.zero_grad()
            loss = model.loss(x_train[idx], y_train[idx], training=True)
            loss.backward()
            sgd_step(model.params(), lr, cfg.momentum, cfg.weight_decay)
            loss_sum += float(loss.data) * len(idx)
        test_eval = evaluate(model, x_test, y_test)
        train_acc = None
        if cfg.track_train_acc:
            train_acc = evaluate(model, x_train, y_train).accuracy
        rows.append(
            EpochRow(
                epoch=epoch,
                lr=float(lr),
                train_loss=loss_sum / n,
                test_loss=test_eval.loss,
                test_acc=test_eval.accuracy,
                train_acc=train_acc,
            )
        )
        if epoch in windowed and test_eval.accuracy > best_acc:
            best_epoch, best_acc = epoch, test_eval.accuracy
            best_preds = test_eval.predictions.copy()

    result = RunResult(
        rows=rows,
        cycle_ends=cycle_ends,
        best_epoch=best_epoch,
        best_acc=best_acc,
        predictions=best_preds,
        test_meta=test_set.meta,
    )
    if run_dir is not None:
        write_run_dir(Path(run_dir), model, cfg, result, started)
    return result


def write_run_dir(
    run_dir: Path,
    model: Model,
    cfg: TrainConfig,
    result: RunResult,
    started: datetime.datetime,
) -> None:
    """Persist one training run: config, history, checkpoint, predictions.

    ``history.jsonl`` and ``predictions.csv`` are deterministic given
    the config; wall-clock timestamps live only in ``manifest.json``.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    config = {"model": model.descriptor(), "train": asdict(cfg)}
    (run_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    (run_dir / "history.jsonl").write_text("\n".join(result.history_lines()) + "\n")
    save_model(run_dir / "model.ckpt", model)
    with open(run_dir / "predictions.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["trial_id", "subject", "concept_id", "concept_name", "category", "label", "pred"]
        )
        for m, pred in zip(result.test_meta, result.predictions):
            writer.writerow(
                [m.trial_id, m.subject, m.concept_id, m.concept_name, m.category, m.label, int(pred)]
            )
    manifest = {
        "created_at": started.isoformat(),
        "completed_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "arch": model.arch,
        "size": model.size,
        "seed": cfg.seed,
        "epochs": cfg.epochs,
        "cycle_ends": result.cycle_ends,
        "best_epoch": result.best_epoch,
        "best_windowed_test_acc": result.best_acc,
        "n_params": model.n_params,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
