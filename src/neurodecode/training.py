"""Training protocol: SGD with momentum and warm cosine restarts.

One schedule, one optimizer, fixed for every architecture.  The
learning rate follows an epoch-level cosine annealing between LR_MAX
and LR_MIN within cycles of RESTART_T0, RESTART_MULT * RESTART_T0, ...
epochs; a cycle end snaps it back to LR_MAX.  Weight decay couples into
the gradient (L2 on every parameter, normalization affines included).
Epochs are 1-based everywhere: in the schedule, the history rows, and
the restart ledger.

A training run is deterministic for a fixed config: batch shuffling
derives from the config seed, dropout masks from the model seed, and
history rows serialize with shortest-repr floats, so two identical runs
produce byte-identical ``history.jsonl`` files.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .analysis import _RUN_FILES, Run, write_csv
from .autodiff import constant, ops
from .autodiff.core import Parameter, check_finite
from .data import EpochSet
from .errors import DataError, NumericError, UsageError, check_seed
from .models import EVAL_BATCH, Model, build_model, eval_logits, save_model


LR_MAX = 0.05
LR_MIN = 1e-6
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-3
RESTART_T0 = 15
RESTART_MULT = 2


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 45
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise UsageError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        check_seed(self.seed)


def _cycles():
    """The (first epoch, length) of each cosine cycle, without end."""
    start, period = 1, RESTART_T0
    while True:
        yield start, period
        start += period
        period *= RESTART_MULT


def restart_epochs(total: int) -> list[int]:
    """1-based epochs at which each cosine cycle ends.

    The last cycle is truncated at ``total`` when the budget runs out
    mid-cycle, and that truncated end is included.
    """
    ends = []
    for start, period in _cycles():
        if start > total:
            return ends
        ends.append(min(start + period - 1, total))


def lr_at(epoch: int) -> float:
    """Cosine-annealed learning rate for a 1-based epoch index."""
    if epoch < 1:
        raise UsageError(f"epochs are 1-based, got {epoch}")
    for start, period in _cycles():
        if epoch < start + period:
            t_cur = epoch - start
            return LR_MIN + 0.5 * (LR_MAX - LR_MIN) * (1.0 + np.cos(np.pi * t_cur / period))


def sgd_step(params: list[Parameter], lr: float) -> None:
    """One momentum-SGD update with coupled L2 on every parameter."""
    for p in params:
        if p.grad is None:
            raise NumericError(f"parameter {p.name!r} received no gradient")
        g = p.grad + WEIGHT_DECAY * p.data
        check_finite(g, f"gradient of {p.name or 'parameter'}")
        p.momentum *= MOMENTUM
        p.momentum += g
        p.data -= lr * p.momentum


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


def evaluate(model: Model, x: np.ndarray, y: np.ndarray) -> EvalResult:
    """Evaluation-mode metrics.  A class never predicted scores
    precision 0.0; a class absent from ``y`` scores recall 0.0."""
    y = np.asarray(y)
    if y.size and (y.min() < 0 or y.max() >= model.n_classes):
        raise DataError(
            f"labels span {y.min()}..{y.max()}, but the model scores classes 0..{model.n_classes - 1}"
        )
    logits = eval_logits(model, x)
    preds = np.argmax(logits, axis=1)
    # batch by batch, not in one call: the summation order fixes the bytes of test_loss
    loss_sum = 0.0
    for start in range(0, len(y), EVAL_BATCH):
        batch = logits[start : start + EVAL_BATCH]
        loss = ops.cross_entropy(constant(batch), y[start : start + EVAL_BATCH])
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


def train(
    model: Model,
    dataset: EpochSet,
    cfg: TrainConfig,
    run_dir: str | Path | None = None,
) -> Run:
    """Train on the 'train' split, evaluating the 'test' split each epoch.

    The run's test predictions are those of the last epoch, made by the
    final model state that gets checkpointed, so ``predictions.csv``,
    ``model.ckpt``, the last history row and ``eval`` all describe one
    model.  Returns the run record that ``write_run_dir`` writes to
    ``run_dir``.

    Memory: each batch is gathered from ``dataset.tensor`` through the
    train rows' indices, so the train split is never copied whole, and a
    step's graph is dropped once its loss is summed, so the next forward
    and the epoch's evaluation never run beside the last step's graph.
    """
    train_rows = dataset.split_rows("train")
    test_set = dataset.split_view("test")
    x_all, y_train = dataset.tensor, dataset.labels[train_rows]
    x_test, y_test = test_set.tensor, test_set.labels
    n = len(train_rows)
    (shuffle_ss,) = np.random.SeedSequence(cfg.seed).spawn(1)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    started = datetime.datetime.now(datetime.timezone.utc)
    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        lr = lr_at(epoch)
        perm = shuffle_rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            model.zero_grad()
            loss = model.loss(x_all[train_rows[idx]], y_train[idx], training=True)
            loss.backward()
            sgd_step(model.params(), lr)
            loss_sum += float(loss.data) * len(idx)
            del loss  # the step's whole graph: every op output and what its closure saved
        test_eval = evaluate(model, x_test, y_test)
        history.append(
            {
                "epoch": epoch,
                "lr": float(lr),
                "train_loss": loss_sum / n,
                "test_loss": test_eval.loss,
                "test_acc": test_eval.accuracy,
            }
        )

    subjects = {m.subject for m in dataset.meta}
    manifest = {
        "created_at": started.isoformat(),
        "completed_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "arch": model.arch,
        "size": model.size,
        **asdict(cfg),
        # the one subject every trial shares; None for a cross-subject run
        "subject": next(iter(subjects)) if len(subjects) == 1 else None,
        "cycle_ends": restart_epochs(cfg.epochs),
        "n_params": model.n_params,
        # a run's bytes hold only at one thread count: every cell's
        # model.ckpt differs between one and two BLAS threads
        # (OpenBLAS 0.3.31, 2 cores)
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    predictions = [
        {**{k: v for k, v in m.to_dict().items() if k != "split"}, "pred": int(pred)}
        for m, pred in zip(test_set.meta, test_eval.predictions)
    ]
    run = Run(None if run_dir is None else Path(run_dir), manifest, history, predictions)
    if run.path is not None:
        write_run_dir(run.path, model, run)
    return run


def fit(arch: str, size: str, task: EpochSet, cfg: TrainConfig, run_dir: str | Path | None = None) -> Run:
    """``train`` a new ``arch``-``size`` model on ``task``, drawn from ``cfg.seed``
    and shaped by the task: its channels, samples and labels (two classes at least)."""
    _, n_channels, n_samples = task.tensor.shape
    n_classes = max(int(task.labels.max(initial=0)) + 1, 2)  # no trials: train's DataError
    model = build_model(arch, size, seed=cfg.seed, n_classes=n_classes,
                        n_channels=n_channels, n_samples=n_samples)
    return train(model, task, cfg, run_dir=run_dir)


def write_run_dir(run_dir: Path, model: Model, run: Run) -> None:
    """Persist one training run: history, checkpoint, predictions, and
    last the manifest, whose presence marks a complete run.  An old
    manifest is removed before anything else is written, so a rewrite that
    fails partway leaves a directory that reads as incomplete.

    Every file but ``manifest.json`` is deterministic given the config;
    wall-clock timestamps live only in the manifest.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "manifest.json").unlink(missing_ok=True)
    (run_dir / "history.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in run.history)
    )
    save_model(run_dir / "model.ckpt", model)
    _, columns = _RUN_FILES["predictions.csv"]
    rows = ([r[c] for c in columns] for r in run.predictions)
    write_csv(run_dir / "predictions.csv", list(columns), rows)
    (run_dir / "manifest.json").write_text(json.dumps(run.manifest, indent=2, sort_keys=True) + "\n")
