"""Post-run analysis: peak metrics, paired tests, reports and charts.

The headline number of a run is a peak metric over the warm-restart
schedule: for each cycle end e, the window of (up to) five epochs
[e-4, e] gets its mean test accuracy; ``max_last5`` is the maximum of
those window means and is the cross-subject headline, ``mean_last5``
their mean, used for single-subject runs where individual windows are
noisy.  A run's manifest decides which one scores it (``Run.headline``).
A window truncated by the epoch budget still counts as long as it
contains at least one epoch.

Decoder comparisons pair peak metrics by seed and use a paired t-test
with the Student-t survival function from scipy.  Charts are emitted as
self-contained SVG, no plotting dependency.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .data import ALIVE_CATEGORIES, NONLIVING_CATEGORIES, category_to_label
from .errors import DataError, check_fields

PEAK_WINDOW = 5


def peak_windows(cycle_ends: list[int]) -> list[range]:
    """The epochs of each cycle's last-5 window, the epochs a peak metric reads."""
    return [range(max(1, end - PEAK_WINDOW + 1), end + 1) for end in cycle_ends]


def peak_metric(history: list[dict], cycle_ends: list[int], kind: str) -> float:
    """Peak test accuracy over the last-5 windows of each restart cycle.

    ``history`` holds ``history.jsonl`` records, as ``Run.history`` does.
    """
    if kind not in ("max_last5", "mean_last5"):
        raise DataError(f"unknown peak metric {kind!r}")
    by_epoch = {r["epoch"]: r["test_acc"] for r in history}
    if not by_epoch:
        raise DataError("empty history")
    means = []
    for window in peak_windows(cycle_ends):
        span = [by_epoch[e] for e in window if e in by_epoch]
        if span:
            means.append(float(np.mean(span)))
    if not means:
        raise DataError(f"no history epochs fall inside windows of cycle ends {cycle_ends}")
    return max(means) if kind == "max_last5" else float(np.mean(means))


@dataclass
class TTestResult:
    t: float
    df: int
    p: float
    mean_diff: float
    degenerate: bool = False


def paired_ttest(a, b) -> TTestResult:
    """Two-sided paired t-test.

    A zero-variance, nonzero-mean difference is reported as t = +/-inf
    with p = 0 and flagged degenerate rather than raising: at desk
    scale two decoders can produce literally identical accuracies.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError(f"paired samples must be equal-length 1-d, got {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise DataError(f"paired t-test needs >= 2 pairs, got {n}")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p=1.0, mean_diff=0.0, degenerate=True)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t=t, df=df, p=0.0, mean_diff=mean, degenerate=True)
    from scipy.special import stdtr  # loaded here: only the t-tests need it
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(stdtr(df, -abs(t)))
    return TTestResult(t=t, df=df, p=p, mean_diff=mean)


@dataclass
class ObjectAccuracy:
    concept_id: int
    concept_name: str
    category: str
    n_trials: int
    accuracy: float


def per_object_accuracy(records: list[dict]) -> list[ObjectAccuracy]:
    """Accuracy per concept from prediction records, sorted descending.

    Each record needs concept_id, concept_name, category, label, pred.
    Ties break on concept name so the ordering is reproducible.
    """
    groups: dict[tuple[int, str, str], list[bool]] = {}
    for r in records:
        key = (int(r["concept_id"]), r["concept_name"], r["category"])
        groups.setdefault(key, []).append(int(r["pred"]) == int(r["label"]))
    rows = [
        ObjectAccuracy(
            concept_id=cid,
            concept_name=name,
            category=cat,
            n_trials=len(hits),
            accuracy=float(np.mean(hits)),
        )
        for (cid, name, cat), hits in groups.items()
    ]
    rows.sort(key=lambda r: (-r.accuracy, r.concept_name))
    return rows


@dataclass
class CategoryRow:
    category: str
    label: int | None
    n_objects: int
    n_trials: int
    mean_accuracy: float


def category_table(objects: list[ObjectAccuracy]) -> list[CategoryRow]:
    """Unweighted object-level mean accuracy per category.

    Every object counts once regardless of its trial count.  Categories
    appear in canonical table order (alive block first), then any
    categories outside the animacy table, alphabetically.
    """
    by_cat: dict[str, list[ObjectAccuracy]] = {}
    for obj in objects:
        by_cat.setdefault(obj.category, []).append(obj)
    canonical = list(ALIVE_CATEGORIES) + list(NONLIVING_CATEGORIES)
    ordered = [c for c in canonical if c in by_cat]
    ordered += sorted(c for c in by_cat if c not in canonical)
    rows = []
    for cat in ordered:
        objs = by_cat[cat]
        rows.append(
            CategoryRow(
                category=cat,
                label=category_to_label(cat),
                n_objects=len(objs),
                n_trials=sum(o.n_trials for o in objs),
                mean_accuracy=float(np.mean([o.accuracy for o in objs])),
            )
        )
    return rows


@dataclass
class ComparisonRow:
    name: str
    mean: float
    per_seed: list[float]


@dataclass
class ComparisonReport:
    ranking: list[ComparisonRow]
    pairwise: list[tuple[str, str, TTestResult]]
    labels: list[str]  # what each per-seed value was paired on, in order

    def format(self) -> str:
        lines = ["ranking (by mean peak metric):"]
        for i, row in enumerate(self.ranking, 1):
            seeds = ", ".join(f"{label}: {v:.4f}" for label, v in zip(self.labels, row.per_seed))
            lines.append(f"  {i}. {row.name:<14} mean {row.mean:.4f}  [{seeds}]")
        lines.append("pairwise paired t-tests:")
        for a, b, res in self.pairwise:
            flag = "  (degenerate: zero variance)" if res.degenerate else ""
            lines.append(
                f"  {a} vs {b}: t = {res.t:.4f}, df = {res.df}, p = {res.p:.6f}, "
                f"mean diff = {res.mean_diff:+.4f}{flag}"
            )
        return "\n".join(lines)


def compare_decoders(metrics: dict[str, list[float]], labels: list[str]) -> ComparisonReport:
    """Rank decoders by mean peak metric and test all pairs, paired by seed;
    ``labels`` names the pairs, one per value of each decoder."""
    if len(metrics) < 2:
        raise DataError(f"comparison needs >= 2 decoders, got {len(metrics)}")
    lengths = {name: len(vals) for name, vals in metrics.items()}
    if set(lengths.values()) != {len(labels)}:
        raise DataError(f"decoders have unequal seed counts: {lengths}, {len(labels)} labels")
    ranking = [
        ComparisonRow(name=name, mean=float(np.mean(vals)), per_seed=list(vals))
        for name, vals in metrics.items()
    ]
    ranking.sort(key=lambda r: (-r.mean, r.name))
    pairwise = []
    names = [r.name for r in ranking]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            res = paired_ttest(metrics[names[i]], metrics[names[j]])
            pairwise.append((names[i], names[j], res))
    return ComparisonReport(ranking=ranking, pairwise=pairwise, labels=list(labels))


# ------------------------------------------------------------------ reporting


def write_csv(path: Path, header: list[str], rows) -> Path:
    """Write ``header`` and then ``rows`` (lists of cells) as one csv file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


# file name -> its parser, and the kind of each field every record must carry;
# the predictions.csv kinds are also its columns, in order
_RUN_FILES = {
    "manifest.json": (
        lambda fh: [json.load(fh)],
        {
            "arch": str, "size": str, "seed": int, "subject": (int, None), "cycle_ends": [int],
        },
    ),
    "history.jsonl": (
        lambda fh: [json.loads(line) for line in fh if line.strip()],
        {"epoch": int, "lr": float, "train_loss": float, "test_loss": float, "test_acc": float},
    ),
    "predictions.csv": (
        lambda fh: list(csv.DictReader(fh)),
        {
            "trial_id": "digits", "subject": "digits", "concept_id": "digits",
            "concept_name": str, "category": str, "label": "digits", "pred": "digits",
        },
    ),
}


@dataclass
class Run:
    """One training run, as ``training.train`` returns it and ``collect_runs``
    reads it back: the records of its manifest.json, history.jsonl and
    predictions.csv (whose values read back as strings).  ``path`` is None
    for a run trained without a run directory."""

    path: Path | None
    manifest: dict
    history: list[dict]
    predictions: list[dict]

    @property
    def name(self) -> str:
        """The run directory as given, so runs in same-named folders stay apart."""
        return str(self.path)

    @property
    def headline(self) -> str:
        """The peak metric that scores this run: ``mean_last5`` for a run on
        one subject's trials, ``max_last5`` for a cross-subject run."""
        return "max_last5" if self.manifest["subject"] is None else "mean_last5"

    def peak(self, kind: str) -> float:
        return peak_metric(self.history, self.manifest["cycle_ends"], kind)


def _read_run(rd: Path) -> Run:
    records = []
    for fname, (parse, kinds) in _RUN_FILES.items():
        path = rd / fname
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                rows = parse(fh)
        except (OSError, ValueError, csv.Error) as exc:  # ValueError: bad JSON or UTF-8
            raise DataError(f"{path}: {exc}") from exc
        if not rows:
            raise DataError(f"{path} holds no records")
        for row in rows:
            check_fields(row, kinds, path)
        records.append(rows)
    (manifest,), history, predictions = records
    return Run(rd, manifest, history, predictions)


def collect_runs(run_dirs: list[str | Path]) -> list[Run]:
    """Read each run directory once; a missing or malformed file is a DataError."""
    if not run_dirs:
        raise DataError("no run directories given")
    return [_read_run(Path(rd)) for rd in run_dirs]


def _pair_label(subject: int | None, seed: int) -> str:
    return f"seed {seed}" if subject is None else f"subject {subject} seed {seed}"


def pair_by_seed(runs: list[Run]) -> tuple[list[str], dict[str, list[float]]] | None:
    """The (subject, seed) labels in order, and the headline peak metrics
    per ``arch-size`` cell in that order; or None when the runs do not pair:
    that needs runs of one kind, all cross-subject or all on one subject
    each (so one peak metric scores them all), and at least two cells that
    share one set of at least two (subject, seed) keys.  A cross-subject
    run has subject None, and its label names the seed alone.  Two runs of
    one cell, subject and seed are a DataError."""
    by_cell: dict[str, dict[tuple, Run]] = {}
    for run in runs:
        cell = "{arch}-{size}".format(**run.manifest)
        subject, seed = run.manifest["subject"], run.manifest["seed"]
        keys = by_cell.setdefault(cell, {})
        if (subject, seed) in keys:
            raise DataError(
                f"{keys[subject, seed].path} and {run.path} are both {cell} {_pair_label(subject, seed)}"
            )
        keys[subject, seed] = run
    key_sets = {frozenset(keys) for keys in by_cell.values()}
    mixed = len({run.headline for run in runs}) > 1
    if mixed or len(by_cell) < 2 or len(key_sets) != 1 or len(key_sets.pop()) < 2:
        return None
    order = sorted(next(iter(by_cell.values())))
    labels = [_pair_label(*k) for k in order]
    return labels, {
        cell: [keys[k].peak(keys[k].headline) for k in order] for cell, keys in by_cell.items()
    }


_PALETTE = ["#1b6ca8", "#c23b22", "#2e8540", "#8e44ad", "#d98e04", "#16777e", "#7f8c8d"]
SVG_WIDTH = 860
LINE_CHART_HEIGHT = 420
N_TICKS = 5


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (N_TICKS - 1) for i in range(N_TICKS)]


def svg_line_chart(
    series: dict[str, tuple[list[float], list[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Self-contained line chart; one polyline per named series."""
    width, height = SVG_WIDTH, LINE_CHART_HEIGHT
    ml, mr, mt, mb = 62, 160, 40, 48
    iw, ih = width - ml - mr, height - mt - mb
    all_x = [v for xs, _ in series.values() for v in xs]
    all_y = [v for _, ys in series.values() for v in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.05, y_hi + 0.05
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return ml + iw * (v - x_lo) / max(x_hi - x_lo, 1e-12)

    def sy(v):
        return mt + ih * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15">{escape(title)}</text>',
    ]
    for tv in _ticks(x_lo, x_hi):
        x = sx(tv)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ih}" x2="{x:.1f}" y2="{mt + ih + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{mt + ih + 20}" text-anchor="middle">{tv:.0f}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        y = sy(tv)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>')
        parts.append(
            f'<line x1="{ml}" y1="{y:.1f}" x2="{ml + iw}" y2="{y:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{ml - 9}" y="{y + 4:.1f}" text-anchor="end">{tv:.3f}</text>'
        )
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{iw}" height="{ih}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{ml + iw / 2:.1f}" y="{height - 10}" text-anchor="middle">{escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ih / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + ih / 2:.1f})">{escape(ylabel)}</text>'
    )
    for i, (name, (xs, ys)) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = mt + 14 + 16 * i
        lx = ml + iw + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 23}" y="{ly}">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def svg_bar_chart(names: list[str], values: list[float], title: str, xlabel: str) -> str:
    """Horizontal bar chart, one bar per name, in the order given; bars span 0 to 1."""
    width = SVG_WIDTH
    bar_h, gap = 16, 6
    ml, mr, mt, mb = 210, 70, 40, 40
    ih = len(names) * (bar_h + gap)
    height = mt + ih + mb
    iw = width - ml - mr
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="22" text-anchor="middle" font-size="15">{escape(title)}</text>',
    ]
    for i, (name, value) in enumerate(zip(names, values)):
        y = mt + i * (bar_h + gap)
        w = iw * max(min(value, 1.0), 0.0)
        parts.append(
            f'<rect x="{ml}" y="{y}" width="{w:.1f}" height="{bar_h}" fill="{_PALETTE[0]}"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{y + bar_h - 4}" text-anchor="end">{escape(name)}</text>'
        )
        parts.append(f'<text x="{ml + w + 5:.1f}" y="{y + bar_h - 4}">{value:.3f}</text>')
    parts.append(
        f'<text x="{ml + iw / 2:.1f}" y="{height - 12}" text-anchor="middle">{escape(xlabel)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(runs: list[Run], out_dir: str | Path) -> dict:
    """Write the report folder for runs read by ``collect_runs``.

    Writes metrics.csv (one row per run; its subject is empty for a
    cross-subject run), training_curves.csv/.svg,
    object_comparison.svg (per-object accuracy, best first),
    object_accuracy.csv and category_table.csv from the pooled
    prediction files.  Returns the written paths.
    """
    # a run's peak metric is the one read that can still fail: take it first,
    # so a DataError leaves no report folder
    metrics = [
        [
            run.name,
            # csv writes a cross-subject run's subject, None, as an empty cell
            *(run.manifest[k] for k in ("arch", "size", "subject", "seed")),
            f"{run.peak('max_last5'):.6f}",
            f"{run.peak('mean_last5'):.6f}",
            f"{run.history[-1]['test_acc']:.6f}",
        ]
        for run in runs
    ]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    paths["metrics"] = write_csv(
        out_dir / "metrics.csv",
        ["run", "arch", "size", "subject", "seed", "max_last5", "mean_last5", "final_test_acc"],
        metrics,
    )
    paths["curves"] = write_csv(
        out_dir / "training_curves.csv",
        ["run", "epoch", "lr", "train_loss", "test_loss", "test_acc"],
        [
            [
                run.name,
                row["epoch"],
                f"{row['lr']:.8f}",
                f"{row['train_loss']:.6f}",
                f"{row['test_loss']:.6f}",
                f"{row['test_acc']:.6f}",
            ]
            for run in runs
            for row in run.history
        ],
    )

    series = {
        run.name: ([r["epoch"] for r in run.history], [r["test_acc"] for r in run.history])
        for run in runs
    }
    svg_path = out_dir / "training_curves.svg"
    svg_path.write_text(
        svg_line_chart(series, "Test accuracy by epoch", "epoch", "test accuracy")
    )
    paths["curves_svg"] = svg_path

    objects = per_object_accuracy([r for run in runs for r in run.predictions])
    paths["objects"] = write_csv(
        out_dir / "object_accuracy.csv",
        ["concept_id", "concept_name", "category", "n_trials", "accuracy"],
        [[o.concept_id, o.concept_name, o.category, o.n_trials, f"{o.accuracy:.6f}"] for o in objects],
    )

    obj_svg = out_dir / "object_comparison.svg"
    obj_svg.write_text(
        svg_bar_chart(
            [o.concept_name for o in objects],
            [o.accuracy for o in objects],
            "Per-object decoding accuracy (best first)",
            "accuracy",
        )
    )
    paths["objects_svg"] = obj_svg

    paths["categories"] = write_csv(
        out_dir / "category_table.csv",
        ["category", "label", "n_objects", "n_trials", "mean_object_accuracy"],
        [
            [c.category, "" if c.label is None else c.label, c.n_objects, c.n_trials, f"{c.mean_accuracy:.6f}"]
            for c in category_table(objects)
        ],
    )
    return paths


def analyze(run_dirs: list[str | Path], out_dir: str | Path) -> list[str]:
    """Write the report folder (and comparison.txt when the runs pair);
    return the comparison text, if any, then one ``name: path`` line per file.
    The comparison ranks the runs by the one headline peak metric of their
    kind, and names it.
    Runs that cannot be read or paired raise before any file is written."""
    runs = collect_runs(run_dirs)
    pairing = pair_by_seed(runs)
    paths = emit_report(runs, out_dir)
    lines = []
    if pairing is not None:
        labels, metrics = pairing
        lines.append(f"peak metric: {runs[0].headline}\n" + compare_decoders(metrics, labels).format())
        (Path(out_dir) / "comparison.txt").write_text(lines[0] + "\n")
    return lines + [f"{name}: {p}" for name, p in sorted(paths.items())]
