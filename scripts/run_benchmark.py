"""End-to-end desk-scale benchmark run.

Generates the two headline synthetic tasks, runs the covariance
baseline on both, trains two decoder architectures on the nonlinear
task across seeds, and aggregates everything into a report directory:

    python3 scripts/run_benchmark.py --out runs/bench [--seeds 3]
                                     [--archs eegnet dgcnn] [--epochs 15]

The expected picture mirrors the headline finding: on the xor task the
linear baseline sits at chance while the trained decoders separate the
classes; on the linear task the baseline is essentially perfect.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from neurodecode import analysis, baseline, data, models, training


def run_baseline(epochs: data.EpochSet) -> dict:
    tr, te = epochs.split_view("train"), epochs.split_view("test")
    model = baseline.fit_csp_lda(tr.tensor, tr.labels)
    return {
        "train_acc": float(np.mean(model.predict(tr.tensor) == tr.labels)),
        "test_acc": float(np.mean(model.predict(te.tensor) == te.labels)),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="runs/bench")
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--archs", nargs="+", default=["eegnet", "dgcnn"],
                    choices=list(models.ARCHITECTURES))
    ap.add_argument("--epochs", type=int, default=15)
    ap.add_argument("--n-trials", type=int, default=4000)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    datasets = {}
    for mode in ("linear", "xor"):
        cfg = data.SynthConfig(mode=mode, n_trials=args.n_trials, seed=0)
        datasets[mode] = data.split(data.generate_synthetic(cfg), 0.2, 0)

    print("== CSP + LDA baseline ==")
    base_report = {}
    for mode, epochs in datasets.items():
        base_report[mode] = run_baseline(epochs)
        print(f"  {mode:<8} train {base_report[mode]['train_acc']:.4f} "
              f"test {base_report[mode]['test_acc']:.4f}")
    (out / "baseline.json").write_text(json.dumps(base_report, indent=2, sort_keys=True) + "\n")

    print("== decoders on xor ==")
    run_dirs = []
    for arch in args.archs:
        for seed in range(args.seeds):
            run_dir = out / f"{arch}-s{seed}"
            model = models.build_model(arch, "small", seed=seed)
            cfg_t = training.TrainConfig(epochs=args.epochs, seed=seed)
            result = training.train(model, datasets["xor"], cfg_t, run_dir=run_dir)
            peak = analysis.peak_metric(result.history(), result.cycle_ends, "max_last5")
            print(f"  {arch}-small seed {seed}: peak {peak.value:.4f} -> {run_dir}")
            run_dirs.append(str(run_dir))

    print("== report ==")
    runs = analysis.collect_runs(run_dirs)
    paths = analysis.emit_report(runs, out / "report")
    text = analysis.write_comparison(runs, out / "report", "max_last5")
    if text is not None:
        print(text)
    for name, p in sorted(paths.items()):
        print(f"  {name}: {p}")


if __name__ == "__main__":
    main()
