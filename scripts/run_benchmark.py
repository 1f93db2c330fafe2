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

from neurodecode import analysis, baseline, data, models, training


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

    datasets = {
        mode: data.synthesize(data.SynthConfig(mode=mode, n_trials=args.n_trials, seed=0))
        for mode in ("linear", "xor")
    }

    print("== CSP + LDA baseline ==")
    base_report = {}
    for mode, epochs in datasets.items():
        base_report[mode] = baseline.baseline(epochs)
        print(f"  {mode:<8} train {base_report[mode]['train_acc']:.4f} "
              f"test {base_report[mode]['test_acc']:.4f}")
    (out / "baseline.json").write_text(json.dumps(base_report, indent=2, sort_keys=True) + "\n")

    print("== decoders on xor ==")
    run_dirs = []
    for arch in args.archs:
        for seed in range(args.seeds):
            run_dir = out / f"{arch}-s{seed}"
            cfg_t = training.TrainConfig(epochs=args.epochs, seed=seed)
            run = training.fit(arch, "small", datasets["xor"], cfg_t, run_dir=run_dir)
            print(f"  {arch}-small seed {seed}: peak {run.peak(run.headline):.4f} -> {run_dir}")
            run_dirs.append(str(run_dir))

    print("== report ==")
    print("\n".join(analysis.analyze(run_dirs, out / "report")))


if __name__ == "__main__":
    main()
