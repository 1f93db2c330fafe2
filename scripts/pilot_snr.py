"""Signal-to-noise sweep behind the frozen DEFAULT_SNR values.

Run from the repo root:

    python3 scripts/pilot_snr.py [--quick]

For each generator mode this sweeps the SNR over a grid and reports
what the two sides of the benchmark see: the covariance baseline
(CSP + LDA) and a small trained decoder.  A decoder is scored as every
run is, by its headline peak metric (``Run.peak(Run.headline)``, read
from the mean test accuracy of the last five epochs of each restart
cycle), not by its best single epoch picked on the test split.  The
defaults in ``neurodecode.data.DEFAULT_SNR`` were frozen from this sweep:

    linear            1.2   CSP+LDA 1.000 at every snr >= 0.2 tested
                            (seeds 0..2, n=2000); 1.2 leaves the
                            decoders a comfortable but non-trivial task
    xor               1.5   CSP+LDA inside the chance band
                            [0.47, 0.53] at seeds 0..4 with n=4000;
                            eegnet-small reaches 1.000 test accuracy
                            by epoch 2
    subject_signature 1.2   eegnet-small separates 4 subjects with
                            high accuracy inside one cosine cycle

The sweep retrains tiny models, so the full run takes some minutes;
``--quick`` trims the grid and the epochs.
"""

from __future__ import annotations

import argparse
import time

from neurodecode import baseline, data, training


def csp_accuracy(mode: str, snr: float, n_trials: int, seed: int) -> float:
    cfg = data.SynthConfig(mode=mode, n_trials=n_trials, snr=snr, seed=seed)
    return baseline.baseline(data.synthesize(cfg))["test_acc"]


def decoder_accuracy(mode: str, snr: float, n_trials: int, seed: int, epochs_n: int) -> float:
    cfg = data.SynthConfig(mode=mode, n_trials=n_trials, snr=snr, seed=seed)
    cfg_t = training.TrainConfig(epochs=epochs_n, seed=seed)
    run = training.fit("eegnet", "small", data.synthesize(cfg), cfg_t)
    return run.peak(run.headline)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="small grid, short training")
    args = ap.parse_args()

    snrs = [0.5, 1.0, 1.5] if args.quick else [0.2, 0.5, 0.8, 1.2, 1.5, 2.0]
    seeds = [0] if args.quick else [0, 1, 2]
    train_epochs = 4 if args.quick else 8

    print("== CSP + LDA (baseline view) ==")
    for mode in ("linear", "xor"):
        n = 4000 if mode == "xor" else 2000
        for snr in snrs:
            accs = [csp_accuracy(mode, snr, n, s) for s in seeds]
            mark = ""
            if mode == "xor":
                mark = " chance-band " + "".join(
                    "Y" if 0.47 <= a <= 0.53 else "n" for a in accs
                )
            print(f"  {mode:<18} snr {snr:<4} n={n}: " + " ".join(f"{a:.4f}" for a in accs) + mark)

    print("== eegnet-small (decoder view) ==")
    for mode in ("linear", "xor", "subject_signature"):
        n = 4000 if mode == "xor" else 2000
        for snr in snrs:
            t0 = time.time()
            accs = [decoder_accuracy(mode, snr, n, s, train_epochs) for s in seeds[:1]]
            print(
                f"  {mode:<18} snr {snr:<4} n={n}: headline peak acc {accs[0]:.4f}"
                f" [{time.time() - t0:.0f}s]"
            )

    print("frozen defaults:", data.DEFAULT_SNR)


if __name__ == "__main__":
    main()
