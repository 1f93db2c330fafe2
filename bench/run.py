"""neurodecode benchmark: one named workload per invocation.

    python3 bench/run.py --workload xor-conv --seed 0 --seconds 12 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in its own single process with the BLAS
thread count pinned to the number of usable cores, as a closed loop with
one caller.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics
and the tracing overhead.  Readable lines come first; the last line of
standard output is the JSON result.  See ``bench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("raw-to-csp", "gradcheck", "xor-tape", "xor-conv")
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "pass_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the library sources, for telling builds apart without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env.update({var: str(self.nproc) for var in BLAS_THREAD_VARS})
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])

    def spawn(self, role: str, seconds: float) -> dict:
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(seconds), "--role", role,
               "--workdir", str(self.workdir)]
        if role == "trace":
            cmd += ["--spans", str(ROOT / ".bench_out" / f"spans-{a.workload}-seed{a.seed}.npz")]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, self.deadline - started))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"{role} worker exited with code {proc.returncode}")
        report = json.loads(lines[-1])
        report["setup_s"] = report["setup_end"] - started
        return report

    def environment(self, report: dict) -> dict:
        return {**report["environment"], "nproc": self.nproc, "seed": self.args.seed,
                "git_revision": git_revision(), "source_sha256": source_digest()}


def stage_rate(passes: list[dict], stage: str) -> float:
    """Median over passes of the stage's items per second."""
    rates = [p["stages"][stage][0] / p["stages"][stage][1]
             for p in passes if p["stages"].get(stage, [0, 0])[1] > 0]
    return statistics.median(rates) if rates else 0.0


def digest_mismatches(first: dict, second: dict) -> tuple[int, list[str]]:
    """Compare the run-dir digests two runs of one workload and seed wrote."""
    cells = sorted(set(first) | set(second))
    return len(cells), [f"{cell}: repeat with the same seed is not byte-identical"
                        for cell in cells if first.get(cell) != second.get(cell)]


def untraced(runner: Runner) -> tuple[dict, dict, list[dict]]:
    setup = [runner.spawn("setup", 0)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = runner.spawn("run", runner.args.seconds)
    setup.append(main["setup_s"])
    passes = main["passes"]
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": stage_rate(passes, main["work_stage"]),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    named = {"setup_s": (metrics["setup_s"], "s")}
    for name, stage in main["rates"].items():
        named[name] = (stage_rate(passes, stage), "items/s")
    named["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    result = {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}
    return result, named, [main]


def traced(runner: Runner) -> tuple[dict, dict, list[dict]]:
    """One untraced and one traced pass; their artifacts must match byte for byte."""
    plain = runner.spawn("run", 0)
    traced_ = runner.spawn("trace", 0)
    overhead = 100.0 * (traced_["passes"][0]["pass_s"] / plain["passes"][0]["pass_s"] - 1.0)
    result = dict(traced_["per_layer"])
    result["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    named = {name: (m["value"], m["unit"]) for name, m in result.items() if m["value"]}
    checked, failures = digest_mismatches(plain["details"].get("digests", {}),
                                          traced_["details"].get("digests", {}))
    repeat = {"attempted": checked, "failures": failures}
    return result, named, [plain, repeat, traced_]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "neurodecode" / "__init__.py").is_file():
        print(f"error: no neurodecode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args)
    try:
        metrics, named, reports = (traced if args.trace else untraced)(runner)
    except (WorkerFailed, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {args.workload}: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    named["fail_fraction"] = (len(failures) / attempted, "ratio")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(reports[-1]['passes'])}  attempted {attempted}  failed {len(failures)}")
    for name, (value, unit) in named.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print("environment " + json.dumps(runner.environment(reports[-1]), sort_keys=True))
    print("details " + json.dumps(reports[-1]["details"], sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
