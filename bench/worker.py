"""Run one workload in this process and print its report as one JSON line.

Started by ``run.py``, which pins the BLAS thread count in the
environment before this process imports numpy.  Roles:

``setup``  set up and exit; the parent times process start to set-up end
``run``    set up, then run ``--seconds // pass_seconds`` passes, at
           least one (``--seconds 0`` runs one)
``trace``  as ``run``, with the span tracer wrapped around the library
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import uuid
from pathlib import Path

import numpy as np
import scipy

import neurodecode
from tracer import PER_LAYER, Tracer, derive
from verify import Ledger
from workloads import WORKLOADS, Pass


def environment() -> dict:
    """Library build facts; run.py adds the seed, nproc and git revision."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, ledger: Ledger, seconds: float) -> tuple[list[dict], float]:
    """The run's passes, and the peak memory of set-up plus the first pass.

    Later passes only add heap fragmentation, which varies with the seed
    by up to 8% on raw-to-csp, so the memory figure stops at pass one.
    """
    passes = []
    for _ in range(max(1, int(seconds // workload.pass_seconds))):
        p = Pass(ledger)
        t0 = time.perf_counter()
        workload.run_pass(p)
        passes.append({"pass_s": time.perf_counter() - t0, "stages": p.stages})
        if len(passes) == 1:
            first_pass_rss = peak_rss_mb()
    return passes, first_pass_rss


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where the trace role writes its spans")
    args = ap.parse_args()

    tracer = None
    if args.role == "trace":
        tracer = Tracer(run_id=uuid.uuid4().hex)
        tracer.install(neurodecode)
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    report: dict = {"setup_end": time.monotonic()}
    if args.role != "setup":
        ledger = Ledger()
        report["passes"], rss = run_passes(workload, ledger, args.seconds)
        report.update(
            work_stage=workload.work_stage,
            rates=workload.rates,
            attempted=ledger.attempted,
            failures=ledger.failures,
            details=workload.details(),
            environment=environment(),
            peak_rss_mb=rss,
        )
    if tracer is not None:
        tracer.restore()
        spans = tracer.table()
        if args.spans is not None:
            spans.save(args.spans)
        derived = derive(spans)
        report["per_layer"] = {
            name: {"value": derived[name], "unit": unit}
            for name, unit, _ in PER_LAYER if name != "trace.overhead_pct"
        }
        report["run_id"] = spans.run_id
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
