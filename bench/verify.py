"""Output checks and the ledger that counts attempted and failed operations.

An operation is a library call the workload makes (a ``train`` call, an
evaluate or predict call, a pipeline run, a CSP fit, a gradient-check op
case or cell) or a check on an output.  A failure is recorded with its
reason and counted; it never propagates out of the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import traceback
from pathlib import Path


class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def call(self, what: str, fn, *args, **kwargs):
        """Run one library operation; on an exception count it and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures.append(f"{what}: raised")
            print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


def report_passed(report) -> bool:
    """The gradient gate: ``passed`` holds and the forward was deterministic.

    ``GradCheckReport.passed`` is a method today and may become a
    property; a bound method is always truthy, so it must be called.
    """
    passed = report.passed
    if callable(passed):
        passed = passed()
    return bool(passed) and bool(report.deterministic)


def history_finite(path: Path) -> bool:
    """Every numeric field of every ``history.jsonl`` row is finite."""
    try:
        rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    except (OSError, ValueError):
        return False
    values = [v for row in rows for v in row.values() if v is not None]
    return bool(rows) and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def run_dir_digests(run_dir: Path) -> dict[str, str]:
    """sha256 of the run's deterministic artifacts."""
    out = {}
    for name in ("history.jsonl", "predictions.csv"):
        path = run_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return out


def chance_band(n_test: int) -> tuple[float, float]:
    """Accuracy range of a coin-flip classifier, four standard errors wide."""
    half = 4.0 * math.sqrt(0.25 / n_test)
    return 0.5 - half, 0.5 + half
