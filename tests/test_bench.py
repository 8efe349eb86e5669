"""The benchmark harness, run as a whole against the library in this checkout."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_check_passes():
    """``bench/run.py --self-check`` runs tiny passes of every workload and
    checks each output against the benchmark's own reference, which imports
    nothing from the library. A library change that breaks those checks
    fails here, not only when the benchmark is run."""
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "self-check passed" in result.stdout
