"""The benchmark harness, run as a whole against the library in this checkout."""

from __future__ import annotations

import ast
import importlib
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


def _traced_names() -> dict[str, list[tuple]]:
    """``FUNCTIONS`` and ``METHODS`` of ``bench/tracer.py``, read as literals
    so the bench is neither imported nor written to."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "METHODS")
    }


def test_tracer_names_the_library_lacks_are_pinned():
    """The tracer skips a name the library no longer has, and every metric
    built on it then reads 0. Pinning the skipped names makes a change that
    drops a traced name list it here instead of zeroing a metric unseen."""
    traced = _traced_names()
    missing = [
        f"{layer}.{attr}"
        for layer, attr, _ in traced["FUNCTIONS"]
        if getattr(importlib.import_module(f"ultraherz.{layer}"), attr, None) is None
    ]
    for layer, cls_name, attr, _ in traced["METHODS"]:
        cls = getattr(importlib.import_module(f"ultraherz.{layer}"), cls_name, None)
        if cls is None or vars(cls).get(attr) is None:
            missing.append(f"{layer}.{cls_name}.{attr}")
    assert missing == [
        "harness.check_lemmas",
        "operators.maximal",
        "operators.shell_diagonal",
        "radial.check_regularity",
        "radial.exponent_at",
        "padic.sample_uniform",
        "padic.padic_valuation",
        "padic.fraction_valuation",
        "padic.vector_norm",
        "radial.RadialStepFunction.value_at",
        "padic.PadicPoint.shell",
    ]
