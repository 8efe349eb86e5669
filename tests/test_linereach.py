"""The line-reach plugin: its collector, run on a throwaway module, and its
exit status, from a pytest run that leaves the package's lines unreached."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from linereach import LineReach, blocking

TESTS = Path(__file__).resolve().parent

SOURCE = """\
def sign(x):
    if x < 0:
        return -1
    return 1
"""


def test_line_reach_reports_exactly_the_line_left_unrun(tmp_path):
    (tmp_path / "tiny.py").write_text(SOURCE)
    reach = LineReach(tmp_path)
    reach.start()
    try:
        spec = importlib.util.spec_from_file_location("tiny", tmp_path / "tiny.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sign(2) == 1
    finally:
        reach.stop()
    assert reach.unreached() == ["tiny.py:3"]


def test_only_lines_of_main_may_stay_unreached():
    missed = ["__main__.py:1", "__main__.py:6", "radial.py:40", "cli.py:2"]
    assert blocking(missed) == ["radial.py:40", "cli.py:2"]
    assert blocking(missed[:2]) == []


def test_a_passing_run_that_leaves_a_line_unreached_exits_one(tmp_path):
    """One passing test that imports the package leaves most of its lines
    unreached, so the run fails and says why."""
    (tmp_path / "test_one.py").write_text("import ultraherz\n\ndef test_one():\n    pass\n")
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "linereach", "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert "1 passed" in result.stdout
    assert "radial.py:" in result.stdout.split("unreached: ")[1]
    assert result.returncode == 1
