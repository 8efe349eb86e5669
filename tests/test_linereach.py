"""The line-reach plugin's collector, run on a throwaway module."""

from __future__ import annotations

import importlib.util

from linereach import LineReach

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
