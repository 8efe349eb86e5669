"""Line reach of ``src/ultraherz``: which executable lines a test run never runs.

A pytest plugin built on ``sys.settrace`` alone (no coverage package needed).
Load it explicitly; the plain test run does not::

    PYTHONPATH=src:tests python -m pytest -q -p linereach

At the end of the run it prints ``unreached: N`` and one ``file:line`` per
executable line of the package that no test ran in the pytest process. Lines
that run only in a subprocess (``python -m ultraherz``) are counted as
unreached. A line is executable when the compiler attributes bytecode to it,
so a function's ``def`` line counts as reached once its module is imported.
An unreached line outside ``__main__.py``, which runs only in a subprocess,
fails a run whose tests passed: it exits with status 1.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ultraherz"


def executable_lines(path: Path) -> set[int]:
    """Every line the compiler attributes bytecode to, in every code object."""
    code = compile(path.read_text(), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineReach:
    """Record the lines run in the ``.py`` files under ``root``."""

    def __init__(self, root: Path):
        self.root = Path(root).resolve()
        self.hits: dict[str, set[int]] = {}
        self._inside: dict[str, bool] = {}
        # id(code) -> (its lines not yet run, its file's hits, code); the code
        # object is held so that its id stays its own, and once none of its
        # lines is left to run, its frames are no longer traced
        self._remaining: dict = {}
        self._previous = None

    def _wanted(self, filename: str) -> bool:
        inside = self._inside.get(filename)
        if inside is None:
            path = Path(os.path.realpath(filename))
            inside = path.suffix == ".py" and self.root in path.parents
            self._inside[filename] = inside
        return inside

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not self._wanted(code.co_filename):
            return None
        state = self._remaining.get(id(code))
        if state is None:
            seen = self.hits.setdefault(os.path.realpath(code.co_filename), set())
            remaining = {line for _, _, line in code.co_lines() if line} - seen
            state = self._remaining[id(code)] = (remaining, seen, code)
        remaining, seen, _ = state
        if not remaining:
            return None
        seen.add(frame.f_lineno)
        remaining.discard(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                if line in remaining:
                    remaining.discard(line)
                    seen.add(line)
                    if not remaining:
                        frame.f_trace_lines = False
            return local

        return local

    def start(self) -> None:
        self._previous = sys.gettrace()
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(self._previous)
        threading.settrace(self._previous)

    def unreached(self) -> list[str]:
        """``file:line`` for each executable line never run, relative to root."""
        missed = []
        for path in sorted(self.root.rglob("*.py")):
            seen = self.hits.get(str(path), set())
            name = path.relative_to(self.root).as_posix()
            missed.extend(f"{name}:{line}" for line in sorted(executable_lines(path) - seen))
        return missed


def blocking(missed: list[str]) -> list[str]:
    """The entries of ``missed`` that fail the run: all but ``__main__.py``'s."""
    return [entry for entry in missed if not entry.startswith("__main__.py:")]


_REACH = pytest.StashKey[LineReach]()
_MISSED = pytest.StashKey[list]()


def pytest_configure(config):
    reach = config.stash[_REACH] = LineReach(PACKAGE)
    reach.start()


def pytest_sessionfinish(session):
    reach = session.config.stash[_REACH]
    reach.stop()
    missed = session.config.stash[_MISSED] = reach.unreached()
    if blocking(missed) and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    missed = config.stash[_MISSED]
    terminalreporter.write_sep("-", "line reach of src/ultraherz")
    terminalreporter.write_line(f"unreached: {len(missed)}")
    for entry in missed:
        terminalreporter.write_line(entry)
