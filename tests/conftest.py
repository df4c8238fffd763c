"""Shared test plumbing: a visible one-line verdict per acceptance criterion,
and the one way a test runs the command line in its own process."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import handgest

SRC = Path(__file__).resolve().parent.parent / "src"

_CRITERION_LINES = []


@pytest.fixture(scope="session")
def criterion():
    """Record a pass/fail line for one acceptance criterion.

    Usage: criterion(4, ok, "recall >= 95% ..."). The line is printed
    immediately and repeated in the terminal summary, so the verdicts
    survive pytest's output capture.
    """
    def record(number, ok, detail):
        line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        _CRITERION_LINES.append((str(number), line))
        print(line)
    return record


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    # numbers are "1".."9" plus "5a".."5c"; string order is the report order
    for _, line in sorted(_CRITERION_LINES):
        terminalreporter.write_line(line)


def handgest_command():
    """(argv prefix, environment) that run the command line of the package
    the tests import.

    A package imported from this checkout's src/ (PYTHONPATH=src) runs as
    ``python -m handgest.cli`` with src/ first on PYTHONPATH as an absolute
    path, so a run in any working directory imports the same code. An
    installed package runs as the ``handgest`` console script on PATH, and
    a missing script fails the test rather than skipping it.
    """
    root = Path(handgest.__file__).resolve().parent.parent
    if root == SRC:
        path = os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))
        return [sys.executable, "-m", "handgest.cli"], {**os.environ, "PYTHONPATH": path}
    script = shutil.which("handgest")
    if script is None:
        pytest.fail(f"handgest is imported from {root}, not from {SRC}, "
                    f"and no handgest console script is on PATH")
    return [script], dict(os.environ)


def run_handgest(*argv, cwd=None):
    """The command line run with ``argv`` in its own process, in ``cwd``:
    a CompletedProcess holding its exit code and its text stdout and stderr."""
    command, env = handgest_command()
    return subprocess.run([*command, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
