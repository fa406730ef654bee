"""The README's printed outputs are replayed, so they cannot go stale.

The quick start's commands run on the bundled ``configs/lqr.json`` and every
line they print, the ``curves.csv`` block and the counts the prose quotes
from ``run.json`` must equal the README's.  The "Using the library" block
runs as written and must print its closing comment.
"""

import contextlib
import io
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from vfcontrol.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(title: str) -> str:
    """The README text under ``## title``, up to the next heading of that level."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## )", README, re.S | re.M)
    assert match, title
    return match.group(1)


def fenced(text: str, lang: str = "") -> list[str]:
    """The bodies of the fenced blocks in ``text`` whose info string is ``lang``."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.S | re.M)
    return [body for info, body in blocks if info == lang]


def quick_start_commands():
    """(argv, printed line) per ``$ vfcontrol`` command of the quick start."""
    lines = fenced(section("Quick start"), "sh")[0].splitlines()
    return [
        (shlex.split(line)[2:], lines[i + 1])
        for i, line in enumerate(lines)
        if line.startswith("$ vfcontrol ")
    ]


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """Every quick-start command run in a fresh directory, with what it printed."""
    out = tmp_path_factory.mktemp("quick_start")
    printed = []
    here = os.getcwd()
    os.chdir(out)
    try:
        for argv, _ in quick_start_commands():
            argv = [str(ROOT / arg) if arg.startswith("configs/") else arg for arg in argv]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0, argv
            printed.append(stdout.getvalue().strip())
    finally:
        os.chdir(here)
    return out, printed


def test_the_quick_start_prints_what_the_readme_shows(quick_start):
    _, printed = quick_start
    commands = quick_start_commands()
    assert [argv[0] for argv, _ in commands] == ["explore", "fit", "fit", "cv", "evaluate", "simulate"]
    assert printed == [line for _, line in commands]


def test_the_readme_curves_are_the_evaluate_output(quick_start):
    out, _ = quick_start
    (block,) = [b for b in fenced(section("Quick start")) if b.startswith("n_centers,")]
    assert (out / "curves.csv").read_text() == block


def test_the_readme_run_counts_are_the_simulate_output(quick_start):
    out, _ = quick_start
    run = json.loads((out / "run.json").read_text())
    for key in ("rhs_evaluations", "jacobian_evaluations"):
        (quoted,) = re.findall(rf'`"{key}": (\d+)`', section("Quick start"))
        assert run[key] == int(quoted), key


def test_the_library_example_prints_what_the_readme_shows():
    (code,) = fenced(section("Using the library"), "python")
    expected = re.search(r"^# (.*)$", code, re.M).group(1)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert stdout.getvalue().strip() == expected
