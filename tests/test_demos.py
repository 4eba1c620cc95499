"""The README's examples give the output they show, and each narrative
demo runs to completion with its own asserts active."""

import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import dehnkit
from dehnkit.cli import main

SRC = Path(dehnkit.__file__).resolve().parents[1]
ROOT = SRC.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
# (command, output) of each "$ dehnkit ..." line, its output running to
# the next "$ " line or closing fence
SHELL = re.findall(r"^\$ (dehnkit .*)\n((?:(?!\$ |```).*\n)*)", README, re.M)


def test_demos_are_found():
    assert DEMOS and len(SHELL) == 3


def test_readme_quick_start():
    # only the bodies of the python blocks: over the whole file, doctest
    # would read a closing fence as expected output
    text = "".join(PYTHON_BLOCKS)
    test = doctest.DocTestParser().get_doctest(text, {}, "README", None, 0)
    report = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert attempted and not failed, "".join(report)


@pytest.mark.parametrize("command, output", SHELL, ids=[c for c, _ in SHELL])
def test_readme_shell_example(command, output, capsys):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == output


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
