"""Checks that must survive python -O, which strips every assert.

Each test starts a fresh interpreter with -O, so library code runs
without its asserts; the test's own asserts stay in this process.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import dehnkit

SRC = Path(dehnkit.__file__).resolve().parents[1]
ROOT = SRC.parent


def run_optimized(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-O", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_family_schubert_rejects_a_wrong_closed_form():
    proc = run_optimized("-c", """
import dehnkit.twobridge as tb
tb.family_polynomials = lambda n: (1, 0)
try:
    print(tb.family_schubert(3))
except RuntimeError as exc:
    print("RuntimeError:", exc)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("RuntimeError: n = 3:"), proc.stdout
    assert "11/40" in proc.stdout and "0/1" in proc.stdout


def test_acceptance_suite_passes_without_library_asserts():
    # pytest warns that -O strips asserts, which is the point here; the
    # project's filterwarnings = error would make that warning fatal
    proc = run_optimized(
        "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "-W", "ignore:assertions not in test modules:pytest.PytestConfigWarning",
        str(ROOT / "tests" / "test_acceptance.py"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(dehnkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(dehnkit.__all__) == sorted(public)


def test_library_has_no_assert_statements():
    # python -O strips asserts, so checks must be real code
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "dehnkit").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
