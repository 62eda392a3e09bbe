"""The test tooling itself: a failing property test fails alone, and the
mutation gate's table names lines that are there."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n\n\n"
        "@given(st.integers())\n"
        "def test_passes(n):\n"
        "    assert n == n\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_each_mutant_line_is_found_once():
    # tests/mutants.py refuses a mutant whose line is not found exactly once, but it
    # runs outside tier-1: a refactor that moves a mutated line should fail here first
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    found = {m.name: len(gate._lines(ROOT, m)[2]) for m in gate.MUTANTS}
    assert len(found) == len(gate.MUTANTS) >= 21  # no two mutants share a name
    assert {name: hits for name, hits in found.items() if hits != 1} == {}
