"""The repository's stdlib tools and test settings."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "dpsqkd"


def test_src_lines_split_sums_to_wc_l():
    # each module's code, docstring, comment and blank lines add up to its
    # `wc -l`, and the total row to the sum over the modules
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "src_lines.py")],
                         capture_output=True, text=True, check=True)
    header, *rows = [line.split() for line in run.stdout.splitlines()]
    assert header == ["module", "lines", "code", "docstring", "comment",
                      "blank"]
    table = {name: list(map(int, counts)) for name, *counts in rows}
    modules = sorted(p.name for p in SOURCE.glob("*.py"))
    assert list(table) == modules + ["total"]
    for name in modules:
        lines, *split = table[name]
        assert lines == (SOURCE / name).read_bytes().count(b"\n"), name
        assert sum(split) == lines, name
    assert table["total"] == [sum(table[m][k] for m in modules)
                              for k in range(5)]
    assert table["total"][2] > 0          # docstrings are told from code


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_reports_its_example(tmp_path):
    # under the repository's warning filters, a failing hypothesis test
    # prints its falsifying example instead of stopping the run with an
    # INTERNALERROR; the run writes only into tmp_path
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(tmp_path / "test_property.py")],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
