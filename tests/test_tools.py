"""The repository's stdlib tools."""

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
