"""The library needs numpy alone: `import dpsqkd.cli` and the four
subcommands leave scipy unloaded, and no library module imports it.
`import dpsqkd.cli` loads nothing beyond numpy and the standard modules the
library imports at module level, which keeps the CLI's start-up short."""

import ast
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs in a fresh interpreter, so no test module has imported scipy yet
SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import dpsqkd.cli
report = {"after_import": scipy_modules(), "status": []}
for argv in (["verify-povm", "--cutoff", "3", "--json"],
             ["simulate", "--bins", "100000", "--eve-fraction", "1"],
             ["eb-compare", "--key-bins", "3", "--trials", "1000", "--seed", "1"],
             ["witness-demo"]):
    with contextlib.redirect_stdout(io.StringIO()):
        report["status"].append(dpsqkd.cli.main(argv))
report["after_runs"] = scipy_modules()
print(json.dumps(report))
"""


def test_cli_runs_without_scipy():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["status"] == [0, 0, 0, 0]
    assert report["after_runs"] == []


# the module-level imports of the library; a fresh interpreter loads them
# first, so that the modules `import dpsqkd.cli` adds must all be its own
IMPORT_SCRIPT = """
import __future__, json, sys
import argparse, cmath, dataclasses, itertools, math, numbers, os, pathlib
import typing, warnings
import numpy
before = set(sys.modules)
import dpsqkd.cli
print(json.dumps({"added": sorted(set(sys.modules) - before),
                  "futures": "concurrent.futures" in sys.modules}))
"""


def test_cli_import_loads_nothing_else():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["added"]
    assert [m for m in report["added"] if m.split(".")[0] != "dpsqkd"] == []
    assert report["futures"] is False


def test_library_needs_numpy_alone():
    # the runtime dependencies are numpy alone, and no library module
    # imports scipy at any depth (a function-local import included)
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert [re.split(r"[\s<>=!~;\[]", d)[0] for d in deps] == ["numpy"]
    modules = sorted((ROOT / "src" / "dpsqkd").rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), \
                f"{path.name}:{node.lineno} imports scipy"
