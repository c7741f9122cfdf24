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


def test_only_the_positioned_stream_helper_moves_a_pcg64():
    # a jump in the random stream must carry its buffered 32-bit half-word,
    # so every ``advance`` and every PCG64 built stays in one helper
    helpers = 0
    for path in sorted((ROOT / "src" / "dpsqkd").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        for node in tree.body:
            if path.name == "protocol.py" and \
                    getattr(node, "name", None) == "_positioned_rng":
                inside = {id(n) for n in ast.walk(node)}
                helpers += 1
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if name in ("advance", "PCG64"):
                assert id(node) in inside, \
                    f"{path.name}:{node.lineno} uses {name} outside " \
                    f"protocol._positioned_rng"
    assert helpers == 1


def test_one_table_and_one_sampler_make_every_click():
    # amplitudes become click probabilities only in the pair table, and
    # clicks are drawn only by the positioned sampler; the whole-train
    # routes they replaced stay gone, as do the detector's own sampler, the
    # mode registry and the fock module, since click-pattern ids number the
    # projector diagonals
    owners = {"propagate": "_pair_table", "click_probabilities": "_pair_table",
              "sample": "_sample_pairs"}
    helpers = set()
    for path in sorted((ROOT / "src" / "dpsqkd").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = {}
        for node in tree.body:
            name = getattr(node, "name", None)
            if path.name == "protocol.py" and name in owners.values():
                inside[name] = {id(n) for n in ast.walk(node)}
                helpers.add(name)
        for node in ast.walk(tree):
            # every part of a dotted name, so `import dpsqkd.fock` counts
            names = {getattr(t, "id", None)
                     for t in getattr(node, "targets", ())} | {
                part for attr in ("name", "module")
                for part in (getattr(node, attr, None) or "").split(".")}
            assert not {"_click_table", "_ChunkDraws", "PulseTrain",
                        "ModeRegistry", "fock", "sample"} & names, \
                f"{path.name} defines or imports one of {names}"
            if isinstance(node, ast.alias):
                assert node.name not in owners or node.asname in (
                    None, node.name), f"{path.name} renames {node.name}"
            ref = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if ref in owners:
                assert id(node) in inside.get(owners[ref], ()), \
                    f"{path.name}:{node.lineno} uses {ref} outside " \
                    f"protocol.{owners[ref]}"
    assert helpers == {"_pair_table", "_sample_pairs"}
