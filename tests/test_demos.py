"""Every demo script runs to completion; the two deterministic demos that
walk through the analytic route print the same bytes as before they moved
from the whole-train wrappers to ``optics.propagate``."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))

#: sha256 of the stdout of demos that print the same bytes on every run
PINNED_STDOUT = {
    "demo_interferometer":
        "abd8bfb15b476b8b1e45ec12b35a1debbeb2b3f1edfda4d4eeef6b53a9d6c7cf",
    "demo_protocol_session":
        "f50b52c9dbee75dc1a673e028a43b1d004f679838eaee5b214158a4eff3395ec",
}


def _run(demo, cwd):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("stem", sorted(PINNED_STDOUT))
def test_demo_prints_the_pinned_bytes(stem, tmp_path):
    proc = _run(ROOT / "demos" / f"{stem}.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == PINNED_STDOUT[stem], proc.stdout
