"""Every demo script runs to completion and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfisher

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # the child imports the same qfisher as this test, however pytest was started
    env = dict(os.environ)
    package_root = str(Path(qfisher.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
