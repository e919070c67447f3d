"""The demos still run, and every exported name still exists.

Each `demos/*.py` script runs in its own interpreter against `src/`, so a
renamed or removed function breaks this suite rather than the walkthroughs.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import gssc

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    missing = [name for name in gssc.__all__ if not hasattr(gssc, name)]
    assert missing == []
    assert len(set(gssc.__all__)) == len(gssc.__all__)
