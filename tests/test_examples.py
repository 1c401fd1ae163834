"""Every script in ``examples/`` runs to completion against the checkout."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", ["quickstart", "disaster_relief_broadcast", "hybrid_upgrade", "sensor_network_3d"]
)
def test_example_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=env,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
