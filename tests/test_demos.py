"""Smoke runs of the narrative scripts under demos/: each exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    ["classical_bound.py", "concentration_comparison.py", "exact_probabilities.py",
     "optimal_angles.py", "play_one_round.py", "theory_curves.py"],
)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # theory_curves.py writes curves.csv into its working directory
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
