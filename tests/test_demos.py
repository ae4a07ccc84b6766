"""Smoke runs of the narrative scripts under demos/: each exits 0."""

import pytest

from golden_cli import ROOT, run_python


@pytest.mark.parametrize(
    "script",
    ["classical_bound.py", "concentration_comparison.py", "exact_probabilities.py",
     "optimal_angles.py", "play_one_round.py", "theory_curves.py"],
)
def test_demo_runs(script, tmp_path):
    # theory_curves.py writes curves.csv into its working directory
    proc = run_python(str(ROOT / "demos" / script), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
