"""Byte-for-byte pin of CLI stdout and seeded sample streams.

``tests/data/cli_golden.json`` holds the exit code and exact stdout of a
fixed set of CLI calls, the measured bits (a, b) of the first 256 seeded
``run_once`` rounds at two states (one digit 2*a + b per round), and seeded
``monte_carlo`` tallies.  Any change to the arithmetic, the draw order or
the formatting shows up here.
Regenerate, only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from qccsim import cli
from qccsim.optimize import optimal_closed_form
from qccsim.protocol import AngleSet, InputPair, monte_carlo, run_once
from qccsim.state import epr_state, make_shared_state

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
EPR_ANGLES = AngleSet(-math.pi / 16, 3 * math.pi / 16)

CLI_CALLS = [
    ["exact", "--chi", "-45", "--phi1", "-0.19635", "--phi2", "0.58905"],
    ["exact", "--chi", "-22.5", "--phi1", "0.1", "--phi2", "-0.2", "--format", "json"],
    ["exact", "--alpha", "0.8", "--beta", "-0.6", "--phi1", "0.3", "--phi2", "0.7"],
    ["exact", "--alpha", "0.8", "--beta", "-0.6", "--phi1", "0.3", "--phi2", "0.7",
     "--format", "json"],
    ["optimal", "--chi", "-30"],
    ["optimal", "--chi", "-45", "--format", "json"],
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31"],
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31", "--format", "json"],
    ["simulate", "--chi", "-30", "--trials", "10000", "--seed", "7"],
    ["simulate", "--chi", "-30", "--trials", "10000", "--seed", "7", "--format", "json"],
    ["classical", "--mode", "simultaneous"],
    ["classical", "--mode", "sequential", "--format", "json"],
    # unbounded z_score: "inf" in text, null in JSON
    ["simulate", "--chi", "0", "--trials", "1"],
    ["simulate", "--chi", "0", "--trials", "1", "--format", "json"],
    ["classical", "--mode", "sequential"],
    ["classical", "--mode", "simultaneous", "--format", "json"],
    # hand-typed amplitudes, renormalized before use
    ["exact", "--alpha", "0.92388", "--beta", "-0.38268"],
    ["optimal", "--chi", "0"],
    # refused: exit code 2, empty stdout
    ["exact", "--alpha", "0.8", "--beta", "0.6"],
    ["simulate", "--chi", "0", "--trials", "0"],
]


def _rounds(pair, angles, seed, n=256):
    """Outcomes of n seeded rounds, one digit 2*a + b per round."""
    rng = np.random.default_rng(seed)
    xy = rng.integers(0, 4, size=(n, 2))
    digits = []
    for x, y in xy:
        t = run_once(pair, angles, InputPair(int(x), int(y)), rng)
        digits.append(str(2 * t.a + t.b))
    return "".join(digits)


def _counts(pair, angles, trials, seed):
    result = monte_carlo(pair, angles, trials, seed)
    return {f"{x0}{y0}": list(n) for (x0, y0), n in sorted(result.per_input_counts.items())}


def capture() -> dict:
    cli_out = {}
    for argv in CLI_CALLS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        cli_out[" ".join(argv)] = {"code": code, "stdout": buffer.getvalue()}
    partial = make_shared_state(-math.pi / 8)
    sol = optimal_closed_form(partial)
    partial_angles = AngleSet(sol.phi1, sol.phi2)
    return {
        "cli": cli_out,
        "run_once": {
            "epr": _rounds(epr_state(), EPR_ANGLES, 404),
            "chi=-pi/8": _rounds(partial, partial_angles, 405),
        },
        "monte_carlo": {
            "epr": _counts(epr_state(), EPR_ANGLES, 10_000, 5),
            "chi=-0.5": _counts(make_shared_state(-0.5), AngleSet(0.2, -0.4), 50_000, 99),
            "chi=-pi/8": _counts(partial, partial_angles, 20_000, 43),
        },
    }


def test_outputs_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = capture()
    assert got["cli"].keys() == want["cli"].keys()
    for call, record in want["cli"].items():
        assert got["cli"][call] == record, call
    assert got["run_once"] == want["run_once"]
    assert got["monte_carlo"] == want["monte_carlo"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n", encoding="utf-8")
