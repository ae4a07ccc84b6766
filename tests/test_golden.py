"""Byte-for-byte pin of CLI stdout and seeded sample streams.

``tests/data/cli_golden.json`` holds the exit code and exact stdout of a
fixed set of CLI calls, the exit code and stdout sha256 of a few calls too
long to keep as text, the exit code, stdout and stderr of ``python -m
qccsim`` in a fresh interpreter for the help texts and an argparse refusal,
the measured bits (a, b) of the first 256 seeded
``run_once`` rounds at two states (one digit 2*a + b per round), the
(a, b, success) of the first 256 seeded ``simulate_concentration_run`` rounds
at three states (one digit 4*a + 2*b + success per round), and seeded
``monte_carlo`` tallies.  Any change to the arithmetic, the draw order or
the formatting shows up here.
Regenerate, only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qccsim import cli
from qccsim.concentration import simulate_concentration_run
from qccsim.optimize import optimal_closed_form
from qccsim.protocol import AngleSet, InputPair, monte_carlo, run_once
from qccsim.state import SchmidtPair, epr_state, make_shared_state

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"
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
    # more trials than one monte_carlo chunk
    ["simulate", "--chi", "-30", "--trials", "1000000", "--seed", "7"],
    ["simulate", "--chi", "-30", "--trials", "1000000", "--seed", "7", "--format", "json"],
    # the smallest sweep
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "2", "--format", "json"],
    # chi just above 0, inside make_shared_state's tolerance
    ["exact", "--chi", "1e-13"],
    ["optimal", "--chi", "1e-13"],
    ["simulate", "--chi", "1e-13", "--trials", "10"],
    ["sweep", "--chi-start", "-45", "--chi-end", "1e-11", "--steps", "3"],
]

# pinned by exit code and stdout sha256 only
CLI_HASHED_CALLS = [
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "2001"],
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "2001", "--format", "json"],
]

# run as ``python -m qccsim`` in a fresh interpreter, pinned with stderr too
CLI_SUBPROCESS_CALLS = [
    ["--help"],
    *([command, "--help"] for command in ("exact", "optimal", "sweep", "simulate", "classical")),
    # refused by argparse: exit code 2, usage on stderr
    ["exact", "--chi", "-30", "--phi1", "nan"],
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


def _concentration_rounds(pair, seed, n=256):
    """n seeded concentrate-then-play rounds, one digit 4*a + 2*b + success per round."""
    rng = np.random.default_rng(seed)
    xy = rng.integers(0, 4, size=(n, 2))
    digits = []
    for x, y in xy:
        t = simulate_concentration_run(pair, InputPair(int(x), int(y)), rng)
        digits.append(str(4 * t.a + 2 * t.b + int(t.success)))
    return "".join(digits)


def _counts(pair, angles, trials, seed):
    result = monte_carlo(pair, angles, trials, seed)
    return {f"{x0}{y0}": list(n) for (x0, y0), n in sorted(result.per_input_counts.items())}


def _call(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _subprocess_call(argv):
    env = dict(os.environ, COLUMNS="80")  # argparse wraps help text to the terminal width
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qccsim", *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def capture() -> dict:
    cli_out = {}
    for argv in CLI_CALLS:
        code, out = _call(argv)
        cli_out[" ".join(argv)] = {"code": code, "stdout": out}
    cli_hashed = {}
    for argv in CLI_HASHED_CALLS:
        code, out = _call(argv)
        cli_hashed[" ".join(argv)] = {
            "code": code, "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}
    cli_subprocess = {" ".join(argv): _subprocess_call(argv) for argv in CLI_SUBPROCESS_CALLS}
    partial = make_shared_state(-math.pi / 8)
    sol = optimal_closed_form(partial)
    partial_angles = AngleSet(sol.phi1, sol.phi2)
    return {
        "cli": cli_out,
        "cli_sha256": cli_hashed,
        "cli_subprocess": cli_subprocess,
        "run_once": {
            "epr": _rounds(epr_state(), EPR_ANGLES, 404),
            "chi=-pi/8": _rounds(partial, partial_angles, 405),
        },
        "concentration": {
            "beta^2=1/4": _concentration_rounds(
                SchmidtPair.from_amplitudes(math.sqrt(0.75), -math.sqrt(0.25)), 406
            ),
            "product": _concentration_rounds(make_shared_state(0.0), 407),
            "epr": _concentration_rounds(epr_state(), 408),
        },
        "monte_carlo": {
            "epr": _counts(epr_state(), EPR_ANGLES, 10_000, 5),
            "chi=-0.5": _counts(make_shared_state(-0.5), AngleSet(0.2, -0.4), 50_000, 99),
            "chi=-pi/8": _counts(partial, partial_angles, 20_000, 43),
            # several chunks, the last one partial
            "chi=-0.5 3*2^16+5": _counts(make_shared_state(-0.5), AngleSet(0.2, -0.4),
                                         3 * 2**16 + 5, 11),
            "epr 10^6": _counts(epr_state(), EPR_ANGLES, 10**6, 12),
            # so few trials that some rows get none
            **{f"chi=-0.5 trials={n}": _counts(make_shared_state(-0.5), AngleSet(0.2, -0.4),
                                               n, 13) for n in (1, 2, 3)},
            # alpha*beta > 0, one trial past 2^16 (a whole number of chunks)
            "ab>0 2^16+1": _counts(SchmidtPair.from_amplitudes(0.8, 0.6), AngleSet(0.3, -1.1),
                                   2**16 + 1, 14),
            "epr seed=2^40+3": _counts(epr_state(), EPR_ANGLES, 30_000, 2**40 + 3),
            # one trial short of, just past, and well past a 2^14-trial chunk
            "chi=-0.5 2^14-1": _counts(make_shared_state(-0.5), AngleSet(0.2, -0.4),
                                       2**14 - 1, 15),
            "ab>0 2^14+1": _counts(SchmidtPair.from_amplitudes(0.8, 0.6), AngleSet(0.3, -1.1),
                                   2**14 + 1, 16),
            "epr 5*2^14+3": _counts(epr_state(), EPR_ANGLES, 5 * 2**14 + 3, 17),
        },
    }


def test_outputs_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = capture()
    assert got["cli"].keys() == want["cli"].keys()
    for call, record in want["cli"].items():
        assert got["cli"][call] == record, call
    assert got["cli_sha256"] == want["cli_sha256"]
    assert got["cli_subprocess"].keys() == want["cli_subprocess"].keys()
    for call, record in want["cli_subprocess"].items():
        assert got["cli_subprocess"][call] == record, call
    assert got["run_once"] == want["run_once"]
    assert got["concentration"] == want["concentration"]
    assert got["monte_carlo"] == want["monte_carlo"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n", encoding="utf-8")
