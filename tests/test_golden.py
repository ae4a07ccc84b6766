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
the formatting shows up here.  The CLI calls and their comparison live in
``tests/golden_cli.py``, which also checks the numpy-free ones on its own.
Regenerate, only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math

import numpy as np

from golden_cli import GOLDEN, capture_cli, mismatches
from oracles import EPR_ANGLES
from qccsim.concentration import simulate_concentration_run
from qccsim.optimize import optimal_closed_form
from qccsim.protocol import AngleSet, InputPair, monte_carlo, run_once
from qccsim.state import SchmidtPair, epr_state, make_shared_state


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


def capture() -> dict:
    partial = make_shared_state(-math.pi / 8)
    sol = optimal_closed_form(partial)
    partial_angles = AngleSet(sol.phi1, sol.phi2)
    epr_angles = AngleSet(*EPR_ANGLES)
    return {
        **capture_cli(),
        "run_once": {
            "epr": _rounds(epr_state(), epr_angles, 404),
            "chi=-pi/8": _rounds(partial, partial_angles, 405),
        },
        "concentration": {
            "beta^2=1/4": _concentration_rounds(
                SchmidtPair(math.sqrt(0.75), -math.sqrt(0.25)), 406
            ),
            "product": _concentration_rounds(make_shared_state(0.0), 407),
            "epr": _concentration_rounds(epr_state(), 408),
        },
        "monte_carlo": {
            "epr": _counts(epr_state(), epr_angles, 10_000, 5),
            # numpy integers, as a generator draws them
            "chi=-0.5": _counts(make_shared_state(-0.5), AngleSet(0.2, -0.4), np.int64(50_000),
                                np.int64(99)),
            "chi=-pi/8": _counts(partial, partial_angles, 20_000, 43),
            # several chunks, the last one partial
            "chi=-0.5 3*2^16+5": _counts(make_shared_state(-0.5), AngleSet(0.2, -0.4),
                                         3 * 2**16 + 5, 11),
            "epr 10^6": _counts(epr_state(), epr_angles, 10**6, 12),
            # so few trials that some rows get none
            **{f"chi=-0.5 trials={n}": _counts(make_shared_state(-0.5), AngleSet(0.2, -0.4),
                                               n, 13) for n in (1, 2, 3)},
            # alpha*beta > 0, one trial past 2^16 (a whole number of chunks)
            "ab>0 2^16+1": _counts(SchmidtPair(0.8, 0.6), AngleSet(0.3, -1.1),
                                   2**16 + 1, 14),
            "epr seed=2^40+3": _counts(epr_state(), epr_angles, 30_000, 2**40 + 3),
            # one trial short of, just past, and well past a 2^14-trial chunk
            "chi=-0.5 2^14-1": _counts(make_shared_state(-0.5), AngleSet(0.2, -0.4),
                                       2**14 - 1, 15),
            "ab>0 2^14+1": _counts(SchmidtPair(0.8, 0.6), AngleSet(0.3, -1.1),
                                   2**14 + 1, 16),
            "epr 5*2^14+3": _counts(epr_state(), epr_angles, 5 * 2**14 + 3, 17),
            # a seed past 2^64, so SeedSequence takes it as several 32-bit words
            "ab>0 seed=2^100+3": _counts(SchmidtPair(0.8, 0.6), AngleSet(0.3, -1.1),
                                         2**14 + 1, 2**100 + 3),
        },
    }


def test_outputs_match_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = capture()
    cli_sections = {section: got[section] for section in ("cli", "cli_sha256", "cli_subprocess")}
    for section, records in cli_sections.items():
        assert records.keys() == want[section].keys(), section
    assert mismatches(want, cli_sections) == []
    assert got["run_once"] == want["run_once"]
    assert got["concentration"] == want["concentration"]
    assert got["monte_carlo"] == want["monte_carlo"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n", encoding="utf-8")
