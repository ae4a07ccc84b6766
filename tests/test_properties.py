"""Property tests: invariants checked over inputs listed in this file.

Each test loops over module-level pools: interval ends and edge values written
out, spreads inside an interval from ``random.Random(k).random()`` (the one
stream Python keeps alike across versions), and past failures as literals.  So
the inputs are the same on every run and host, whatever the package's source.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import pickle
import random
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from golden_cli import parse_kv, run_cli
from qccsim import __version__, cli
from qccsim.protocol import (AngleSet, InputPair, _MAX_ANGLE, _outcome_table,
                             exact_success_probability)
from qccsim.state import CHI_DOMAIN_TOL, NORM_TOL, SchmidtPair, epr_state, make_shared_state


def _spread(k, lo, hi, n):
    """``n`` points of ``[lo, hi]`` from ``random.Random(k)``."""
    rng = random.Random(k)
    return [lo + (hi - lo) * rng.random() for _ in range(n)]


CHI_DEG = [-45.0, -0.0, 0.0, *_spread(1, -45.0, 0.0, 7)]  # the canonical domain, in degrees
TOL_DEG = math.degrees(CHI_DOMAIN_TOL)
# the whole range make_shared_state accepts, in degrees: its lowest float (radians()
# rounds -45 - TOL_DEG itself out of the domain), and the sliver above 0 on its own
ACCEPTED_CHI_DEG = [math.nextafter(-45.0 - TOL_DEG, 0.0), -45.00000000000001, -45.0, -0.0, 0.0,
                    1e-13, TOL_DEG, *_spread(3, -45.0, 0.0, 4), *_spread(4, 0.0, TOL_DEG, 3)]
ANGLES = [-2 * math.pi, 2 * math.pi, -0.0, 0.0, _MAX_ANGLE,
          *_spread(2, -2 * math.pi, 2 * math.pi, 5)]
TRIALS = [1, 300, *(int(t) for t in _spread(5, 1, 301, 8))]
SEEDS = [0, 2**32 - 1, *(int(s) for s in _spread(6, 0, 2**32, 8))]
BAD = [math.nan, math.inf, -math.inf]


def _assert_text_json_parity(argv):
    """Text and JSON carry the same scalar fields, equal at 12 significant digits.

    Returns the JSON document, without the record's ``per_input_counts``."""
    # "--flag -1e-05" reads the same as "--flag=-1e-05" (test_cli pins both)
    (code, out, _), (json_code, json_out, _) = run_cli(argv), run_cli([*argv, "--format", "json"])
    assert code == json_code == 0
    text = {key: value for key, value in parse_kv(out).items() if not key.startswith("per_input ")}
    document = json.loads(json_out)
    record = document["record"]
    record.pop("per_input_counts", None)
    assert text.keys() == record.keys()
    for key, value in record.items():
        if value is None:  # unbounded simulate z_score
            assert text[key] == "inf", key
        elif isinstance(value, float):
            assert text[key] == format(value, ".12g"), key
        else:
            assert text[key] == str(value), key
    return document


def test_exact_text_json_parity():
    for (chi, phi1, phi2), typed in itertools.product(zip(CHI_DEG, ANGLES, ANGLES[::-1]),
                                                      (False, True)):
        if typed:  # amplitudes as a user would type them, renormalized by the CLI
            # kept off the -45 edge, where rounding could leave alpha < |beta|
            pair = make_shared_state(math.radians(max(chi, -44.99)))
            state = [f"--alpha={pair.alpha:.6f}", f"--beta={pair.beta:.6f}"]
        else:
            state = [f"--chi={chi!r}"]
        _assert_text_json_parity(["exact", *state, f"--phi1={phi1!r}", f"--phi2={phi2!r}"])


def test_optimal_text_json_parity():
    for chi in CHI_DEG:
        _assert_text_json_parity(["optimal", f"--chi={chi!r}"])


def test_simulate_text_json_parity():
    for chi, trials, seed in zip(CHI_DEG, TRIALS, SEEDS):
        document = _assert_text_json_parity(["simulate", f"--chi={chi!r}", f"--trials={trials}",
                                             f"--seed={seed}"])
        assert document["meta"]["seed"] == seed
        record = document["record"]
        if record["std_error"] > 0.0:  # json carries each float's repr, so this holds exactly
            assert record["z_score"] == (record["estimate"] - record["exact"]) / record["std_error"]


def test_every_accepted_chi_runs_through_every_subcommand():
    for chi in ACCEPTED_CHI_DEG:
        for argv in (["exact", f"--chi={chi!r}"], ["optimal", f"--chi={chi!r}"],
                     ["simulate", f"--chi={chi!r}", "--trials=10"],
                     ["sweep", "--chi-start=-45", f"--chi-end={chi!r}", "--steps=2"]):
            assert run_cli(argv)[0] == 0, argv


# floats json and float.__repr__ might treat differently, and finite ones of every size
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1e16, 1e-300, -1e16, 3.0, -2.0, 1e22,
           1.7976931348623157e308]
FINITE = SPECIAL + [(-1) ** i * 10.0 ** e for i, e in enumerate(_spread(7, -300.0, 300.0, 12))]


def _records(kind, values, n):
    """``n`` records of ``kind``, their fields filled from ``values`` in turn from index n."""
    cells = itertools.islice(itertools.cycle(values), n, None)
    return [kind(*itertools.islice(cells, len(kind._fields))) for _ in range(n)]


def _no_csv():
    """Text pieces that fail the test if ``_write`` iterates them."""
    pytest.fail("CSV rendered")
    yield


def _write_sweep(records, out=None):
    """``cli._write`` as ``cmd_sweep`` calls it with --format json; returns stdout."""
    args = argparse.Namespace(command="sweep", chi_start=-45.0, chi_end=0.0, steps=len(records),
                              format="json", out=out)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli._write(args, {"records": records}, _no_csv())
    return buffer.getvalue()


class OtherRecord(NamedTuple):
    """A record type with other field names; json writes the first one escaped."""

    χ: float
    weight: float


def test_sweep_json_renders_as_json_dumps():
    for records in [*(_records(kind, FINITE, n)
                      for kind, n in itertools.product((cli.SweepRecord, OtherRecord), range(7))),
                    [cli.SweepRecord(*SPECIAL[:len(cli.SweepRecord._fields)])],
                    [OtherRecord(-0.0, 5e-324), OtherRecord(1e22, -2.0)],
                    [OtherRecord(0.0, 1.0), OtherRecord(math.nan, 2.0)]]:  # NaN after the first
        meta = {"tool": "qccsim", "version": __version__, "command": "sweep", "seed": None,
                "flags": {"command": "sweep", "chi_start": -45.0, "chi_end": 0.0,
                          "steps": len(records), "format": "json"}}
        try:
            want = json.dumps({"meta": meta, "records": [r._asdict() for r in records]},
                              indent=2, allow_nan=False) + "\n"
        except ValueError:
            with pytest.raises(ValueError):
                _write_sweep(records)
        else:
            assert _write_sweep(records) == want


def test_sweep_csv_renders_each_field_at_12_digits():
    # CSV, unlike JSON, writes NaN and infinities too.
    for records in [*(_records(cli.SweepRecord, FINITE + BAD, n) for n in range(7)),
                    [cli.SweepRecord(*SPECIAL[:len(cli.SweepRecord._fields)]),
                     cli.SweepRecord(*(BAD * 4)[:len(cli.SweepRecord._fields)])]]:
        want = [cli.CSV_HEADER + "\n"]
        want += [",".join(format(float(v), ".12g") for v in r) + "\n" for r in records]
        assert list(cli._csv_lines(records)) == want


def test_sweep_json_refuses_non_finite_before_writing():
    # each bad value in each field of each record of lists of 1 to 4 records
    places = [(n, i) for n in range(1, 5) for i in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        out_file = Path(tmp) / "sweep.json"
        for bad, (n, i), field in itertools.product(BAD, places, cli.SweepRecord._fields):
            records = _records(cli.SweepRecord, FINITE, n)
            records[i] = records[i]._replace(**{field: bad})
            for out in (None, str(out_file)):
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer), pytest.raises(ValueError):
                    _write_sweep(records, out)
                assert buffer.getvalue() == ""
            assert not out_file.exists()


def test_rotated_probabilities_sum_to_one():
    # any real normalized pair, not only the canonical domain; every row of the Born table
    for theta, phi_a, phi_b in itertools.product(ANGLES, repeat=3):
        for row in _outcome_table(math.cos(theta), math.sin(theta), phi_a, phi_b):
            assert abs(math.fsum(row) - 1.0) < 1e-12


def test_exact_success_probability_has_period_pi_in_each_angle():
    for chi, phi1, phi2 in itertools.product(CHI_DEG, ANGLES, ANGLES):
        pair = make_shared_state(math.radians(chi))
        base = exact_success_probability(pair, AngleSet(phi1, phi2))
        for shifted in (AngleSet(phi1 + math.pi, phi2), AngleSet(phi1, phi2 - math.pi)):
            got = exact_success_probability(pair, shifted)
            assert all(abs(a - b) <= 1e-12 for a, b in zip(got, base)), (chi, phi1, phi2)


# --- the value types check themselves when built ----------------------------

CHI_RAD = [-math.pi / 4 - CHI_DOMAIN_TOL, -math.pi / 4, -0.0, 0.0, CHI_DOMAIN_TOL,
           *_spread(8, -math.pi / 4 - CHI_DOMAIN_TOL, CHI_DOMAIN_TOL, 5)]


def test_built_pairs_are_normalized():
    for chi, t in [*itertools.product(CHI_RAD, FINITE),
                   (0.0, 0.0),  # the product state
                   (-math.pi / 4, 1.0),  # the EPR pair; beta > alpha > 0, off the canonical domain
                   (-math.pi / 6, -math.pi / 6)]:
        for pair in (make_shared_state(chi), SchmidtPair(math.cos(t), math.sin(t)),
                     epr_state()):
            assert abs(pair.alpha * pair.alpha + pair.beta * pair.beta - 1.0) <= NORM_TOL
            assert pickle.loads(pickle.dumps(pair)) == pair  # unpickling builds it again
        # A pair is its two amplitudes and nothing else: built by angle or by amplitudes,
        # it is one value.
        assert SchmidtPair(math.cos(t), math.sin(t)) == (math.cos(t), math.sin(t))
        built, raw = make_shared_state(chi), SchmidtPair(math.cos(chi), min(math.sin(chi), 0.0))
        assert built == raw and hash(built) == hash(raw)


AMPLITUDES = [*SPECIAL, *BAD, 0.8, -0.7, *_spread(9, -2.0, 2.0, 6)]  # no two on the unit circle


def test_pairs_off_the_unit_circle_are_refused():
    for alpha, beta in [*itertools.product(AMPLITUDES, repeat=2),
                        (0.9, -0.9),  # was accepted raw, with optimal_closed_form p_max 0.976
                        (1e150, -1e-150),  # was accepted raw, with p_max 1.059
                        (math.nan, 0.0), (math.sqrt(0.5), -math.inf),
                        (np.float64(0.6), np.float64(math.inf)),  # a numpy scalar
                        (1e200, -1e200),  # finite amplitudes whose squares overflow
                        (1e80, -1e80),  # a finite norm, but 4 alpha^2 beta^2 overflows
                        (10**200, 0),  # an int whose square is beyond every float
                        (0.8, 0.7), (1.0, math.nan), (0.8, math.nan), (math.inf, 0.0),
                        (0.8, math.inf), (0.8, -math.inf), (math.inf, math.inf)]:
        a, b = float(alpha), float(beta)  # squared as floats, so the int's square is inf
        assert not abs(a * a + b * b - 1.0) <= NORM_TOL, (alpha, beta)
        for build in (lambda: SchmidtPair(alpha, beta),
                      lambda: SchmidtPair._make([alpha, beta]),
                      lambda: epr_state()._replace(alpha=alpha, beta=beta)):
            with pytest.raises(ValueError, match="^amplitudes not normalized: "):
                build()


def test_angle_sets_refuse_non_finite_angles():
    for phi, bad, field, numpy_scalar in [
            *itertools.product(ANGLES, BAD, AngleSet._fields, (False, True)),
            (0.5, math.nan, "phi2", True)]:
        if numpy_scalar:
            phi, bad = np.float64(phi), np.float64(bad)
        values = {"phi1": phi, "phi2": phi, field: bad}
        for build in (lambda: AngleSet(**values),
                      lambda: AngleSet._make(values.values()),
                      lambda: AngleSet(phi, phi)._replace(**{field: bad})):
            with pytest.raises(ValueError, match="^rotation angles must be finite$"):
                build()


# --- a grammar fuzz of the command line --------------------------------------

# Edge values: signed zero, the smallest subnormal, the largest floats, just
# above the largest angle AngleSet takes, integers beyond every float, and text
# that is not a finite number.  Most flags refuse most of them.
EDGE_TEXT = ["-0.0", "5e-324", "1e308", "-1e308", "8.98846567431158e307", "1" + "0" * 400,
             "-1" + "0" * 400, "nan", "inf", "-inf", "abc", ""]
CHI_TEXT = (["-30", "-45", "-1e-05", "0"], ["10", "-46", *EDGE_TEXT])
STEPS_TEXT = (["2", "31"],
              ["1", "0", "-1", "1000000000000000", "1" + "0" * 30, *EDGE_TEXT])
# --trials stays at most 10^4: simulate draws every trial it is asked for, so it
# accepts a huge count (10^30, or the 400-digit integer above) and runs on in flat
# memory without end; that is a long job, not a refusal to test.
TRIALS_TEXT = (["1", "100", "10000"], ["0", "-1", *[t for t in EDGE_TEXT if t != "1" + "0" * 400]])
GRAMMAR = {  # per subcommand, each flag: (required?, (typical values, edge values))
    "exact": {"--chi": (False, CHI_TEXT), "--alpha": (False, (["0.8", "0.70710678"], EDGE_TEXT)),
              "--beta": (False, (["-0.6", "-0.70710678"], EDGE_TEXT)),
              "--phi1": (False, (["0.1", "0"], EDGE_TEXT)),
              "--phi2": (False, (["-0.3", "0"], EDGE_TEXT))},
    "optimal": {"--chi": (True, CHI_TEXT)},
    "sweep": {"--chi-start": (True, CHI_TEXT), "--chi-end": (True, CHI_TEXT),
              "--steps": (True, STEPS_TEXT)},
    "simulate": {"--chi": (True, CHI_TEXT), "--trials": (True, TRIALS_TEXT),
                 "--seed": (False, (["0", "7", "18446744073709551616"], EDGE_TEXT))},
    "classical": {"--mode": (True, (["simultaneous", "sequential"], EDGE_TEXT))},
}
OUTPUT_FLAGS = {"--format": (False, (["text", "json", "csv"], EDGE_TEXT)),
                "--out": (False, ([str(Path(__file__).resolve().parent)], []))}  # a directory


def _pairwise(factors):
    """Rows that hold every pair of values of any two factors, built greedily in
    the manner of AETG (Cohen et al., IEEE TSE 23(7), 1997): each row starts from
    the first pair still missing and takes, factor by factor, the value that
    holds the most missing pairs."""
    def pairs(row):  # row: {factor: value index}
        return {(i, row[i], j, row[j]) for i, j in itertools.combinations(sorted(row), 2)}

    missing = {(i, a, j, b) for i, j in itertools.combinations(range(len(factors)), 2)
               for a in range(len(factors[i])) for b in range(len(factors[j]))}
    while missing:
        i, a, j, b = min(missing)
        row = {i: a, j: b}
        for k in sorted(set(range(len(factors))) - row.keys()):
            row[k] = max(range(len(factors[k])), key=lambda v: len(pairs({**row, k: v}) & missing))
        missing -= pairs(row)
        yield [factors[k][row[k]] for k in sorted(row)]


def _command_lines():
    """``(argv, flags)`` per subcommand: a pairwise cover of the typical values
    (an optional flag may also be absent), of "--flag=value" and "--flag value"
    and of both flag orders; then each edge value once, and each required flag
    left out once, in the line of every flag's first choice (base choice:
    Grindal, Offutt & Andler, STVR 15(3), 2005).  ``flags`` holds those given."""
    for command in sorted(GRAMMAR):
        grammar = {**GRAMMAR[command], **OUTPUT_FLAGS}
        names = sorted(grammar)
        choices = [typical if required else [None, *typical]
                   for required, (typical, _) in map(grammar.get, names)]
        rows = list(_pairwise([*choices, ["=", " "], [False, True]]))
        variants = [(name, edge) for name in names for edge in grammar[name][1][1]]
        variants += [(name, None) for name in names if grammar[name][0]]
        for k, (name, value) in enumerate(variants):
            rows.append([value if n == name else c[0] for n, c in zip(names, choices)]
                        + [("=", " ")[k % 2], k // 2 % 2 == 1])
        for *values, spelling, reverse in rows:
            flags = {n: v for n, v in sorted(zip(names, values), reverse=reverse) if v is not None}
            argv = [command]
            for flag, value in flags.items():
                argv += [f"{flag}={value}"] if spelling == "=" else [flag, value]
            yield argv, flags


LINES = [
    *_command_lines(),
    # Sizes that once escaped main as an OverflowError traceback, and one that must fail at once.
    (["sweep", "--chi-start=-45", "--chi-end=0", "--steps=" + "1" + "0" * 23], {}),
    (["sweep", "--chi-start=-45", "--chi-end=0", "--steps=1000000000000000"], {}),
    # Accepted JSON reports of every subcommand, one by amplitudes, and a refused trial count.
    (["exact", "--alpha=0.8", "--beta=-0.6", "--format=json"],
     {"--alpha": "0.8", "--beta": "-0.6", "--format": "json"}),
    (["optimal", "--chi=-30", "--format=json"], {"--format": "json"}),
    (["sweep", "--chi-start=-45", "--chi-end=0", "--steps=31", "--format=json"],
     {"--format": "json"}),
    (["simulate", "--chi=-30", "--trials=100", "--format=json"], {"--format": "json"}),
    (["classical", "--mode=sequential", "--format=json"], {"--format": "json"}),
    (["simulate", "--chi=-30", "--trials=0"], {}),
]


def test_no_command_line_escapes_the_exit_codes():
    for argv, flags in LINES:
        code, stdout, stderr = run_cli(argv)  # argparse refuses a usage error by exiting with 2
        assert code in (0, 1, 2, 3), argv
        if "--alpha" not in flags:  # only typed amplitudes are renormalized, with a note
            assert "note:" not in stderr, argv
        if code in (1, 2):
            assert stdout == "", argv
        elif flags.get("--format") == "json" and "--out" not in flags:
            json.loads(stdout, parse_constant=lambda name: pytest.fail(f"JSON constant {name}"))


# The numbers of the pools above, and the integers around InputPair's range.
NUMBERS = [-0.0, 0.0, 5e-324, 1e308, -1e308, 8.98846567431158e307, 10**400, -10**400,
           math.nan, math.inf, -math.inf, 0.8, -0.6, -1, 0, 3, 4]


def test_value_types_refuse_bad_input_with_value_error():
    # Each constructor raises ValueError or returns a value inside its domain.
    domains = [
        (SchmidtPair, lambda a, b: abs(a * a + b * b - 1.0) <= NORM_TOL),
        # false for nan and +-inf; math.isfinite(10**400) would raise OverflowError
        (AngleSet, lambda a, b: abs(a) <= _MAX_ANGLE and abs(b) <= _MAX_ANGLE),
        (InputPair, lambda a, b: a in range(4) and b in range(4)),
        (lambda a, _: make_shared_state(a),
         lambda a, _: -math.pi / 4 - CHI_DOMAIN_TOL <= a <= CHI_DOMAIN_TOL),
    ]
    for a, b in itertools.product(NUMBERS, repeat=2):
        for build, accepts in domains:
            try:
                build(a, b)
            except ValueError:
                continue
            assert accepts(a, b), (build, a, b)
