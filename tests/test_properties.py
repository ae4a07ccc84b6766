"""Property tests: invariants checked over generated inputs.

Every test draws its examples from its own ``@seed``, with no example
database, so renaming or editing a test does not redraw them (``derandomize``
would seed from the test's source).  Hypothesis also mixes in numeric
constants it reads from the package's source, so an edited constant in
``src/`` may still change them; it caches those under ``.hypothesis/``,
which is git-ignored.  A failing example is reported as drawn, not shrunk:
its seed already fixes it, so it reruns as it is.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import pickle
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, seed, settings
from hypothesis import strategies as st

from golden_cli import parse_kv, run_cli
from qccsim import __version__, cli
from qccsim.protocol import (AngleSet, InputPair, _MAX_ANGLE, _outcome_table,
                             exact_success_probability)
from qccsim.state import CHI_DOMAIN_TOL, NORM_TOL, SchmidtPair, epr_state, make_shared_state

PROPERTY = settings(database=None, max_examples=40, deadline=None,
                    phases=(Phase.explicit, Phase.generate))

chi_deg = st.floats(-45.0, 0.0)
# the whole range make_shared_state accepts, in degrees, and the sliver above 0 on its own
TOL_DEG = math.degrees(CHI_DOMAIN_TOL)
accepted_chi_deg = st.one_of(st.floats(-45.0 - TOL_DEG, TOL_DEG), st.floats(0.0, TOL_DEG))
angle = st.floats(-2 * math.pi, 2 * math.pi)


def _assert_text_json_parity(argv):
    """Text and JSON carry the same scalar fields, equal at 12 significant digits.

    Returns the JSON document, without the record's ``per_input_counts``."""
    # flags are passed as "--flag=value": a bare "-1e-05" would be read as an option name
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


@seed(1)
@PROPERTY
@given(chi=chi_deg, phi1=angle, phi2=angle, typed=st.booleans())
def test_exact_text_json_parity(chi, phi1, phi2, typed):
    if typed:  # amplitudes as a user would type them, renormalized by the CLI
        # kept off the -45 edge, where rounding could leave alpha < |beta|
        pair = make_shared_state(math.radians(max(chi, -44.99)))
        state = [f"--alpha={pair.alpha:.6f}", f"--beta={pair.beta:.6f}"]
    else:
        state = [f"--chi={chi!r}"]
    _assert_text_json_parity(["exact", *state, f"--phi1={phi1!r}", f"--phi2={phi2!r}"])


@seed(2)
@settings(PROPERTY, max_examples=10)
@given(chi=chi_deg)
def test_optimal_text_json_parity(chi):
    _assert_text_json_parity(["optimal", f"--chi={chi!r}"])


@seed(3)
@PROPERTY
@given(chi=chi_deg, trials=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_simulate_text_json_parity(chi, trials, seed):
    document = _assert_text_json_parity(["simulate", f"--chi={chi!r}", f"--trials={trials}",
                                         f"--seed={seed}"])
    assert document["meta"]["seed"] == seed
    record = document["record"]
    if record["std_error"] > 0.0:  # json carries each float's repr, so this holds exactly
        assert record["z_score"] == (record["estimate"] - record["exact"]) / record["std_error"]


@seed(4)
@settings(PROPERTY, max_examples=20)
@given(chi=accepted_chi_deg)
@example(chi=1e-13)
@example(chi=-45.00000000000001)
def test_every_accepted_chi_runs_through_every_subcommand(chi):
    try:
        make_shared_state(math.radians(chi))
    except ValueError:
        assume(False)
    for argv in (["exact", f"--chi={chi!r}"], ["optimal", f"--chi={chi!r}"],
                 ["simulate", f"--chi={chi!r}", "--trials=10"],
                 ["sweep", "--chi-start=-45", f"--chi-end={chi!r}", "--steps=2"]):
        assert run_cli(argv)[0] == 0, argv


# floats json and float.__repr__ might treat differently, mixed into arbitrary finite ones
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1e16, 1e-300, -1e16, 3.0, -2.0, 1e22,
           1.7976931348623157e308]
finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
record = st.builds(cli.SweepRecord, *[finite] * len(cli.SweepRecord._fields))


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


@seed(5)
@PROPERTY
@given(records=st.one_of(st.lists(record, max_size=6),
                         st.lists(st.builds(OtherRecord, finite, finite), max_size=6)))
@example(records=[cli.SweepRecord(*SPECIAL[:len(cli.SweepRecord._fields)])])
@example(records=[OtherRecord(-0.0, 5e-324), OtherRecord(1e22, -2.0)])
@example(records=[OtherRecord(0.0, 1.0), OtherRecord(math.nan, 2.0)])  # NaN after the first record
def test_sweep_json_renders_as_json_dumps(records):
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


# CSV, unlike JSON, writes NaN and infinities too.
csv_record = st.one_of(
    record, st.builds(cli.SweepRecord, *[st.floats()] * len(cli.SweepRecord._fields)))
NON_FINITE = [math.nan, math.inf, -math.inf] * 4


@seed(6)
@PROPERTY
@given(records=st.lists(csv_record, max_size=6))
@example(records=[cli.SweepRecord(*SPECIAL[:len(cli.SweepRecord._fields)]),
                  cli.SweepRecord(*NON_FINITE[:len(cli.SweepRecord._fields)])])
def test_sweep_csv_renders_each_field_at_12_digits(records):
    want = [cli.CSV_HEADER + "\n"]
    want += [",".join(format(float(v), ".12g") for v in r) + "\n" for r in records]
    assert list(cli._csv_lines(records)) == want


@seed(7)
@PROPERTY
@given(records=st.lists(record, min_size=1, max_size=4), data=st.data(),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_sweep_json_refuses_non_finite_before_writing(records, data, bad):
    i = data.draw(st.integers(0, len(records) - 1))
    j = data.draw(st.integers(0, len(cli.SweepRecord._fields) - 1))
    records[i] = records[i]._replace(**{cli.SweepRecord._fields[j]: bad})
    with tempfile.TemporaryDirectory() as tmp:
        out_file = Path(tmp) / "sweep.json"
        for out in (None, str(out_file)):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), pytest.raises(ValueError):
                _write_sweep(records, out)
            assert buffer.getvalue() == ""
        assert not out_file.exists()


@seed(8)
@PROPERTY
@given(theta=angle, phi_a=angle, phi_b=angle)
def test_rotated_probabilities_sum_to_one(theta, phi_a, phi_b):
    # any real normalized pair, not only the canonical domain; every row of the Born table
    for row in _outcome_table(math.cos(theta), math.sin(theta), phi_a, phi_b):
        assert abs(math.fsum(row) - 1.0) < 1e-12


@seed(9)
@PROPERTY
@given(chi=chi_deg, phi1=angle, phi2=angle)
def test_exact_success_probability_has_period_pi_in_each_angle(chi, phi1, phi2):
    pair = make_shared_state(math.radians(chi))
    base = exact_success_probability(pair, AngleSet(phi1, phi2))
    for shifted in (AngleSet(phi1 + math.pi, phi2), AngleSet(phi1, phi2 - math.pi)):
        assert np.allclose(exact_success_probability(pair, shifted), base, rtol=0, atol=1e-12)


# --- the value types check themselves when built ----------------------------


@seed(10)
@PROPERTY
@given(chi=st.floats(-math.pi / 4 - CHI_DOMAIN_TOL, CHI_DOMAIN_TOL),
       t=st.floats(allow_nan=False, allow_infinity=False))
@example(chi=0.0, t=0.0)  # the product state
@example(chi=-math.pi / 4, t=1.0)  # the EPR pair; beta > alpha > 0, off the canonical domain
@example(chi=-math.pi / 6, t=-math.pi / 6)
def test_built_pairs_are_normalized(chi, t):
    for pair in (make_shared_state(chi), SchmidtPair(math.cos(t), math.sin(t)),
                 epr_state()):
        assert abs(pair.alpha * pair.alpha + pair.beta * pair.beta - 1.0) <= NORM_TOL
        assert pickle.loads(pickle.dumps(pair)) == pair  # unpickling builds it again
    # A pair is its two amplitudes and nothing else: built by angle or by amplitudes,
    # it is one value.
    assert SchmidtPair(math.cos(t), math.sin(t)) == (math.cos(t), math.sin(t))
    built, raw = make_shared_state(chi), SchmidtPair(math.cos(chi), min(math.sin(chi), 0.0))
    assert built == raw and hash(built) == hash(raw)


@seed(11)
@PROPERTY
@given(alpha=st.floats(), beta=st.floats())  # NaN and infinities included
@example(alpha=0.9, beta=-0.9)  # was accepted raw, with optimal_closed_form p_max 0.976
@example(alpha=1e150, beta=-1e-150)  # was accepted raw, with p_max 1.059
@example(alpha=math.nan, beta=0.0)
@example(alpha=math.sqrt(0.5), beta=-math.inf)
@example(alpha=np.float64(0.6), beta=np.float64(math.inf))  # a numpy scalar, as drawn
@example(alpha=1e200, beta=-1e200)  # finite amplitudes whose squares overflow
@example(alpha=1e80, beta=-1e80)  # a finite norm, but 4 alpha^2 beta^2 overflows
@example(alpha=10**200, beta=0)  # an int whose square is beyond every float
@example(alpha=0.8, beta=0.7)
@example(alpha=1.0, beta=math.nan)
@example(alpha=0.8, beta=math.nan)
@example(alpha=math.inf, beta=0.0)
@example(alpha=0.8, beta=math.inf)
@example(alpha=0.8, beta=-math.inf)
@example(alpha=math.inf, beta=math.inf)
def test_pairs_off_the_unit_circle_are_refused(alpha, beta):
    a, b = float(alpha), float(beta)  # squared as floats, so the int's square is inf
    assume(not abs(a * a + b * b - 1.0) <= NORM_TOL)
    valid = epr_state()
    for build in (lambda: SchmidtPair(alpha, beta),
                  lambda: SchmidtPair._make([alpha, beta]),
                  lambda: valid._replace(alpha=alpha, beta=beta)):
        with pytest.raises(ValueError, match="^amplitudes not normalized: "):
            build()


@seed(12)
@PROPERTY
@given(phi=angle, bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       field=st.sampled_from(AngleSet._fields), numpy_scalar=st.booleans())
@example(phi=0.5, bad=math.nan, field="phi2", numpy_scalar=True)
def test_angle_sets_refuse_non_finite_angles(phi, bad, field, numpy_scalar):
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


@st.composite
def command_lines(draw):
    """``(argv, flags)``: a subcommand and its flags in any order, each with a value
    from its pools, written as "--flag value" or "--flag=value".  A required flag
    is left out one time in eight, an optional one half the time, and a value is
    an edge value one time in four."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    grammar = {**GRAMMAR[command], **OUTPUT_FLAGS}
    flags = {}
    for flag in draw(st.permutations(sorted(grammar))):
        required, (typical, edge) = grammar[flag]
        if draw(st.integers(0, 7)) > 0 if required else draw(st.booleans()):
            flags[flag] = draw(st.sampled_from(edge if edge and draw(st.integers(0, 3)) == 0
                                               else typical))
    argv = [command]
    for flag, value in flags.items():
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv, flags


def _refuse_constant(name):
    pytest.fail(f"non-standard JSON constant {name}")


@seed(13)
@settings(PROPERTY, max_examples=300)
@given(line=command_lines())
# Sizes that once escaped main as an OverflowError traceback, and one that must fail at once.
@example(line=(["sweep", "--chi-start=-45", "--chi-end=0", "--steps=" + "1" + "0" * 23], {}))
@example(line=(["sweep", "--chi-start=-45", "--chi-end=0", "--steps=1000000000000000"], {}))
# Accepted JSON reports of every subcommand, one by amplitudes, and a refused trial count.
@example(line=(["exact", "--alpha=0.8", "--beta=-0.6", "--format=json"],
               {"--alpha": "0.8", "--beta": "-0.6", "--format": "json"}))
@example(line=(["optimal", "--chi=-30", "--format=json"], {"--format": "json"}))
@example(line=(["sweep", "--chi-start=-45", "--chi-end=0", "--steps=31", "--format=json"],
               {"--format": "json"}))
@example(line=(["simulate", "--chi=-30", "--trials=100", "--format=json"], {"--format": "json"}))
@example(line=(["classical", "--mode=sequential", "--format=json"], {"--format": "json"}))
@example(line=(["simulate", "--chi=-30", "--trials=0"], {}))
def test_no_command_line_escapes_the_exit_codes(line):
    argv, flags = line
    code, stdout, stderr = run_cli(argv)  # argparse refuses a usage error by exiting with 2
    assert code in (0, 1, 2, 3), argv
    if "--alpha" not in flags:  # only typed amplitudes are renormalized, with a note
        assert "note:" not in stderr, argv
    if code in (1, 2):
        assert stdout == "", argv
    elif flags.get("--format") == "json" and "--out" not in flags:
        json.loads(stdout, parse_constant=_refuse_constant)


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
