"""Property tests: invariants checked over generated inputs.

Every test runs a fixed, derandomized set of examples with no example
database, so the suite stays reproducible.  Hypothesis still caches source
constants under ``.hypothesis/``, which is git-ignored.
"""

import argparse
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qccsim import __version__, cli
from qccsim.protocol import AngleSet, exact_success_probability
from qccsim.state import CHI_DOMAIN_TOL, make_shared_state, rotated_amplitudes

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

chi_deg = st.floats(-45.0, 0.0)
# the whole range make_shared_state accepts, in degrees, and the sliver above 0 on its own
TOL_DEG = math.degrees(CHI_DOMAIN_TOL)
accepted_chi_deg = st.one_of(st.floats(-45.0 - TOL_DEG, TOL_DEG), st.floats(0.0, TOL_DEG))
angle = st.floats(-2 * math.pi, 2 * math.pi)


def _stdout(argv):
    # flags are passed as "--flag=value": a bare "-1e-05" would be read as an option name
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    return buffer.getvalue()


def _assert_text_json_parity(argv):
    """Text and JSON carry the same scalar fields, equal at 12 significant digits."""
    text = dict(line.split(" = ") for line in _stdout(argv).splitlines()
                if not line.startswith("per_input "))
    record = json.loads(_stdout([*argv, "--format", "json"]))["record"]
    record.pop("per_input_counts", None)
    assert text.keys() == record.keys()
    for key, value in record.items():
        if value is None:  # unbounded simulate z_score
            assert text[key] == "inf", key
        elif isinstance(value, float):
            assert text[key] == format(value, ".12g"), key
        else:
            assert text[key] == str(value), key


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


@settings(PROPERTY, max_examples=10)
@given(chi=chi_deg)
def test_optimal_text_json_parity(chi):
    _assert_text_json_parity(["optimal", f"--chi={chi!r}"])


@PROPERTY
@given(chi=chi_deg, trials=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_simulate_text_json_parity(chi, trials, seed):
    _assert_text_json_parity(["simulate", f"--chi={chi!r}", f"--trials={trials}",
                              f"--seed={seed}"])


@settings(PROPERTY, max_examples=20)
@given(chi=accepted_chi_deg)
@example(chi=1e-13)
@example(chi=-45.00000000000001)
def test_every_accepted_chi_runs_through_every_subcommand(chi):
    try:
        make_shared_state(math.radians(chi))
    except ValueError:
        assume(False)
    _stdout(["exact", f"--chi={chi!r}"])
    _stdout(["optimal", f"--chi={chi!r}"])
    _stdout(["simulate", f"--chi={chi!r}", "--trials=10"])
    _stdout(["sweep", "--chi-start=-45", f"--chi-end={chi!r}", "--steps=2"])


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


@PROPERTY
@given(records=st.one_of(st.lists(record, max_size=6),
                         st.lists(st.builds(OtherRecord, finite, finite), max_size=6)))
@example(records=[cli.SweepRecord(*SPECIAL[:len(cli.SweepRecord._fields)])])
@example(records=[OtherRecord(-0.0, 5e-324), OtherRecord(1e22, -2.0)])
def test_sweep_json_renders_as_json_dumps(records):
    meta = {"tool": "qccsim", "version": __version__, "command": "sweep", "seed": None,
            "flags": {"command": "sweep", "chi_start": -45.0, "chi_end": 0.0,
                      "steps": len(records), "format": "json"}}
    want = json.dumps({"meta": meta, "records": [r._asdict() for r in records]},
                      indent=2, allow_nan=False) + "\n"
    assert _write_sweep(records) == want


# CSV, unlike JSON, writes NaN and infinities too.
csv_record = st.one_of(
    record, st.builds(cli.SweepRecord, *[st.floats()] * len(cli.SweepRecord._fields)))
NON_FINITE = [math.nan, math.inf, -math.inf] * 4


@PROPERTY
@given(records=st.lists(csv_record, max_size=6))
@example(records=[cli.SweepRecord(*SPECIAL[:len(cli.SweepRecord._fields)]),
                  cli.SweepRecord(*NON_FINITE[:len(cli.SweepRecord._fields)])])
def test_sweep_csv_renders_each_field_at_12_digits(records):
    want = [cli.CSV_HEADER + "\n"]
    want += [",".join(format(float(v), ".12g") for v in r) + "\n" for r in records]
    assert list(cli._csv_lines(records)) == want


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


@PROPERTY
@given(theta=angle, phi_a=angle, phi_b=angle)
def test_rotated_probabilities_sum_to_one(theta, phi_a, phi_b):
    # any real normalized pair, not only the canonical domain
    amps = rotated_amplitudes(math.cos(theta), math.sin(theta), phi_a, phi_b)
    assert abs(np.sum(amps**2) - 1.0) < 1e-12


@PROPERTY
@given(chi=chi_deg, phi1=angle, phi2=angle)
def test_exact_success_probability_has_period_pi_in_each_angle(chi, phi1, phi2):
    pair = make_shared_state(math.radians(chi))
    base = exact_success_probability(pair, AngleSet(phi1, phi2))
    for shifted in (AngleSet(phi1 + math.pi, phi2), AngleSet(phi1, phi2 - math.pi)):
        assert np.allclose(exact_success_probability(pair, shifted), base, rtol=0, atol=1e-12)
