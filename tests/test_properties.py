"""Property tests: invariants checked over generated inputs.

Every test runs a fixed, derandomized set of examples with no example
database, so the suite stays reproducible.  Hypothesis still caches source
constants under ``.hypothesis/``, which is git-ignored.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qccsim import cli
from qccsim.protocol import AngleSet, exact_success_probability
from qccsim.state import make_shared_state, rotated_amplitudes

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)

chi_deg = st.floats(-45.0, 0.0)
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
