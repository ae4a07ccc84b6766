import math

import pytest

from qccsim.state import SchmidtPair, epr_state, make_shared_state

SQH = math.sqrt(0.5)


# --- constructors -----------------------------------------------------------


def test_make_shared_state_endpoints():
    prod = make_shared_state(0.0)
    assert prod.alpha == 1.0 and prod.beta == 0.0
    epr = make_shared_state(-math.pi / 4)
    assert abs(epr.alpha - SQH) < 1e-12
    assert abs(epr.beta + SQH) < 1e-12


def test_make_shared_state_trig_example():
    pair = make_shared_state(-math.pi / 6)
    assert abs(pair.alpha - math.cos(math.pi / 6)) < 1e-12
    assert abs(pair.beta + 0.5) < 1e-12


@pytest.mark.parametrize("chi", [0.1, 1e-9, -math.pi / 4 - 1e-6, -2.0])
def test_make_shared_state_rejects_out_of_domain(chi):
    with pytest.raises(ValueError):
        make_shared_state(chi)


def test_make_shared_state_boundary_tolerance():
    make_shared_state(1e-13)
    make_shared_state(-math.pi / 4 - 1e-13)


def test_pair_accepts_any_normalized_pair():
    pair = SchmidtPair(0.6, 0.8)  # outside the canonical domain on purpose
    assert pair.alpha == 0.6 and pair.beta == 0.8
    assert pair == (0.6, 0.8)  # the two amplitudes and nothing else
    assert pair.beta > pair.alpha > 0.0  # beta > 0 and |beta| > |alpha|


def test_pair_rejects_unnormalized():
    with pytest.raises(ValueError):
        SchmidtPair(0.8, 0.7)


# An int whose square is beyond every float is refused alike, not with OverflowError.
@pytest.mark.parametrize("alpha,beta", [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0),
                                        pytest.param(10**200, 0, id="10**200-0"),
                                        (0.8, -math.inf), (math.inf, math.inf)])
def test_pair_rejects_non_finite(alpha, beta):
    with pytest.raises(ValueError, match="^amplitudes not normalized: "):
        SchmidtPair(alpha, beta)


def test_epr_state():
    epr = epr_state()
    assert epr.alpha == SQH and epr.beta == -SQH
    assert math.atan2(epr.beta, epr.alpha) == -math.pi / 4
    assert abs(2.0 * epr.alpha * epr.beta + 1.0) < 1e-12
