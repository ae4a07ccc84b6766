import math

import numpy as np
import pytest

from qccsim.protocol import _outcome_table
from qccsim.state import SchmidtPair, epr_state, make_shared_state
from oracles import COS2_PI8, EPR_ANGLES, kron_rotate

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


def test_shared_state_invariants_on_grid():
    for chi in np.linspace(-math.pi / 4, 0.0, 41):
        pair = make_shared_state(float(chi))
        assert abs(pair.alpha**2 + pair.beta**2 - 1.0) < 1e-12
        assert abs(pair.alpha) >= abs(pair.beta)
        assert pair.beta <= 0.0 <= pair.alpha


def test_from_amplitudes_accepts_any_normalized_pair():
    pair = SchmidtPair(0.6, 0.8)  # outside the canonical domain on purpose
    assert pair.alpha == 0.6 and pair.beta == 0.8
    assert pair == (0.6, 0.8)  # the two amplitudes and nothing else
    assert pair.beta > pair.alpha > 0.0  # beta > 0 and |beta| > |alpha|


def test_from_amplitudes_rejects_unnormalized():
    with pytest.raises(ValueError):
        SchmidtPair(0.8, 0.7)


# An int whose square is beyond every float is refused alike, not with OverflowError.
@pytest.mark.parametrize("alpha,beta", [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0),
                                        pytest.param(10**200, 0, id="10**200-0"),
                                        (0.8, -math.inf), (math.inf, math.inf)])
def test_from_amplitudes_rejects_non_finite(alpha, beta):
    with pytest.raises(ValueError, match="^amplitudes not normalized: "):
        SchmidtPair(alpha, beta)


def test_epr_state():
    epr = epr_state()
    assert epr.alpha == SQH and epr.beta == -SQH
    assert math.atan2(epr.beta, epr.alpha) == -math.pi / 4
    assert abs(2.0 * epr.alpha * epr.beta + 1.0) < 1e-12



# --- local rotations and measurement: protocol._outcome_table ---------------
# Row 2*x0 + y0 of the table holds the outcome probabilities, in basis order,
# after Alice turns by phi[x0] and Bob by phi[y0].


def test_apply_local_rotations_identity():
    # unrotated, the pair alpha|00> + beta|11> gives |00> or |11>, in every row
    pairs = [SchmidtPair(1.0, 0.0), epr_state(), make_shared_state(-math.pi / 6),
             make_shared_state(-0.3), SchmidtPair(0.6, 0.8)]
    for pair in pairs:
        alpha, beta = pair.alpha, pair.beta
        assert _outcome_table(alpha, beta, 0.0, 0.0) == [(alpha * alpha, 0.0, 0.0, beta * beta)] * 4


def test_apply_local_rotations_quarter_turn():
    # |00> with a quarter turn on the low bit 1: Alice's (row x0 = 1, y0 = 0) gives |10>,
    # Bob's (row x0 = 0, y0 = 1) gives |01>, both give |11>.
    table = _outcome_table(1.0, 0.0, 0.0, math.pi / 2)
    for row, want in zip(table, [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                                 (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]):
        np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-12)


def test_apply_local_rotations_frozen_example():
    # (|00> - |11>)/sqrt(2) with Alice turned by -pi/16 and Bob by 3pi/16 (row x0 = 0, y0 = 1);
    # the amplitudes were computed once with the independent Kronecker-product oracle.
    row = _outcome_table(SQH, -SQH, *EPR_ANGLES)[1]
    amplitudes = (0.65328148243818829, 0.2705980500730984, 0.2705980500730984, -0.65328148243818829)
    np.testing.assert_allclose(row, np.square(amplitudes), rtol=0.0, atol=1e-12)
    assert abs(row[0] + row[3] - COS2_PI8) < 1e-12


def test_apply_local_rotations_matches_kron_oracle():
    # Pairs over the whole circle, so both signs of alpha and beta.  Turning one party the
    # wrong way changes these probabilities; turning both the wrong way changes none.
    rng = np.random.default_rng(5)
    for _ in range(1000):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        alpha, beta = math.cos(theta), math.sin(theta)
        phi = rng.uniform(-math.pi, math.pi, size=2).tolist()
        table = _outcome_table(alpha, beta, *phi)
        for row, (x0, y0) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            want = kron_rotate([alpha, 0.0, 0.0, beta], phi[x0], phi[y0]) ** 2
            np.testing.assert_allclose(table[row], want, rtol=0.0, atol=1e-12)

