import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from qccsim.optimize import _correlation_bound, optimal_closed_form
from qccsim.protocol import AngleSet, closed_form_p
from qccsim.state import SchmidtPair, epr_state, make_shared_state
from oracles import (CHI_GRID, angle_digits, decimal_sin, four_angle_win, horodecki_bound,
                     optimal_angle_halves, p_max_formula)

# States at the edges of the certificate: at chi = 0 the pair is a product
# state, and the bound is 3/4.  Elsewhere the three |T_ii| of
# _correlation_bound tie: for the EPR state (alpha*beta = -1/2), at
# alpha*beta = +1/2, one ulp above it where the product rounds up, and at
# alpha = beta on the edge of the normalization tolerance, where they tie above 1.
_CERTIFICATE_EDGES = {
    "product": SchmidtPair(1.0, 0.0),
    "epr": epr_state(),
    "ab=+1/2": SchmidtPair(0.7071067811865476, 0.7071067811865475),
    "ab=+1/2+ulp": SchmidtPair(math.sqrt(0.5), math.sqrt(0.5)),
    "ab=(1+tol)/2": SchmidtPair(*[math.sqrt((1.0 + 0.999e-12) / 2.0)] * 2),
}
# Both signs of alpha*beta: chi > 0 gives alpha*beta > 0.  Then the edges.
CERTIFICATE_PAIRS = [pytest.param(SchmidtPair(math.cos(c), math.sin(c)), id=str(c))
                     for c in np.linspace(-math.pi / 4, math.pi / 4, 17).tolist()] + [
    pytest.param(pair, id=name) for name, pair in _CERTIFICATE_EDGES.items()]


def test_aux_ratio_definition():
    for chi in CHI_GRID:
        pair = make_shared_state(chi)
        ab = pair.alpha * pair.beta
        sol = optimal_closed_form(pair)
        assert abs(sol.t - 4.0 * ab / math.sqrt(1.0 + 4.0 * ab * ab)) < 1e-12


def test_closed_form_angles_achieve_p_max_on_grid():
    for chi in CHI_GRID:
        pair = make_shared_state(chi)
        sol = optimal_closed_form(pair)
        achieved = closed_form_p(pair, AngleSet(sol.phi1, sol.phi2))
        assert abs(achieved - sol.p_max) < 1e-9


def test_product_state_solution():
    sol = optimal_closed_form(SchmidtPair(1.0, 0.0))
    assert sol.t == 0.0
    assert sol.phi1 == 0.0 and sol.phi2 == 0.0
    assert sol.p_max == 0.75


def test_positive_product_rejected_by_closed_form():
    pair = SchmidtPair(0.8, 0.6)
    with pytest.raises(ValueError):
        optimal_closed_form(pair)


def test_relabeled_angles_reach_p_max_at_positive_product():
    # For alpha*beta > 0, Bob playing (-phi1, -phi2), with the closed-form angles
    # of (alpha, -beta), reaches p_max: Z on his qubit flips the sign of beta,
    # and Z R(t) Z = R(-t).
    for chi_deg in (11.25, 22.5, 45.0):
        alpha, beta = math.cos(math.radians(chi_deg)), math.sin(math.radians(chi_deg))
        sol = optimal_closed_form(SchmidtPair(alpha, -beta))
        relabeled = four_angle_win(alpha, beta, sol.phi1, sol.phi2, -sol.phi1, -sol.phi2)
        assert abs(relabeled - p_max_formula(alpha, beta)) < 1e-12


@pytest.mark.parametrize("pair", CERTIFICATE_PAIRS)
def test_horodecki_certificate_equals_p_max(pair):
    alpha, beta = pair
    assert abs(horodecki_bound(alpha, beta) - p_max_formula(alpha, beta)) <= 1e-12
    # The package's bound writes the correlation matrix out from the amplitudes;
    # the oracle builds it from Pauli matrices and takes its singular values.
    assert abs(_correlation_bound(pair) - horodecki_bound(alpha, beta)) <= 1e-15


# The 2001-step sweep from -45 to 0 degrees, then chi = -10^-k degrees for k = 1..12,
# where 1 - x is as small as 4e-41, and k = 110, where (alpha*beta)^3 underflows,
# then 500 seeded chi = -10^u degrees, u uniform on [-200, log10 45].  Below
# |alpha*beta| of about 4e-206 the true phi1 is subnormal or zero, so no float holds it.
_RANDOM_DECADES = np.random.default_rng(43).uniform(-200.0, math.log10(45.0), 500).tolist()
_ANGLE_CHIS = np.linspace(math.radians(-45.0), 0.0, 2001).tolist() + [
    math.radians(-(10.0 ** u)) for u in [*range(-1, -13, -1), -110, *_RANDOM_DECADES]]
_ANGLE_ULPS = 6  # relative ulps (2^-52); sin^2 2phi comes out within about 3.5 of them


def test_optimal_angles_match_decimal_reference():
    # sin^2 2phi = (1 - x)/2 for phi = -+(1/4) arccos x, with 2phi in [-pi/2, pi/2].
    with decimal.localcontext() as ctx:
        tol = Decimal(_ANGLE_ULPS) * Decimal(2) ** -52
        for chi in _ANGLE_CHIS:
            pair = make_shared_state(chi)
            ctx.prec = angle_digits(pair.alpha, pair.beta)
            sol = optimal_closed_form(pair)
            assert -math.pi / 4 <= sol.phi1 <= 0.0 <= sol.phi2 <= math.pi / 4
            for phi, half in zip((sol.phi1, sol.phi2), optimal_angle_halves(pair.alpha, pair.beta)):
                got = decimal_sin(2 * Decimal(phi)) ** 2
                assert abs(got - half) <= tol * half, (chi, phi)


def test_symmetric_optimum_reaches_the_certificate():
    # For alpha*beta <= 0 both parties sharing the closed-form angles is optimal
    # over every projective strategy.
    for chi in CHI_GRID:
        pair = make_shared_state(chi)
        sol = optimal_closed_form(pair)
        bound = horodecki_bound(pair.alpha, pair.beta)
        assert abs(sol.p_max - bound) <= 1e-12
        shared = four_angle_win(pair.alpha, pair.beta, sol.phi1, sol.phi2, sol.phi1, sol.phi2)
        assert abs(shared - bound) <= 1e-12


def test_closed_form_p_never_exceeds_p_max():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        pair = make_shared_state(float(rng.uniform(-math.pi / 4, 0.0)))
        angles = AngleSet(*rng.uniform(-math.pi, math.pi, size=2))
        p_max = optimal_closed_form(pair).p_max
        assert closed_form_p(pair, angles) <= p_max + 1e-9
    # For alpha*beta > 0, which optimal_closed_form refuses, shared angles reach
    # only 3/4, exactly at zero angles.
    positive = [SchmidtPair(math.cos(c), math.sin(c)) for c in rng.uniform(0.0, math.pi / 4, 100)]
    for pair in positive + [p for p in _CERTIFICATE_EDGES.values() if p.alpha * p.beta > 0.0]:
        assert closed_form_p(pair, AngleSet(0.0, 0.0)) == 0.75
        for angles in rng.uniform(-math.pi, math.pi, size=(10, 2)):
            assert closed_form_p(pair, AngleSet(*angles)) <= 0.75 + 1e-12


def test_endpoints_are_exact():
    assert optimal_closed_form(make_shared_state(0.0)).p_max == 0.75
    assert optimal_closed_form(epr_state()).p_max == 0.5 + math.sqrt(2.0) / 4.0
