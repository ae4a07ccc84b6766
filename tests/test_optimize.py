import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from qccsim.optimize import _correlation_bound, optimal_closed_form
from qccsim.protocol import AngleSet, closed_form_p, exact_success_probability
from qccsim.state import NORM_TOL, SchmidtPair, epr_state, make_shared_state
from oracles import (CHI_GRID, COS2_PI8, EPR_ANGLES, angle_digits, brute_force_total,
                     decimal_sin, four_angle_win, horodecki_bound, optimal_angle_halves,
                     p_max_formula, scan_optimum)

# Both signs of alpha*beta: chi > 0 gives alpha*beta > 0.
SIGNED_CHI_GRID = [float(c) for c in np.linspace(-math.pi / 4, math.pi / 4, 17)]


def test_epr_solution_reproduces_known_angles():
    sol = optimal_closed_form(epr_state())
    assert abs(sol.phi1 - EPR_ANGLES[0]) < 1e-12
    assert abs(sol.phi2 - EPR_ANGLES[1]) < 1e-12
    assert abs(sol.p_max - COS2_PI8) < 1e-12
    assert abs(sol.t + math.sqrt(2.0)) < 1e-12


def test_product_state_solution():
    sol = optimal_closed_form(SchmidtPair(1.0, 0.0))
    assert sol.t == 0.0
    assert sol.phi1 == 0.0 and sol.phi2 == 0.0
    assert sol.p_max == 0.75


def test_intermediate_solution_value():
    # alpha*beta = -0.3, so p_max = 1/2 + sqrt(1.36)/4
    pair = SchmidtPair(math.sqrt(0.9), -math.sqrt(0.1))
    sol = optimal_closed_form(pair)
    assert abs(sol.p_max - 0.79154759474226499) < 1e-12
    assert abs(closed_form_p(pair, AngleSet(sol.phi1, sol.phi2)) - sol.p_max) < 1e-9
    assert abs(scan_optimum(*pair)[2] - 0.79154759474226499) < 1e-9


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


def test_positive_product_rejected_by_closed_form():
    pair = SchmidtPair(0.8, 0.6)
    with pytest.raises(ValueError):
        optimal_closed_form(pair)


def test_numeric_matches_closed_form():
    for chi in CHI_GRID[::4]:
        pair = make_shared_state(chi)
        sol = optimal_closed_form(pair)
        assert abs(scan_optimum(*pair)[2] - sol.p_max) < 1e-9


# The 33-state grid, then seeded chi in [-45, 45] degrees for both signs of alpha*beta.
_SCAN_CHIS = CHI_GRID + np.random.default_rng(41).uniform(-math.pi / 4, math.pi / 4, 64).tolist()
# States at the edges of the certificate: at chi = 0 the pair is a product
# state, and the bound is 3/4.  Elsewhere the three |T_ii| of
# _correlation_bound tie: for the EPR state (alpha*beta = -1/2), at
# alpha*beta = +1/2, one ulp above it where the product rounds up, and at
# alpha = beta on the edge of the normalization tolerance, where they tie above 1.
_SCAN_EDGES = {
    "product": SchmidtPair(1.0, 0.0),
    "epr": epr_state(),
    "ab=+1/2": SchmidtPair(0.7071067811865476, 0.7071067811865475),
    "ab=+1/2+ulp": SchmidtPair(math.sqrt(0.5), math.sqrt(0.5)),
    "ab=(1+tol)/2": SchmidtPair(*[math.sqrt((1.0 + 0.999e-12) / 2.0)] * 2),
}
_SCAN_PAIRS = [pytest.param(SchmidtPair(math.cos(c), math.sin(c)), id=str(c))
               for c in _SCAN_CHIS]
_SCAN_PAIRS += [pytest.param(pair, id=name) for name, pair in _SCAN_EDGES.items()]


def test_scan_edges_are_as_named():
    ab = {name: pair.alpha * pair.beta for name, pair in _SCAN_EDGES.items()}
    assert ab["product"] == 0.0
    assert ab["epr"] == -0.5000000000000001
    assert ab["ab=+1/2"] == 0.5 and 1.0 - 2.0 * ab["ab=+1/2"] == 0.0
    assert 1.0 - 2.0 * ab["ab=+1/2+ulp"] < 0.0
    assert -NORM_TOL / 8.0 <= (1.0 - 2.0 * ab["ab=(1+tol)/2"]) / 8.0 < -0.99 * NORM_TOL / 8.0


@pytest.mark.parametrize("pair", _SCAN_PAIRS)
def test_numeric_scan_equals_numpy_broadcast_scan(pair):
    # "numeric" is the numeric_p_max that `qccsim optimal` reports: the Born
    # value at the closed-form angles.  For alpha*beta <= 0 the numpy scan,
    # which knows nothing of the maximum, finds it; for alpha*beta > 0 shared
    # angles reach only 3/4.  Either way the scan never beats the bound.
    phi1, phi2, best = scan_optimum(*pair)
    assert abs(best - exact_success_probability(pair, AngleSet(phi1, phi2)).total) < 1e-12
    assert best <= _correlation_bound(pair) + 1e-12
    if pair.alpha * pair.beta <= 0.0:
        sol = optimal_closed_form(pair)
        numeric = exact_success_probability(pair, AngleSet(sol.phi1, sol.phi2)).total
        assert abs(best - numeric) < 1e-9
    else:
        assert abs(best - 0.75) < 1e-12


@pytest.mark.parametrize("alpha,beta", [(math.nan, -0.5), (0.8, math.nan), (math.inf, -0.5),
                                        (0.8, -math.inf), (math.inf, math.inf)])
def test_numeric_refuses_non_finite_amplitudes(alpha, beta):
    # The pair refuses them when it is built, so neither optimizer ever sees them.
    with pytest.raises(ValueError, match="^amplitudes not normalized: "):
        SchmidtPair(alpha, beta)


def test_numeric_endpoint_values():
    assert abs(scan_optimum(1.0, 0.0)[2] - 0.75) < 1e-9
    assert abs(scan_optimum(*epr_state())[2] - COS2_PI8) < 1e-9


def test_numeric_accepts_positive_product():
    # For alpha*beta > 0, angles shared by both parties reach only the
    # classical 3/4.  Bob playing (-phi1, -phi2), with the closed-form angles
    # of (alpha, -beta), still reaches p_max: Z on his qubit flips the sign of
    # beta, and Z R(t) Z = R(-t).
    for chi_deg in (11.25, 22.5, 45.0):
        alpha, beta = math.cos(math.radians(chi_deg)), math.sin(math.radians(chi_deg))
        pair = SchmidtPair(alpha, beta)
        phi1, phi2, p = scan_optimum(alpha, beta)
        assert abs(p - closed_form_p(pair, AngleSet(phi1, phi2))) < 1e-12
        assert abs(p - 0.75) < 1e-12

        sol = optimal_closed_form(SchmidtPair(alpha, -beta))
        relabeled = four_angle_win(alpha, beta, sol.phi1, sol.phi2, -sol.phi1, -sol.phi2)
        assert abs(relabeled - p_max_formula(alpha, beta)) < 1e-12


@pytest.mark.parametrize("chi", SIGNED_CHI_GRID)
def test_horodecki_certificate_equals_p_max(chi):
    alpha, beta = math.cos(chi), math.sin(chi)
    assert abs(horodecki_bound(alpha, beta) - p_max_formula(alpha, beta)) <= 1e-12
    # The package's bound writes the correlation matrix out from the amplitudes;
    # the oracle builds it from Pauli matrices and takes its singular values.
    pair = SchmidtPair(alpha, beta)
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


def test_random_four_angle_strategies_never_beat_the_certificate():
    rng = np.random.default_rng(29)
    for chi in SIGNED_CHI_GRID:
        alpha, beta = math.cos(chi), math.sin(chi)
        a0, a1, b0, b1 = rng.uniform(-math.pi, math.pi, size=(4, 10_000))
        wins = four_angle_win(alpha, beta, a0, a1, b0, b1)
        bound = horodecki_bound(alpha, beta)
        assert wins.max() <= bound + 1e-12
        assert wins.max() >= bound - 5e-3  # the bound is nearly reached at either sign
    # With angles shared by both parties, the two oracles agree.
    for chi in SIGNED_CHI_GRID:
        alpha, beta = math.cos(chi), math.sin(chi)
        phi1, phi2 = rng.uniform(-math.pi, math.pi, size=(2, 20))
        shared = four_angle_win(alpha, beta, phi1, phi2, phi1, phi2)
        for got, p1, p2 in zip(shared.tolist(), phi1.tolist(), phi2.tolist()):
            assert abs(got - brute_force_total(alpha, beta, p1, p2)) <= 1e-12


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


def test_p_max_strictly_increases_with_amplitude_product():
    values = [(abs(make_shared_state(c).alpha * make_shared_state(c).beta),
               optimal_closed_form(make_shared_state(c)).p_max) for c in CHI_GRID]
    values.sort()
    for (ab_lo, p_lo), (ab_hi, p_hi) in zip(values, values[1:]):
        assert ab_lo < ab_hi
        assert p_lo < p_hi


def test_endpoints_are_exact():
    assert optimal_closed_form(make_shared_state(0.0)).p_max == 0.75
    assert optimal_closed_form(epr_state()).p_max == 0.5 + math.sqrt(2.0) / 4.0
