import math

import numpy as np
import pytest

from qccsim.optimize import optimal_closed_form, optimal_numeric
from qccsim.protocol import AngleSet, closed_form_p
from qccsim.state import SchmidtPair, epr_state, make_shared_state, rotated_amplitudes

COS2_PI8 = math.cos(math.pi / 8) ** 2
CHI_GRID = [float(c) for c in np.linspace(-math.pi / 4, 0.0, 33)]


def test_epr_solution_reproduces_known_angles():
    sol = optimal_closed_form(epr_state())
    assert abs(sol.phi1 + math.pi / 16) < 1e-12
    assert abs(sol.phi2 - 3 * math.pi / 16) < 1e-12
    assert abs(sol.p_max - COS2_PI8) < 1e-12
    assert abs(sol.t + math.sqrt(2.0)) < 1e-12


def test_product_state_solution():
    sol = optimal_closed_form(SchmidtPair(1.0, 0.0, 0.0))
    assert sol.t == 0.0
    assert sol.phi1 == 0.0 and sol.phi2 == 0.0
    assert sol.p_max == 0.75


def test_intermediate_solution_value():
    # alpha*beta = -0.3, so p_max = 1/2 + sqrt(1.36)/4
    pair = SchmidtPair.from_amplitudes(math.sqrt(0.9), -math.sqrt(0.1))
    sol = optimal_closed_form(pair)
    assert abs(sol.p_max - 0.79154759474226499) < 1e-12
    assert abs(closed_form_p(pair, AngleSet(sol.phi1, sol.phi2)) - sol.p_max) < 1e-9
    numeric = optimal_numeric(pair)
    assert abs(numeric.p_max - 0.79154759474226499) < 1e-9


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
    pair = SchmidtPair.from_amplitudes(0.8, 0.6)
    with pytest.raises(ValueError):
        optimal_closed_form(pair)


def test_numeric_matches_closed_form():
    for chi in CHI_GRID[::4]:
        pair = make_shared_state(chi)
        sol = optimal_closed_form(pair)
        numeric = optimal_numeric(pair)
        assert abs(numeric.p_max - sol.p_max) < 1e-9


def test_numeric_endpoint_values():
    assert abs(optimal_numeric(SchmidtPair(1.0, 0.0, 0.0)).p_max - 0.75) < 1e-9
    assert abs(optimal_numeric(epr_state()).p_max - COS2_PI8) < 1e-9


def test_numeric_accepts_positive_product():
    # For alpha*beta > 0, angles shared by both parties reach only the
    # classical 3/4.  Bob playing (-phi1, -phi2), with the closed-form angles
    # of (alpha, -beta), still reaches p_max: Z on his qubit flips the sign of
    # beta, and Z R(t) Z = R(-t).
    x0, y0 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    for chi_deg in (11.25, 22.5, 45.0):
        alpha, beta = math.cos(math.radians(chi_deg)), math.sin(math.radians(chi_deg))
        pair = SchmidtPair.from_amplitudes(alpha, beta)
        numeric = optimal_numeric(pair)
        achieved = closed_form_p(pair, AngleSet(numeric.phi1, numeric.phi2))
        assert abs(numeric.p_max - achieved) < 1e-12
        assert abs(numeric.p_max - 0.75) < 1e-12

        sol = optimal_closed_form(SchmidtPair.from_amplitudes(alpha, -beta))
        phi_a = np.where(x0, sol.phi2, sol.phi1)
        phi_b = np.where(y0, -sol.phi2, -sol.phi1)
        probs = rotated_amplitudes(alpha, beta, phi_a, phi_b) ** 2  # [2*x0 + y0, outcome]
        wins = np.where(x0 & y0, probs[:, 1] + probs[:, 2], probs[:, 0] + probs[:, 3])
        p_max = 0.5 + math.sqrt(1.0 + 4.0 * (alpha * beta) ** 2) / 4.0
        assert abs(wins.mean() - p_max) < 1e-12


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
