import math

import numpy as np
import pytest

from qccsim.optimize import GRID_STEPS, REFINE_ITERS, optimal_closed_form, optimal_numeric
from qccsim.protocol import AngleSet, closed_form_p
from qccsim.state import SchmidtPair, epr_state, make_shared_state, rotated_amplitudes
from oracles import horodecki_bound

COS2_PI8 = math.cos(math.pi / 8) ** 2
CHI_GRID = [float(c) for c in np.linspace(-math.pi / 4, 0.0, 33)]
# Both signs of alpha*beta: chi > 0 gives alpha*beta > 0.
SIGNED_CHI_GRID = [float(c) for c in np.linspace(-math.pi / 4, math.pi / 4, 17)]
_X0, _Y0 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])


def _p_max(alpha, beta):
    return 0.5 + math.sqrt(1.0 + 4.0 * (alpha * beta) ** 2) / 4.0


def _four_angle_win(alpha, beta, a0, a1, b0, b1):
    """Win probability when Alice turns by a0 or a1 on x0 = 0 or 1, and Bob by b0 or b1 on y0.

    The angles broadcast; the result has their shape.
    """
    phi_a = np.where(_X0, np.asarray(a1)[..., None], np.asarray(a0)[..., None])
    phi_b = np.where(_Y0, np.asarray(b1)[..., None], np.asarray(b0)[..., None])
    probs = rotated_amplitudes(alpha, beta, phi_a, phi_b) ** 2  # [..., 2*x0 + y0, outcome]
    wins = np.where(_X0 & _Y0, probs[..., 1] + probs[..., 2], probs[..., 0] + probs[..., 3])
    return wins.mean(axis=-1)


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


def _numpy_scan_optimum(pair):
    """``optimal_numeric`` as a numpy broadcast scan: closed_form_p over the
    whole grid, its first argmax, then the same compass refinement."""
    grid = -0.5 * math.pi + math.pi * np.arange(GRID_STEPS) / GRID_STEPS
    values = closed_form_p(pair, AngleSet(grid[:, None], grid[None, :]))  # [phi1, phi2]
    flat = int(np.argmax(values))
    phi1, phi2 = float(grid[flat // GRID_STEPS]), float(grid[flat % GRID_STEPS])
    best = float(values.flat[flat])
    step = math.pi / GRID_STEPS
    for _ in range(REFINE_ITERS):
        moved, inner = True, 0
        while moved and inner < 100:
            moved, inner = False, inner + 1
            for d1, d2 in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                cand = float(closed_form_p(pair, AngleSet(phi1 + d1, phi2 + d2)))
                if cand > best:
                    best, phi1, phi2, moved = cand, phi1 + d1, phi2 + d2, True
        step *= 0.5
    return phi1, phi2, best


# The 33-state grid, then seeded chi in [-45, 45] degrees for both signs of alpha*beta.
_SCAN_CHIS = CHI_GRID + np.random.default_rng(41).uniform(-math.pi / 4, math.pi / 4, 64).tolist()
# States where the scan's pruning bound is tight or degenerate: at chi = 0 the
# sin 2phi2 factor is 0 and every row ties; the EPR state has alpha*beta = -1/2;
# at alpha*beta = +1/2 the squared-sin factor (1 - 2 alpha*beta)/8 is 0, or
# just below 0 where the product rounds up; an unnormalized pair, which the
# scan takes as it is, makes that factor clearly negative.
_SCAN_EDGES = {
    "product": SchmidtPair(1.0, 0.0, 0.0),
    "epr": epr_state(),
    "ab=+1/2": SchmidtPair.from_amplitudes(0.7071067811865476, 0.7071067811865475),
    "ab=+1/2+ulp": SchmidtPair.from_amplitudes(math.sqrt(0.5), math.sqrt(0.5)),
    "ab=6": SchmidtPair(3.0, 2.0, 0.0),
}
_SCAN_PAIRS = [pytest.param(SchmidtPair(math.cos(c), math.sin(c), c), id=str(c))
               for c in _SCAN_CHIS]
_SCAN_PAIRS += [pytest.param(pair, id=name) for name, pair in _SCAN_EDGES.items()]


def test_scan_edges_are_as_named():
    ab = {name: pair.alpha * pair.beta for name, pair in _SCAN_EDGES.items()}
    assert ab["product"] == 0.0
    assert ab["epr"] == -0.5000000000000001
    assert ab["ab=+1/2"] == 0.5 and 1.0 - 2.0 * ab["ab=+1/2"] == 0.0
    assert 1.0 - 2.0 * ab["ab=+1/2+ulp"] < 0.0
    assert ab["ab=6"] == 6.0


@pytest.mark.parametrize("pair", _SCAN_PAIRS)
def test_numeric_scan_equals_numpy_broadcast_scan(pair):
    numeric = optimal_numeric(pair)
    assert (numeric.phi1, numeric.phi2, numeric.p_max) == _numpy_scan_optimum(pair)


@pytest.mark.parametrize("alpha,beta", [(math.nan, -0.5), (0.8, math.nan), (math.inf, -0.5),
                                        (0.8, -math.inf), (math.inf, math.inf)])
def test_numeric_refuses_non_finite_amplitudes(alpha, beta):
    with pytest.raises(ValueError, match="^amplitudes and rotation angles must be finite$"):
        optimal_numeric(SchmidtPair(alpha, beta, 0.0))


def test_numeric_endpoint_values():
    assert abs(optimal_numeric(SchmidtPair(1.0, 0.0, 0.0)).p_max - 0.75) < 1e-9
    assert abs(optimal_numeric(epr_state()).p_max - COS2_PI8) < 1e-9


def test_numeric_accepts_positive_product():
    # For alpha*beta > 0, angles shared by both parties reach only the
    # classical 3/4.  Bob playing (-phi1, -phi2), with the closed-form angles
    # of (alpha, -beta), still reaches p_max: Z on his qubit flips the sign of
    # beta, and Z R(t) Z = R(-t).
    for chi_deg in (11.25, 22.5, 45.0):
        alpha, beta = math.cos(math.radians(chi_deg)), math.sin(math.radians(chi_deg))
        pair = SchmidtPair.from_amplitudes(alpha, beta)
        numeric = optimal_numeric(pair)
        achieved = closed_form_p(pair, AngleSet(numeric.phi1, numeric.phi2))
        assert abs(numeric.p_max - achieved) < 1e-12
        assert abs(numeric.p_max - 0.75) < 1e-12

        sol = optimal_closed_form(SchmidtPair.from_amplitudes(alpha, -beta))
        relabeled = _four_angle_win(alpha, beta, sol.phi1, sol.phi2, -sol.phi1, -sol.phi2)
        assert abs(relabeled - _p_max(alpha, beta)) < 1e-12


@pytest.mark.parametrize("chi", SIGNED_CHI_GRID)
def test_horodecki_certificate_equals_p_max(chi):
    alpha, beta = math.cos(chi), math.sin(chi)
    assert abs(horodecki_bound(alpha, beta) - _p_max(alpha, beta)) <= 1e-12


def test_random_four_angle_strategies_never_beat_the_certificate():
    rng = np.random.default_rng(29)
    for chi in SIGNED_CHI_GRID:
        alpha, beta = math.cos(chi), math.sin(chi)
        a0, a1, b0, b1 = rng.uniform(-math.pi, math.pi, size=(4, 10_000))
        wins = _four_angle_win(alpha, beta, a0, a1, b0, b1)
        bound = horodecki_bound(alpha, beta)
        assert wins.max() <= bound + 1e-12
        assert wins.max() >= bound - 5e-3  # the bound is nearly reached at either sign


def test_symmetric_optimum_reaches_the_certificate():
    # For alpha*beta <= 0 both parties sharing the closed-form angles is optimal
    # over every projective strategy.
    for chi in CHI_GRID:
        pair = make_shared_state(chi)
        sol = optimal_closed_form(pair)
        bound = horodecki_bound(pair.alpha, pair.beta)
        assert abs(sol.p_max - bound) <= 1e-12
        shared = _four_angle_win(pair.alpha, pair.beta, sol.phi1, sol.phi2, sol.phi1, sol.phi2)
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
