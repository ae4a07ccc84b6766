import math

import numpy as np
import pytest

from qccsim.state import SchmidtPair, epr_state, make_shared_state, rotated_amplitudes
from oracles import kron_rotate

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
    pair = SchmidtPair.from_amplitudes(0.6, 0.8)  # outside the canonical domain on purpose
    assert pair.alpha == 0.6 and pair.beta == 0.8
    assert abs(math.cos(pair.chi) - 0.6) < 1e-12
    assert abs(math.sin(pair.chi) - 0.8) < 1e-12


def test_from_amplitudes_rejects_unnormalized():
    with pytest.raises(ValueError):
        SchmidtPair.from_amplitudes(0.8, 0.7)


# An int whose square is beyond every float is refused alike, not with OverflowError.
@pytest.mark.parametrize("alpha,beta", [(math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0),
                                        pytest.param(10**200, 0, id="10**200-0"),
                                        (0.8, -math.inf), (math.inf, math.inf)])
def test_from_amplitudes_rejects_non_finite(alpha, beta):
    with pytest.raises(ValueError, match="^amplitudes not normalized: "):
        SchmidtPair.from_amplitudes(alpha, beta)
    with pytest.raises(ValueError, match="^amplitudes not normalized: "):
        SchmidtPair(alpha, beta, 0.0)


def test_epr_state():
    epr = epr_state()
    assert epr.alpha == SQH and epr.beta == -SQH
    assert epr.chi == -math.pi / 4
    assert abs(2.0 * epr.alpha * epr.beta + 1.0) < 1e-12
    dist = rotated_amplitudes(epr.alpha, epr.beta, 0.0, 0.0) ** 2
    np.testing.assert_allclose(dist, (0.5, 0.0, 0.0, 0.5), atol=1e-12)


def test_as_state_examples():
    # unrotated, the pair is alpha|00> + beta|11>
    assert rotated_amplitudes(1.0, 0.0, 0.0, 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert rotated_amplitudes(SQH, -SQH, 0.0, 0.0).tolist() == [SQH, 0.0, 0.0, -SQH]
    pair = make_shared_state(-math.pi / 6)
    c00, c01, c10, c11 = rotated_amplitudes(pair.alpha, pair.beta, 0.0, 0.0)
    assert (c00, c11) == (pair.alpha, pair.beta)
    assert c01 == c10 == 0.0


# --- rotations --------------------------------------------------------------


def test_rotate_qubit_examples():
    # Alice turns |0> (from |00>) and |1> (from |11>); Bob's qubit stays put.
    c00, _, c10, _ = rotated_amplitudes(1.0, 0.0, math.pi / 2, 0.0)
    assert abs(c00) < 1e-12 and abs(c10 - 1.0) < 1e-12
    _, c01, _, c11 = rotated_amplitudes(0.0, 1.0, math.pi / 8, 0.0)
    assert abs(c01 + math.sin(math.pi / 8)) < 1e-12
    assert abs(c11 - math.cos(math.pi / 8)) < 1e-12


def test_rotate_qubit_matches_matrix_columns():
    rng = np.random.default_rng(11)
    for angle in rng.uniform(-math.pi, math.pi, size=50):
        mat = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        # |00> with Alice turned: column 0 on her qubit (amplitudes c00, c10);
        # |11> with Bob turned: column 1 on his (amplitudes c10, c11).
        np.testing.assert_allclose(rotated_amplitudes(1.0, 0.0, angle, 0.0)[[0, 2]], mat[:, 0],
                                   atol=1e-15)
        np.testing.assert_allclose(rotated_amplitudes(0.0, 1.0, 0.0, angle)[[2, 3]], mat[:, 1],
                                   atol=1e-15)


def test_apply_local_rotations_identity():
    pair = make_shared_state(-0.3)
    assert rotated_amplitudes(pair.alpha, pair.beta, 0.0, 0.0).tolist() == [
        pair.alpha, 0.0, 0.0, pair.beta,
    ]


def test_apply_local_rotations_quarter_turn():
    out = rotated_amplitudes(1.0, 0.0, math.pi / 2, 0.0)
    np.testing.assert_allclose(out, (0.0, 0.0, 1.0, 0.0), atol=1e-12)


def test_apply_local_rotations_frozen_example():
    # (|00> - |11>)/sqrt(2) rotated by (-pi/16, 3pi/16); expected values were
    # computed once with the independent Kronecker-product oracle.
    out = rotated_amplitudes(SQH, -SQH, -math.pi / 16, 3 * math.pi / 16)
    expected = (0.65328148243818829, 0.2705980500730984, 0.2705980500730984, -0.65328148243818829)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    assert abs(out[0] ** 2 + out[3] ** 2 - math.cos(math.pi / 8) ** 2) < 1e-12


def test_apply_local_rotations_matches_kron_oracle():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        alpha, beta = math.cos(theta), math.sin(theta)
        chi1, chi2 = rng.uniform(-math.pi, math.pi, size=2)
        got = rotated_amplitudes(alpha, beta, chi1, chi2)
        want = kron_rotate([alpha, 0.0, 0.0, beta], chi1, chi2)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_rotated_amplitudes_broadcast_equals_scalar_calls():
    rng = np.random.default_rng(7)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=500)
    alpha, beta = np.cos(theta), np.sin(theta)
    phi_a, phi_b = rng.uniform(-10.0, 10.0, size=(2, 500))
    batch = rotated_amplitudes(alpha, beta, phi_a, phi_b)
    assert batch.shape == (500, 4)
    for i in range(500):
        one = rotated_amplitudes(float(alpha[i]), float(beta[i]), float(phi_a[i]), float(phi_b[i]))
        assert one.tolist() == batch[i].tolist()
    # a scalar state against a grid of angles broadcasts the same way
    grid = rotated_amplitudes(float(alpha[0]), float(beta[0]), phi_a[:, None], phi_b[None, :3])
    assert grid.shape == (500, 3, 4)
    assert grid[:, 0].tolist() == rotated_amplitudes(alpha[0], beta[0], phi_a, phi_b[0]).tolist()


# --- measurement ------------------------------------------------------------


def test_measurement_distribution_examples():
    assert (rotated_amplitudes(1.0, 0.0, 0.0, 0.0) ** 2).tolist() == [1.0, 0.0, 0.0, 0.0]
    dist = rotated_amplitudes(SQH, -SQH, 0.0, 0.0) ** 2
    np.testing.assert_allclose(dist, (0.5, 0.0, 0.0, 0.5), atol=1e-12)


def test_measurement_distribution_is_a_distribution():
    rng = np.random.default_rng(9)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=500)
    phi_a, phi_b = rng.uniform(-math.pi, math.pi, size=(2, 500))
    dist = rotated_amplitudes(np.cos(theta), np.sin(theta), phi_a, phi_b) ** 2
    assert (dist >= 0.0).all()
    np.testing.assert_allclose(dist.sum(axis=-1), 1.0, rtol=0.0, atol=1e-12)

