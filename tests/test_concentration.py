import math

import numpy as np
import pytest

from oracles import COS2_PI8, SLOPE, kron_rotate, vidal_bound
from qccsim.classical import baseline_protocol, run_protocol
from qccsim.concentration import (
    concentration_strategy_value,
    concentration_success_probability,
    simulate_concentration_run,
)
from qccsim.optimize import optimal_closed_form
from qccsim.protocol import InputPair, target_function
from qccsim.state import SchmidtPair, epr_state, make_shared_state


def pair_for_beta_sq(beta_sq: float) -> SchmidtPair:
    return SchmidtPair(math.sqrt(1.0 - beta_sq), -math.sqrt(beta_sq))


def test_success_probability_values():
    assert concentration_success_probability(SchmidtPair(1.0, 0.0)) == 0.0
    assert concentration_success_probability(epr_state()) == 1.0
    assert concentration_success_probability(pair_for_beta_sq(0.25)) == 0.5


def test_strategy_value_endpoints():
    assert concentration_strategy_value(SchmidtPair(1.0, 0.0)) == 0.75
    assert abs(concentration_strategy_value(epr_state()) - COS2_PI8) < 1e-12


def test_strategy_value_quarter_point():
    assert abs(concentration_strategy_value(pair_for_beta_sq(0.25)) - 0.80177669529663687) < 1e-12


def test_two_branch_decomposition_identity():
    for beta_sq in np.linspace(0.0, 0.5, 101):
        pair = pair_for_beta_sq(float(beta_sq))
        p = concentration_success_probability(pair)
        assert 0.0 <= p <= 1.0
        mixture = p * COS2_PI8 + (1.0 - p) * 0.75
        assert abs(concentration_strategy_value(pair) - mixture) < 1e-12


def test_value_is_affine_in_beta_squared():
    for beta_sq in np.linspace(0.01, 0.5, 50):
        pair = pair_for_beta_sq(float(beta_sq))
        slope = (concentration_strategy_value(pair) - 0.75) / (pair.beta * pair.beta)
        assert abs(slope - SLOPE) < 1e-12


def test_curves_meet_at_endpoints():
    for beta_sq in (0.0, 0.5):
        pair = pair_for_beta_sq(beta_sq)
        gap = optimal_closed_form(pair).p_max - concentration_strategy_value(pair)
        assert abs(gap) < 1e-12


def test_vidal_bound_is_the_coin():
    # The bound depends only on the Schmidt coefficients, so local rotations,
    # which make the reduced density matrix non-diagonal, leave it unchanged.
    epr = epr_state()
    target = [epr.alpha, 0.0, 0.0, epr.beta]
    for beta_sq in np.linspace(0.0, 0.5, 101):
        pair = pair_for_beta_sq(float(beta_sq))
        coin = concentration_success_probability(pair)
        for angles in ((0.0, 0.0), (0.3, -1.1)):
            source = kron_rotate([pair.alpha, 0.0, 0.0, pair.beta], *angles)
            assert abs(vidal_bound(source, target) - coin) < 1e-14


def _gap(pair: SchmidtPair) -> float:
    return optimal_closed_form(pair).p_max - concentration_strategy_value(pair)


def test_gap_is_exactly_zero_at_the_ends_of_the_domain():
    assert _gap(make_shared_state(0.0)) == 0.0
    assert _gap(make_shared_state(math.radians(-45.0))) == 0.0


def test_gap_is_strictly_concave_in_beta_squared():
    gaps = np.array([_gap(pair_for_beta_sq(float(b))) for b in np.linspace(0.0, 0.5, 2001)])
    assert (np.diff(gaps, 2) < 0.0).all()


@pytest.mark.parametrize("beta_sq, step, direct_slope", [(0.0, 1e-6, 0.5), (0.5, -1e-6, 0.0)])
def test_slopes_at_the_ends_of_the_gap(beta_sq, step, direct_slope):
    # d p_max / d beta^2 is 1/2 at the product state and 0 at the maximal one;
    # concentrate-then-play rises at 2 cos^2(pi/8) - 3/2 = (sqrt 2 - 1)/2 throughout.
    end, near = pair_for_beta_sq(beta_sq), pair_for_beta_sq(beta_sq + step)
    run = near.beta ** 2 - end.beta ** 2
    direct = (optimal_closed_form(near).p_max - optimal_closed_form(end).p_max) / run
    concentrated = (concentration_strategy_value(near) - concentration_strategy_value(end)) / run
    assert abs(direct - direct_slope) < 1e-5
    assert abs(concentrated - (math.sqrt(2.0) - 1.0) / 2.0) < 1e-9


def test_coin_draws_one_uniform_then_one_per_measurement():
    # The product state never distills (coin only), the EPR state always does
    # (coin, then run_once's measurement); a twin generator counts the draws.
    for pair, draws in ((SchmidtPair(1.0, 0.0), 1), (epr_state(), 2)):
        rng, twin = np.random.default_rng(1), np.random.default_rng(1)
        for i in range(200):
            simulate_concentration_run(pair, InputPair(i % 4, i % 3), rng)
            twin.random(draws)
            assert rng.bit_generator.state == twin.bit_generator.state


def test_fallback_transcript_is_the_classical_baseline():
    rng = np.random.default_rng(2)
    for x in range(4):
        for y in range(4):
            t = simulate_concentration_run(SchmidtPair(1.0, 0.0), InputPair(x, y), rng)
            run = run_protocol(baseline_protocol(), x, y)
            assert (t.msg_alice, t.msg_bob, t.out_alice, t.out_bob) == run
            assert t.success == (run.out_alice == run.out_bob == target_function(t.inputs))


def test_simulation_classical_branch_is_the_baseline():
    rng = np.random.default_rng(3)
    pair = SchmidtPair(1.0, 0.0)
    for x in range(4):
        for y in range(4):
            t = simulate_concentration_run(pair, InputPair(x, y), rng)
            assert (t.a, t.b) == (0, 0)
            assert (t.msg_alice, t.msg_bob) == (x >> 1, y >> 1)
            assert t.out_alice == t.out_bob == (x >> 1) ^ (y >> 1)
            assert t.success == (((x & 1) & (y & 1)) == 0)


def test_simulation_epr_branch_plays_the_entangled_strategy():
    rng = np.random.default_rng(4)
    for _ in range(500):
        inputs = InputPair(int(rng.integers(4)), int(rng.integers(4)))
        t = simulate_concentration_run(epr_state(), inputs, rng)
        assert t.out_alice == t.out_bob == t.msg_alice ^ t.msg_bob
        assert t.success == (t.out_alice == target_function(inputs))


def test_vectorized_two_branch_oracle_matches_value():
    # Independent check of the mixture value: sample the distillation coin,
    # then a Bernoulli success at the branch value.
    pair = pair_for_beta_sq(0.25)
    rng = np.random.default_rng(600)
    n = 10**6
    succeeded = rng.random(n) < concentration_success_probability(pair)
    branch_p = np.where(succeeded, COS2_PI8, 0.75)
    wins = rng.random(n) < branch_p
    estimate = wins.mean()
    sigma = math.sqrt(estimate * (1.0 - estimate) / n)
    assert abs(estimate - concentration_strategy_value(pair)) < 5.0 * sigma


def test_simulated_runs_match_value():
    pair = pair_for_beta_sq(0.25)
    rng = np.random.default_rng(601)
    n = 10**5
    wins = sum(simulate_concentration_run(pair, InputPair(x, y), rng).success
               for x, y in rng.integers(0, 4, size=(n, 2)).tolist())
    estimate = wins / n
    sigma = math.sqrt(estimate * (1.0 - estimate) / n)
    assert abs(estimate - 0.80177669529663687) < 5.0 * sigma
