import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qccsim import protocol
from qccsim.protocol import (
    AngleSet,
    InputPair,
    _outcome_edges,
    _outcome_table,
    closed_form_p,
    exact_success_probability,
    monte_carlo,
    run_once,
    target_function,
)
from qccsim.optimize import optimal_closed_form
from qccsim.state import SchmidtPair, epr_state, make_shared_state
from oracles import (COS2_PI8, EPR_ANGLES, four_angle_win, kron_rotate, oracle_tallies,
                     pcg64_words, success_probability_full_input)


def random_canonical_pair(rng):
    return make_shared_state(float(rng.uniform(-math.pi / 4, 0.0)))


# --- target function and angle choice ---------------------------------------


def test_target_function_full_table():
    for x in range(4):
        for y in range(4):
            want = ((x >> 1) ^ (y >> 1)) ^ ((x & 1) & (y & 1))
            assert target_function(InputPair(x, y)) == want


@pytest.mark.parametrize("x,y", [(5, 0), (4, 0), (0, 4), (-1, 0), (0, -1), (1.5, 0), ("1", 0),
                                 (None, 2)])
def test_input_pairs_refuse_values_outside_0_to_3(x, y):
    # 5 would score against f = 2, and -1 would play as x = 3 but score as -1.
    valid = InputPair(1, 2)
    for build in (lambda: InputPair(x, y), lambda: InputPair._make([x, y]),
                  lambda: valid._replace(x=x, y=y)):
        with pytest.raises(ValueError, match=r"^inputs must be integers in 0\.\.3, got "):
            build()


def test_input_pairs_accept_integers_0_to_3():
    # numpy integers, as a generator draws them, pass operator.index.
    assert InputPair(np.int64(3), True) == (3, 1)
    assert InputPair._make([3, 2]) == InputPair(1, 2)._replace(x=3) == (3, 2)


def test_phi1_turns_a_low_bit_of_0_and_phi2_a_low_bit_of_1():
    # On |00>, phi1 must turn a party whose low bit is 0 and phi2 one whose
    # low bit is 1: only Bob turns (by pi/4) at (0, 1), only Alice at (1, 0).
    report = exact_success_probability(SchmidtPair(1.0, 0.0), AngleSet(0.0, math.pi / 4))
    np.testing.assert_allclose(report[:4], (1.0, 0.5, 0.5, 0.5), atol=1e-12)
    report = exact_success_probability(SchmidtPair(1.0, 0.0), AngleSet(math.pi / 4, 0.0))
    np.testing.assert_allclose(report[:4], (0.5, 0.5, 0.5, 0.0), atol=1e-12)


# --- local rotations and measurement: protocol._outcome_table ---------------
# Row 2*x0 + y0 of the table holds the outcome probabilities, in basis order,
# after Alice turns by phi[x0] and Bob by phi[y0].


def test_outcome_table_identity():
    # unrotated, the pair alpha|00> + beta|11> gives |00> or |11>, in every row
    pairs = [SchmidtPair(1.0, 0.0), epr_state(), make_shared_state(-math.pi / 6),
             make_shared_state(-0.3), SchmidtPair(0.6, 0.8)]
    for pair in pairs:
        alpha, beta = pair.alpha, pair.beta
        assert _outcome_table(alpha, beta, 0.0, 0.0) == [(alpha * alpha, 0.0, 0.0, beta * beta)] * 4


def test_outcome_table_quarter_turn():
    # |00> with a quarter turn on the low bit 1: Alice's (row x0 = 1, y0 = 0) gives |10>,
    # Bob's (row x0 = 0, y0 = 1) gives |01>, both give |11>.
    table = _outcome_table(1.0, 0.0, 0.0, math.pi / 2)
    for row, want in zip(table, [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                                 (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]):
        np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-12)


def test_outcome_table_frozen_example():
    # (|00> - |11>)/sqrt(2) with Alice turned by -pi/16 and Bob by 3pi/16 (row x0 = 0, y0 = 1);
    # the amplitudes were computed once with the independent Kronecker-product oracle.
    row = _outcome_table(math.sqrt(0.5), -math.sqrt(0.5), *EPR_ANGLES)[1]
    amplitudes = (0.65328148243818829, 0.2705980500730984, 0.2705980500730984, -0.65328148243818829)
    np.testing.assert_allclose(row, np.square(amplitudes), rtol=0.0, atol=1e-12)


def test_outcome_table_matches_kron_oracle():
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


# --- exact per-input probabilities ------------------------------------------


@pytest.mark.parametrize("evaluate", [closed_form_p, exact_success_probability])
def test_plain_tuple_angles_are_refused(evaluate):
    # A plain tuple skips AngleSet's checks, so the evaluators read the angles by name.
    with pytest.raises(AttributeError):
        evaluate(epr_state(), (math.nan, 0.1))


def test_angle_sets_refuse_angles_whose_double_overflows():
    # closed_form_p evaluates sin(2 phi): 2e308 is inf, and math.sin(inf) raises.
    # An int beyond every float is refused alike, not with OverflowError.
    for build in (lambda: AngleSet(1e308, 0.0), lambda: AngleSet(0.0, -1e308),
                  lambda: AngleSet(*EPR_ANGLES)._replace(phi1=1e308),
                  lambda: AngleSet(10**400, 0.0), lambda: AngleSet(0.0, -10**400)):
        with pytest.raises(ValueError, match=r"^rotation angles must lie within \+-8\.98"):
            build()
    angles = AngleSet(8e307, 0.0)
    assert math.isfinite(closed_form_p(epr_state(), angles))
    assert all(math.isfinite(p) for p in exact_success_probability(epr_state(), angles))


def test_exact_total_is_mean_of_per_input():
    rng = np.random.default_rng(21)
    for _ in range(200):
        pair = random_canonical_pair(rng)
        angles = AngleSet(*rng.uniform(-math.pi, math.pi, size=2))
        report = exact_success_probability(pair, angles)
        mean = (report.p00 + report.p01 + report.p10 + report.p11) / 4.0
        assert abs(report.total - mean) < 1e-12


def test_exact_matches_brute_force_frozen_example():
    pair = make_shared_state(-math.pi / 8)
    angles = AngleSet(0.1, -0.2)
    report = exact_success_probability(pair, angles)
    assert abs(report.total - 0.76328898328267136) < 1e-12
    assert abs(report.total - four_angle_win(pair.alpha, pair.beta, 0.1, -0.2, 0.1, -0.2)) < 1e-12


# --- closed form -------------------------------------------------------------


def test_closed_form_product_state_zero_angles():
    assert closed_form_p(SchmidtPair(1.0, 0.0), AngleSet(0.0, 0.0)) == 0.75


def test_closed_form_symmetric_angles_simplification():
    rng = np.random.default_rng(22)
    for _ in range(200):
        pair = random_canonical_pair(rng)
        phi = float(rng.uniform(-math.pi, math.pi))
        expected = (
            0.5
            + 0.25 * math.cos(2 * phi) ** 2
            + 0.5 * pair.alpha * pair.beta * math.sin(2 * phi) ** 2
        )
        assert abs(closed_form_p(pair, AngleSet(phi, phi)) - expected) < 1e-12


def test_high_bits_never_affect_success():
    rng = np.random.default_rng(24)
    for _ in range(100):
        pair = random_canonical_pair(rng)
        angles = AngleSet(*rng.uniform(-math.pi, math.pi, size=2))
        for x0 in (0, 1):
            for y0 in (0, 1):
                values = [
                    success_probability_full_input(
                        pair.alpha, pair.beta, angles.phi1, angles.phi2,
                        (x1 << 1) | x0, (y1 << 1) | y0,
                    )
                    for x1 in (0, 1)
                    for y1 in (0, 1)
                ]
                reference = exact_success_probability(pair, angles)[2 * x0 + y0]
                for v in values:
                    assert abs(v - reference) < 1e-12


# --- sampled executions -------------------------------------------------------


def test_run_once_deterministic_success_case():
    rng = np.random.default_rng(0)
    t = run_once(SchmidtPair(1.0, 0.0), AngleSet(0.0, 0.0), InputPair(0b10, 0b00), rng)
    assert (t.a, t.b) == (0, 0)
    assert (t.msg_alice, t.msg_bob) == (1, 0)
    assert t.out_alice == t.out_bob == 1
    assert t.success


def test_run_once_deterministic_failure_case():
    rng = np.random.default_rng(0)
    t = run_once(SchmidtPair(1.0, 0.0), AngleSet(0.0, 0.0), InputPair(0b01, 0b01), rng)
    assert (t.a, t.b) == (0, 0)
    assert t.out_alice == t.out_bob == 0
    assert target_function(t.inputs) == 1
    assert not t.success


def test_run_once_deterministic_states():
    # From |00>, phi2 = pi/2 flips a qubit, so each (x0, y0) fixes the outcome to (x0, y0).
    angles = AngleSet(0.0, math.pi / 2)
    for seed in (0, 1, 12345):
        rng = np.random.default_rng(seed)
        for x in range(4):
            for y in range(4):
                t = run_once(SchmidtPair(1.0, 0.0), angles, InputPair(x, y), rng)
                assert (t.a, t.b) == (x & 1, y & 1)


def test_run_once_epr_outcome_frequencies():
    # Unrotated, the EPR pair gives 00 or 11 with probability 1/2 each, at every input:
    # each row's three CDF edges all sit at 1/2.
    pair, angles = epr_state(), AngleSet(0.0, 0.0)
    for edges in _outcome_edges(pair, angles):
        for edge in edges:
            assert abs(edge - 0.5) < 1e-15
    # So a == b on every round: rows 0-2 (even parity wins) are always won, row 3 never.
    counts = monte_carlo(pair, angles, 10**6, 2024).per_input_counts
    for (x0, y0), (wins, drawn) in counts.items():
        assert wins == (0 if x0 & y0 else drawn)
    assert sum(drawn for _, drawn in counts.values()) == 10**6


def test_transcript_relations_hold_on_random_runs():
    rng = np.random.default_rng(31)
    pair = epr_state()
    for _ in range(2000):
        inputs = InputPair(int(rng.integers(4)), int(rng.integers(4)))
        t = run_once(pair, AngleSet(*EPR_ANGLES), inputs, rng)
        assert t.out_alice == t.out_bob == t.msg_alice ^ t.msg_bob
        assert t.msg_alice == t.a ^ inputs.x1
        assert t.msg_bob == t.b ^ inputs.y1
        assert t.success == (t.out_alice == target_function(inputs))


# --- Monte Carlo harness ------------------------------------------------------


def test_monte_carlo_single_trial():
    result = monte_carlo(SchmidtPair(1.0, 0.0), AngleSet(0.0, 0.0), 1, 7)
    assert result.estimate in (0.0, 1.0)


def test_monte_carlo_epr_million_trials():
    result = monte_carlo(epr_state(), AngleSet(*EPR_ANGLES), 10**6, 42)
    assert abs(result.estimate - COS2_PI8) < 5.0 * result.std_error


def test_monte_carlo_counts_partition_trials():
    result = monte_carlo(epr_state(), AngleSet(*EPR_ANGLES), 10_000, 5)
    totals = sum(n for _, n in result.per_input_counts.values())
    assert totals == 10_000
    assert set(result.per_input_counts) == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("seed", [0, 1, 2**64, 2**100 + 3])
def test_pcg64_words_equal_numpy_raw_stream(seed):
    words = list(itertools.islice(pcg64_words(seed), 1000))
    assert words == np.random.PCG64(seed).random_raw(1000).tolist()


@pytest.mark.parametrize(
    "pair,angles,trials,seed",
    [
        (epr_state(), AngleSet(*EPR_ANGLES), 1, 0),
        (make_shared_state(-0.5), AngleSet(0.2, -0.4), 2**14 - 1, 15),
        (SchmidtPair(0.8, 0.6), AngleSet(0.3, -1.1), 2**14 + 1, 2**100 + 3),  # alpha*beta > 0
        (make_shared_state(-0.5), AngleSet(0.0, 0.0), 3 * 2**14 + 5, 2**64),
    ],
    ids=["one_trial", "chunk_less_one", "ab_positive_large_seed", "zero_angles_large_seed"],
)
def test_monte_carlo_tallies_equal_oracle(pair, angles, trials, seed):
    want = oracle_tallies(pair.alpha, pair.beta, *angles, trials, seed)
    assert monte_carlo(pair, angles, trials, seed).per_input_counts == want


def _looped_run_once_counts(pair, angles, n, seed):
    # Looping run_once over one Generator's integers(0, 4, size=(n, 2)) block, then
    # one random() per round, draws what monte_carlo's raw-word order reads.  That
    # is a property of Generator.integers and Generator.random, not the definition
    # of the draw order (oracle_tallies pins that), and the tests using this are the
    # suite's one check of it.  They stay because the on-edge test is the only
    # killer of the monte_carlo.parity_edges and run_once.bisect_left mutants.
    rng = np.random.default_rng(seed)
    counts = {(x0, y0): [0, 0] for x0 in (0, 1) for y0 in (0, 1)}
    for x, y in rng.integers(0, 4, size=(n, 2)).tolist():
        t = run_once(pair, angles, InputPair(x, y), rng)
        tally = counts[(t.inputs.x0, t.inputs.y0)]
        tally[0] += t.success
        tally[1] += 1
    return {key: tuple(tally) for key, tally in counts.items()}


# The last chi is outside the canonical domain: there alpha*beta > 0.
@pytest.mark.parametrize("chi", [-math.pi / 4, -0.5, math.atan2(0.6, 0.8)])
def test_monte_carlo_tallies_equal_looped_run_once(chi):
    # The trials span several chunks, the last one partial.
    pair = SchmidtPair(math.cos(chi), math.sin(chi))
    angles = AngleSet(0.2, -0.4)
    n, seed = 3 * protocol._CHUNK + 5, 8
    want = _looped_run_once_counts(pair, angles, n, seed)
    assert monte_carlo(pair, angles, n, seed).per_input_counts == want


# Unrotated, every row's three CDF edges coincide (at 1, about 1/2 and 0), so no
# uniform lies between a row's first and last edge: every round has even parity.
@pytest.mark.parametrize(
    "pair", [SchmidtPair(1.0, 0.0), epr_state(), SchmidtPair(0.0, 1.0)], ids=["00", "epr", "11"]
)
def test_monte_carlo_tallies_equal_looped_run_once_where_edges_coincide(pair):
    angles = AngleSet(0.0, 0.0)
    assert len({edge for row in _outcome_edges(pair, angles) for edge in row}) == 1
    n, seed = 3 * protocol._CHUNK + 5, 8
    want = _looped_run_once_counts(pair, angles, n, seed)
    assert monte_carlo(pair, angles, n, seed).per_input_counts == want


# Every row's edges put the first trial's uniform u exactly on its first edge, or on its
# last: a uniform on an edge counts as above it, so u gives odd parity on the first
# (outcome 2) and even parity on the last (outcome 3).
@pytest.mark.parametrize("edges", [lambda u: (u, u, 1.0), lambda u: (0.0, u, u)],
                         ids=["first", "last"])
def test_a_uniform_on_an_edge_counts_as_above_it(edges, monkeypatch):
    n, seed = 5, 3
    # The first trial's uniform is (raw word n >> 11) * 2**-53.
    word = int(np.random.PCG64(seed).random_raw(n + 1)[n])
    table = (edges((word >> 11) * 2.0**-53),) * 4
    monkeypatch.setattr(protocol, "_outcome_edges", lambda *_: table)
    pair, angles = epr_state(), AngleSet(0.0, 0.0)
    want = _looped_run_once_counts(pair, angles, n, seed)
    assert monte_carlo(pair, angles, n, seed).per_input_counts == want


@pytest.mark.parametrize(
    "pair,angles",
    [
        (make_shared_state(-0.5), AngleSet(0.2, -0.4)),
        (SchmidtPair(0.8, 0.6), AngleSet(0.3, -1.1)),  # alpha*beta > 0
    ],
)
def test_monte_carlo_tallies_do_not_depend_on_chunk_size(pair, angles, monkeypatch):
    # Each chunk size must tally what one chunk of all the trials tallies.
    def counts(chunk, trials):
        monkeypatch.setattr(protocol, "_CHUNK", chunk)
        return monte_carlo(pair, angles, trials, 21).per_input_counts

    for chunk in (1, 3, 1000, 2**14, 2**16):
        for trials in (1, chunk + 1, 3 * chunk + 7):
            assert counts(chunk, trials) == counts(trials, trials), (chunk, trials)


def test_monte_carlo_memory_is_bounded():
    # Chunked draws: the peak does not grow with the number of trials.
    pair, angles = make_shared_state(-0.5), AngleSet(0.2, -0.4)
    monte_carlo(pair, angles, 1, 1)  # numpy loads numpy.random lazily, on the first call
    peaks = []
    for trials in (2**17, 2**22):
        tracemalloc.start()
        try:
            monte_carlo(pair, angles, trials, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert peaks[1] < 2**20


def test_monte_carlo_within_five_sigma_across_seeds():
    pair = make_shared_state(math.radians(-30.0))
    sol = optimal_closed_form(pair)
    angles = AngleSet(sol.phi1, sol.phi2)
    exact = closed_form_p(pair, angles)
    inside = 0
    for seed in range(100):
        result = monte_carlo(pair, angles, 20_000, seed)
        inside += abs(result.estimate - exact) <= 5.0 * result.std_error
    assert inside >= 99


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ValueError):
        monte_carlo(epr_state(), AngleSet(*EPR_ANGLES), 0, 1)
