import random

import pytest

from oracles import brute_force_best_simultaneous, brute_force_protocol_counts
from qccsim.classical import (
    MODE_SEQUENTIAL,
    MODE_SIMULTANEOUS,
    DeterministicProtocol,
    _decode_witness,
    _majority_out_alice,
    _output_counts,
    _subset_scores,
    baseline_protocol,
    enumerate_best,
    evaluate_protocol,
    run_protocol,
)


def bits(table):
    return "".join(map(str, table))


def test_baseline_single_inputs():
    p = baseline_protocol()
    run = run_protocol(p, 0b00, 0b00)
    assert run.out_alice == run.out_bob == 0  # f(00,00) = 0: success
    run = run_protocol(p, 0b01, 0b01)
    assert run.out_alice == run.out_bob == 0  # f(01,01) = 1: failure


@pytest.mark.parametrize("x,y", [(-1, 0), (4, 0), (0, -1), (0, 4), (1.0, 0), (None, 2)])
def test_run_protocol_refuses_inputs_outside_0_to_3(x, y):
    # -1 once ran as x = 3 by negative indexing, and 4 raised IndexError.
    with pytest.raises(ValueError, match=r"^inputs must be integers in 0\.\.3, got "):
        run_protocol(baseline_protocol(), x, y)


def test_run_protocol_refuses_unknown_mode():
    with pytest.raises(ValueError, match="^unknown mode 'sideways'$"):
        run_protocol(baseline_protocol()._replace(mode="sideways"), 0, 0)


def test_baseline_success_count():
    assert evaluate_protocol(baseline_protocol()) == 12


def test_constant_protocol_scores_eight():
    # Outputs always 0; the target is 0 on exactly 8 of the 16 input pairs.
    p = DeterministicProtocol(
        mode=MODE_SIMULTANEOUS,
        msg_alice=(0,) * 4,
        msg_bob=(0,) * 4,
        out_alice=(0,) * 8,
        out_bob=(0,) * 8,
    )
    assert evaluate_protocol(p) == 8


def test_disagreeing_outputs_never_succeed():
    p = DeterministicProtocol(
        mode=MODE_SIMULTANEOUS,
        msg_alice=(0,) * 4,
        msg_bob=(0,) * 4,
        out_alice=(0,) * 8,
        out_bob=(1,) * 8,
    )
    assert evaluate_protocol(p) == 0


def test_sequential_message_wiring():
    # Bob echoes Alice's bit back; Alice outputs what she received.
    p = DeterministicProtocol(
        mode=MODE_SEQUENTIAL,
        msg_alice=(1, 0, 0, 0),
        msg_bob=tuple((i & 1) for i in range(8)),  # cell 2*y + a -> a
        out_alice=tuple((i & 1) for i in range(8)),  # received bit
        out_bob=(0,) * 8,
    )
    run = run_protocol(p, 0, 3)
    assert run.msg_alice == 1
    assert run.msg_bob == 1
    assert run.out_alice == 1
    run = run_protocol(p, 2, 3)
    assert run.msg_alice == 0
    assert run.msg_bob == 0
    assert run.out_alice == 0


def test_enumeration_simultaneous():
    result = enumerate_best(MODE_SIMULTANEOUS)
    assert result.mode == MODE_SIMULTANEOUS
    assert result.protocols_examined == 16 * 16 * 256 * 256
    assert evaluate_protocol(result.witness) == 12


def test_enumeration_sequential():
    result = enumerate_best(MODE_SEQUENTIAL)
    assert result.protocols_examined == 16 * 256 * 256 * 256
    assert evaluate_protocol(result.witness) == 12
    witness = result.witness
    assert bits(witness.msg_alice) == "1000"
    assert bits(witness.msg_bob) == "11110000"
    assert bits(witness.out_alice) == "10010101"
    assert bits(witness.out_bob) == "10100101"


def test_enumeration_simultaneous_matches_brute_force():
    count, ma, mb, oa, ob = brute_force_best_simultaneous()
    result = enumerate_best(MODE_SIMULTANEOUS)
    assert result.best_success_count == count
    assert result.witness == DeterministicProtocol(
        mode=MODE_SIMULTANEOUS,
        msg_alice=tuple((ma >> i) & 1 for i in range(4)),
        msg_bob=tuple((mb >> i) & 1 for i in range(4)),
        out_alice=tuple((oa >> i) & 1 for i in range(8)),
        out_bob=tuple((ob >> i) & 1 for i in range(8)),
    )


@pytest.mark.parametrize("mode", [MODE_SIMULTANEOUS, MODE_SEQUENTIAL])
def test_separable_counts_match_brute_force(mode):
    tables = _subset_scores()
    sequential = mode == MODE_SEQUENTIAL
    rng = random.Random(20261018)
    for _ in range(32):
        ma, mb = rng.randrange(16), rng.randrange(256 if sequential else 16)
        brute = brute_force_protocol_counts(sequential, ma, mb)
        # for every ob, the sum of the two halves' tables is the best count over oa
        assert _output_counts(tables, mode, ma, mb) == brute.max(axis=0).tolist()
        # the majority table with ties at 0 is the smallest best table for each ob
        for ob in rng.sample(range(256), 8):
            protocol = _decode_witness(mode, ma, mb, 0, ob)
            assert _majority_out_alice(protocol) == int(brute[:, ob].argmax())


def test_enumeration_witness_is_deterministic():
    assert enumerate_best(MODE_SIMULTANEOUS) == enumerate_best(MODE_SIMULTANEOUS)


def test_enumeration_rejects_unknown_mode():
    with pytest.raises(ValueError):
        enumerate_best("adaptive")


def test_random_protocols_never_beat_the_maximum():
    rng = random.Random(20240601)
    for _ in range(10_000):
        p = DeterministicProtocol(
            mode=MODE_SIMULTANEOUS,
            msg_alice=tuple(rng.randint(0, 1) for _ in range(4)),
            msg_bob=tuple(rng.randint(0, 1) for _ in range(4)),
            out_alice=tuple(rng.randint(0, 1) for _ in range(8)),
            out_bob=tuple(rng.randint(0, 1) for _ in range(8)),
        )
        assert evaluate_protocol(p) <= 12
