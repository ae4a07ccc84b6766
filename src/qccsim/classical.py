"""Classical side of the game: the 3/4 baseline and an exact search over
all deterministic two-bit protocols.

A deterministic protocol is four lookup tables: each party's message as a
function of its input, and each party's output as a function of its input
and the bit it received.  Two message orderings are covered:

* ``simultaneous`` -- both messages depend only on the sender's input;
* ``sequential``   -- Alice sends first and Bob's message may also depend
  on the bit he received from her.

The search never tries Alice's output tables one by one: against fixed
messages and Bob's outputs her best table is a per-cell majority vote.

Shared randomness is a convex mixture of deterministic protocols, so the
deterministic maximum found by the search bounds randomized protocols too.
Success counts are exact integers out of the 16 equiprobable input pairs
and probabilities are exposed as Fractions, so the headline 12/16 = 3/4
never passes through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

MODE_SIMULTANEOUS = "simultaneous"
MODE_SEQUENTIAL = "sequential"

N_INPUT_PAIRS = 16


@dataclass(frozen=True)
class DeterministicProtocol:
    """Lookup tables of one deterministic protocol.

    ``msg_alice[x]`` is Alice's message bit.  In simultaneous mode
    ``msg_bob[y]`` is Bob's; in sequential mode ``msg_bob[2*y + received]``
    lets his message depend on Alice's bit.  ``out_alice[2*x + received]``
    and ``out_bob[2*y + received]`` are the output bits.
    """

    mode: str
    msg_alice: tuple[int, ...]
    msg_bob: tuple[int, ...]
    out_alice: tuple[int, ...]
    out_bob: tuple[int, ...]


@dataclass(frozen=True)
class EnumerationResult:
    best_success_count: int
    best_probability: Fraction
    witness: DeterministicProtocol
    mode: str
    protocols_examined: int


class ProtocolRun(NamedTuple):
    """Messages and outputs of one protocol evaluation on inputs (x, y)."""

    msg_alice: int
    msg_bob: int
    out_alice: int
    out_bob: int


def _target(x: int, y: int) -> int:
    return (x >> 1) ^ (y >> 1) ^ ((x & 1) & (y & 1))


def baseline_protocol() -> DeterministicProtocol:
    """The 3/4-achieving strategy: exchange high bits, output their XOR.

    Both parties effectively guess x0 AND y0 = 0, which holds on 12 of the
    16 input pairs.
    """
    high = (0, 0, 1, 1)  # x -> x1
    # cell 2*x + received  ->  high bit of x XOR received bit
    out = tuple(((i >> 1) >> 1) ^ (i & 1) for i in range(8))
    return DeterministicProtocol(
        mode=MODE_SIMULTANEOUS, msg_alice=high, msg_bob=high, out_alice=out, out_bob=out
    )


def run_protocol(p: DeterministicProtocol, x: int, y: int) -> ProtocolRun:
    """Evaluate a protocol on one input pair."""
    msg_a = p.msg_alice[x]
    if p.mode == MODE_SIMULTANEOUS:
        msg_b = p.msg_bob[y]
    elif p.mode == MODE_SEQUENTIAL:
        msg_b = p.msg_bob[2 * y + msg_a]
    else:
        raise ValueError(f"unknown mode {p.mode!r}")
    return ProtocolRun(
        msg_alice=msg_a,
        msg_bob=msg_b,
        out_alice=p.out_alice[2 * x + msg_b],
        out_bob=p.out_bob[2 * y + msg_a],
    )


def evaluate_protocol(p: DeterministicProtocol) -> int:
    """Number of the 16 input pairs on which BOTH outputs equal the target."""
    count = 0
    for x in range(4):
        for y in range(4):
            run = run_protocol(p, x, y)
            want = _target(x, y)
            count += run.out_alice == want and run.out_bob == want
    return count


# ---------------------------------------------------------------------------
# Exact search.  Tables are encoded as integers: bit x of ``ma``, bit y (or
# 2*y + received, sequential) of ``mb``, bit 2*input + received of the output
# tables ``oa`` and ``ob``.  With ``ma``, ``mb`` and ``ob`` fixed, each of
# Alice's cells (x, received) covers its own input pairs, so her best table is
# the per-cell majority of the target over the pairs where Bob is right.  At
# input x she receives a 4-bit pattern over y: ``mb`` itself (simultaneous),
# or the even bits of ``mb`` where she sent 0 and its odd bits where she sent
# 1 (sequential).  The best count is then a sum of small integer tables.


def _cell_scores() -> np.ndarray:
    """``score[x, a, p, ob]``: pairs (x, y) won when Alice, having sent ``a`` at
    input x and received pattern ``p``, plays her majority bits against ``ob``."""
    x = np.arange(4)[:, None, None, None]
    a = np.arange(2)[None, :, None, None]
    y = np.arange(4)[None, None, :, None]
    ob = np.arange(256)
    f = (x >> 1) ^ (y >> 1) ^ (x & y & 1)
    bob_right = ((ob >> (2 * y + a)) & 1) == f
    received = (np.arange(16)[:, None] >> np.arange(4)) & 1  # [p, y]
    wins = [(bob_right & (f == bit)).astype(np.int64) for bit in (0, 1)]  # [x, a, y, ob]
    in_one = [received @ w for w in wins]  # [x, a, p, ob], in the cell where she received 1
    in_zero = [w.sum(axis=2, keepdims=True) - c for w, c in zip(wins, in_one)]
    return (np.maximum(*in_one) + np.maximum(*in_zero)).astype(np.uint8)


def _received_patterns(mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Alice's received pattern for every ``mb``, where she sent 0 and where she sent 1."""
    if mode == MODE_SIMULTANEOUS:
        return np.arange(16), np.arange(16)
    mb, y = np.arange(256)[:, None], np.arange(4)
    even, odd = ((((mb >> (2 * y + a)) & 1) << y).sum(axis=1) for a in (0, 1))
    return even, odd


def _best_counts(score: np.ndarray, patterns: tuple[np.ndarray, np.ndarray], ma: int) -> np.ndarray:
    """``counts[mb, ob]``: the best success count over Alice's output tables."""
    sent = (ma >> np.arange(4)) & 1
    g0, g1 = (score[sent == a, a].sum(axis=0, dtype=np.uint8) for a in (0, 1))
    return g0[patterns[0]] + g1[patterns[1]]


def _majority_out_alice(p: DeterministicProtocol) -> int:
    """Alice's smallest best output table against the rest of ``p``: the
    per-cell majority, with 0 on a tie."""
    votes = [0] * 8  # per cell: pairs won by output 1 minus pairs won by output 0
    for x in range(4):
        for y in range(4):
            run = run_protocol(p, x, y)
            want = _target(x, y)
            if run.out_bob == want:
                votes[2 * x + run.msg_bob] += 2 * want - 1
    return sum(1 << cell for cell, vote in enumerate(votes) if vote > 0)


def _decode_witness(mode: str, ma: int, mb: int, oa: int, ob: int) -> DeterministicProtocol:
    mb_len = 4 if mode == MODE_SIMULTANEOUS else 8
    return DeterministicProtocol(
        mode=mode,
        msg_alice=tuple((ma >> x) & 1 for x in range(4)),
        msg_bob=tuple((mb >> i) & 1 for i in range(mb_len)),
        out_alice=tuple((oa >> i) & 1 for i in range(8)),
        out_bob=tuple((ob >> i) & 1 for i in range(8)),
    )


def enumerate_best(mode: str) -> EnumerationResult:
    """Find the best deterministic protocol in the given mode, exactly.

    Alice's best output table is her per-cell majority, so the search covers
    all 16 * n_mb * 256 * 256 protocols (n_mb = 16 simultaneous, 256
    sequential) without evaluating each; ``protocols_examined`` reports that
    number.  Ties resolve to the lexicographically smallest encoding
    (msg_alice, msg_bob, out_alice, out_bob), so the witness is deterministic.
    """
    if mode not in (MODE_SIMULTANEOUS, MODE_SEQUENTIAL):
        raise ValueError(f"unknown mode {mode!r}")

    score = _cell_scores()
    patterns = _received_patterns(mode)
    tops = [int(_best_counts(score, patterns, ma).max()) for ma in range(16)]
    count = max(tops)
    ma = tops.index(count)  # first maximum: smallest msg_alice
    counts = _best_counts(score, patterns, ma)
    mb = int(counts.argmax()) // 256  # first maximum in [mb, ob] order: smallest msg_bob
    oa, ob = min((_majority_out_alice(_decode_witness(mode, ma, mb, 0, ob)), ob)
                 for ob in map(int, np.flatnonzero(counts[mb] == count)))
    return EnumerationResult(
        best_success_count=count,
        best_probability=Fraction(count, N_INPUT_PAIRS),
        witness=_decode_witness(mode, ma, mb, oa, ob),
        mode=mode,
        protocols_examined=16 * len(patterns[0]) * 256 * 256,
    )
