"""Classical side of the game: the 3/4 baseline and an exact search over
all deterministic two-bit protocols.

A deterministic protocol is four lookup tables: each party's message as a
function of its input, and each party's output as a function of its input
and the bit it received.  Two message orderings are covered:

* ``simultaneous`` -- both messages depend only on the sender's input;
* ``sequential``   -- Alice sends first and Bob's message may also depend
  on the bit he received from her.

The search never tries Alice's output tables one by one: against fixed
messages and Bob's outputs her best table is a per-cell majority vote.  Nor
does it try Bob's output tables one by one: with Alice's message table
fixed, the count splits into the inputs where she sends 0, which see only
the even bits of Bob's output table, and those where she sends 1, which see
only the odd bits, and each half is maximized on its own over small integer
tables.  The search is plain Python on 4-bit and 8-bit integers; the module
imports no numpy, so ``python -m qccsim classical`` starts without it.

Shared randomness is a convex mixture of deterministic protocols, so the
deterministic maximum found by the search bounds randomized protocols too.
Success counts are exact integers out of the 16 equiprobable input pairs
and probabilities are exposed as Fractions, so the headline 12/16 = 3/4
never passes through floating point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

MODE_SIMULTANEOUS = "simultaneous"
MODE_SEQUENTIAL = "sequential"

N_INPUT_PAIRS = 16


class DeterministicProtocol(NamedTuple):
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


class EnumerationResult(NamedTuple):
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
    """f(x, y) = x1 XOR y1 XOR (x0 AND y0), written once for the package."""
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
# the per-cell majority of the target over the pairs where Bob is right.
#
# The count separates over the bit Alice sends.  Where she sends a, Bob's
# output reads only the bits 2*y + a of ``ob`` (its even or odd half, a 4-bit
# table over y), and she receives a 4-bit pattern over y: ``mb`` itself
# (simultaneous), or its even or odd half (sequential).  With X0 and X1 the
# inputs where she sends 0 and 1, the best count over her output tables is
#
#     G[X0][p0][even(ob)] + G[X1][p1][odd(ob)]
#
# where G[xs][p][h] sums, over the inputs x in xs, the pairs (x, y) won with
# received pattern p and Bob's half h.  Each half is maximized on its own.

_POPCOUNT = [bin(i).count("1") for i in range(16)]
# bits 2*y (even) and 2*y + 1 (odd) of an 8-bit table, packed into bit y
_EVEN = [sum(((t >> 2 * y) & 1) << y for y in range(4)) for t in range(256)]
_ODD = [_EVEN[t >> 1] for t in range(256)]


def _input_scores() -> list[list[int]]:
    """``score[x][16*p + h]``: pairs (x, y) won at input x when Alice receives
    pattern p and Bob outputs bit y of h, with Alice on her majority bits."""
    scores = []
    for x in range(4):
        ones = sum(_target(x, y) << y for y in range(4))  # the y with target 1
        # per h: the y where Bob is right and the target is 1, and where it is 0
        right = [(h & ones, ~h & ~ones & 15) for h in range(16)]
        scores.append([
            max(_POPCOUNT[p & r1], _POPCOUNT[p & r0]) + max(_POPCOUNT[q & r1], _POPCOUNT[q & r0])
            for p, q in zip(range(16), range(15, -1, -1)) for r1, r0 in right
        ])
    return scores


def _subset_scores() -> list[list[int]]:
    """``G[xs]``: the sum of ``_input_scores()[x]`` over the bits x of ``xs``,
    each table its parent subset (``xs`` without its lowest bit) plus one input."""
    scores = _input_scores()
    tables = [[0] * 256]
    for xs in range(1, 16):
        low = (xs & -xs).bit_length() - 1
        tables.append(list(map(int.__add__, tables[xs & (xs - 1)], scores[low])))
    return tables


def _patterns(mode: str, mb: int) -> tuple[int, int]:
    """Alice's received pattern where she sent 0 and where she sent 1."""
    return (mb, mb) if mode == MODE_SIMULTANEOUS else (_EVEN[mb], _ODD[mb])


def _output_counts(tables: list[list[int]], mode: str, ma: int, mb: int) -> list[int]:
    """``counts[ob]``: the best success count over Alice's output tables."""
    p0, p1 = _patterns(mode, mb)
    g0 = tables[15 ^ ma][16 * p0:16 * p0 + 16]
    g1 = tables[ma][16 * p1:16 * p1 + 16]
    return [g0[e] + g1[o] for e, o in zip(_EVEN, _ODD)]


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

    Alice's best output table is her per-cell majority and Bob's splits into
    two halves maximized on their own, so the search covers all
    16 * n_mb * 256 * 256 protocols (n_mb = 16 simultaneous, 256 sequential)
    without evaluating each; ``protocols_examined`` reports that
    number.  Ties resolve to the lexicographically smallest encoding
    (msg_alice, msg_bob, out_alice, out_bob), so the witness is deterministic.
    """
    if mode not in (MODE_SIMULTANEOUS, MODE_SEQUENTIAL):
        raise ValueError(f"unknown mode {mode!r}")

    tables = _subset_scores()
    best = [[max(t[i:i + 16]) for i in range(0, 256, 16)] for t in tables]  # [xs][p]
    patterns = [_patterns(mode, mb) for mb in range(16 if mode == MODE_SIMULTANEOUS else 256)]
    # best count over the output tables, per [ma][mb]
    rows = [[best[15 ^ ma][p0] + best[ma][p1] for p0, p1 in patterns] for ma in range(16)]
    tops = [max(row) for row in rows]
    count = max(tops)
    ma = tops.index(count)  # first maximum: smallest msg_alice
    mb = rows[ma].index(count)  # smallest msg_bob
    counts = _output_counts(tables, mode, ma, mb)
    oa, ob = min((_majority_out_alice(_decode_witness(mode, ma, mb, 0, ob)), ob)
                 for ob, c in enumerate(counts) if c == count)
    from fractions import Fraction  # here, not at the top: the analytic commands never need it

    return EnumerationResult(
        best_success_count=count,
        best_probability=Fraction(count, N_INPUT_PAIRS),
        witness=_decode_witness(mode, ma, mb, oa, ob),
        mode=mode,
        protocols_examined=16 * len(patterns) * 256 * 256,
    )
