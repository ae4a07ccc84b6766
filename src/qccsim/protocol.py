"""The entangled two-bit communication game: exact values and sampled runs.

Alice holds x = x1x0 and Bob holds y = y1y0 (two bits each); after one
classical bit in each direction both parties must output

    f(x, y) = x1 XOR y1 XOR (x0 AND y0).

Strategy: the low bit picks which rotation each party applies to its half of
the shared pair (phi1 for a low bit of 0, phi2 for 1), the rotated qubits are
measured to give bits a and b, and the parties exchange a XOR x1 and
b XOR y1.  XOR-ing the two exchanged bits yields x1 XOR y1 XOR (a XOR b) on
both sides, which equals f exactly when the outcome parity a XOR b matches
x0 AND y0.  High bits therefore cancel out of the success probability; only
(x0, y0) matters.

The exact values (``exact_success_probability``, ``closed_form_p`` and the
CDF edges behind ``run_once``) run in pure Python on Python numbers; numpy
is imported only inside the vectorized sampler ``monte_carlo``, the only
place in the package that loads it.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from typing import TYPE_CHECKING, NamedTuple

from .classical import _check_inputs, _target
from .state import SchmidtPair

if TYPE_CHECKING:
    import numpy as np


class InputPair(NamedTuple("InputPair", [("x", int), ("y", int)])):
    """Classical inputs x, y, each in {0, 1, 2, 3} with bits (high, low).

    However the pair is built, an input that is not an integer in 0..3
    raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int) -> "InputPair":
        _check_inputs(x, y)
        return super().__new__(cls, x, y)

    @classmethod
    def _make(cls, iterable) -> "InputPair":
        return cls(*iterable)  # so that _replace checks too

    @property
    def x1(self) -> int:
        return (self.x >> 1) & 1

    @property
    def x0(self) -> int:
        return self.x & 1

    @property
    def y1(self) -> int:
        return (self.y >> 1) & 1

    @property
    def y0(self) -> int:
        return self.y & 1


# closed_form_p doubles each angle, and the double must stay finite.
_MAX_ANGLE = sys.float_info.max / 2


class AngleSet(NamedTuple("AngleSet", [("phi1", float), ("phi2", float)])):
    """Strategy angles: phi1 when a party's low bit is 0, phi2 when it is 1.

    However the set is built, a non-finite angle, or one beyond
    ``_MAX_ANGLE`` in magnitude, raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, phi1: float, phi2: float) -> "AngleSet":
        try:
            finite = math.isfinite(phi1) and math.isfinite(phi2)
        except OverflowError:  # an int beyond every float: finite, and refused below
            finite = True
        if not finite:
            raise ValueError("rotation angles must be finite")
        if abs(phi1) > _MAX_ANGLE or abs(phi2) > _MAX_ANGLE:
            raise ValueError(f"rotation angles must lie within +-{_MAX_ANGLE!r} rad")
        return super().__new__(cls, phi1, phi2)

    @classmethod
    def _make(cls, iterable) -> "AngleSet":
        return cls(*iterable)  # so that _replace checks too


class Transcript(NamedTuple):
    """One protocol execution.

    ``msg_alice`` = a XOR x1 and ``msg_bob`` = b XOR y1 are the exchanged
    bits; both outputs equal msg_alice XOR msg_bob, so out_alice == out_bob
    always holds here.
    """

    inputs: InputPair
    a: int
    b: int
    msg_alice: int
    msg_bob: int
    out_alice: int
    out_bob: int
    success: bool

    @classmethod
    def from_outcome(cls, inputs: InputPair, a: int, b: int) -> "Transcript":
        """The round on ``inputs`` whose measurements gave Alice a and Bob b."""
        msg_alice = a ^ inputs.x1
        msg_bob = b ^ inputs.y1
        out = msg_alice ^ msg_bob
        return cls(inputs, a, b, msg_alice, msg_bob, out, out, out == target_function(inputs))


class PerInputReport(NamedTuple):
    """Success probability per (x0, y0) input pair plus their uniform mean."""

    p00: float
    p01: float
    p10: float
    p11: float
    total: float


class MonteCarloResult(NamedTuple):
    """Sampled success estimate with its binomial standard error.

    ``per_input_counts`` maps (x0, y0) to (successes, trials drawn).
    """

    estimate: float
    std_error: float
    per_input_counts: dict[tuple[int, int], tuple[int, int]]


def target_function(inputs: InputPair) -> int:
    """f(x, y) = x1 XOR y1 XOR (x0 AND y0)."""
    return _target(inputs.x, inputs.y)


def _outcome_table(alpha: float, beta: float, phi1: float, phi2: float) -> list[tuple]:
    """Born probabilities ``table[2*x0 + y0][outcome]``, outcomes in basis order.

    Each party turns by phi1 on a low bit of 0 and by phi2 on 1: the
    package's one rotation, R(phi_a) x R(phi_b) on alpha|00> + beta|11>.
    Bob's turn acts within each row of the 2x2 coefficient grid (b00..b11),
    then Alice's across the rows (c00..c11), in this fixed order.
    """
    trig = ((math.cos(phi1), math.sin(phi1)), (math.cos(phi2), math.sin(phi2)))  # by low bit
    table = []
    for ca, sa in trig:  # x0
        for cb, sb in trig:  # y0
            b00, b01, b10, b11 = alpha * cb, alpha * sb, -beta * sb, beta * cb
            c00, c01 = b00 * ca - b10 * sa, b01 * ca - b11 * sa
            c10, c11 = b00 * sa + b10 * ca, b01 * sa + b11 * ca
            table.append((c00 * c00, c01 * c01, c10 * c10, c11 * c11))
    return table


def _wins(parities: list) -> list:
    """Per row 2*x0 + y0, the winning one of its (even, odd) outcome sums.

    A run at (x0, y0) succeeds when the outcome parity a XOR b equals x0 AND y0:
    on the even outcomes {00, 11} in rows 0-2, on the odd ones {01, 10} in row 3.
    """
    (even0, _), (even1, _), (even2, _), (_, odd3) = parities
    return [even0, even1, even2, odd3]


# run_once plays many rounds on one (pair, angles); building the table
# afresh would cost more than the rest of a round.
@functools.lru_cache(maxsize=64)
def _outcome_edges(pair: SchmidtPair, angles: AngleSet) -> tuple[tuple[float, float, float], ...]:
    """First three CDF edges of each outcome-table row, as floats.

    The outcome of a uniform u is the number of its row's edges at or below u
    (basis order, so outcome k gives a = k >> 1 and b = k & 1); a u in the
    roundoff sliver above the last edge still gives outcome 3.
    """
    edges = []
    for p0, p1, p2, _ in _outcome_table(pair.alpha, pair.beta, angles.phi1, angles.phi2):
        e1 = p0 + p1
        edges.append((float(p0), float(e1), float(e1 + p2)))
    return tuple(edges)


def exact_success_probability(pair: SchmidtPair, angles: AngleSet) -> PerInputReport:
    """All four per-input success probabilities and their uniform average.

    Inputs are uniform, so (x0, y0) is uniform over the four combinations;
    the high bits never affect success (they cancel in the XOR).
    """
    table = _outcome_table(pair.alpha, pair.beta, angles.phi1, angles.phi2)
    p00, p01, p10, p11 = _wins([(p0 + p3, p1 + p2) for p0, p1, p2, p3 in table])
    return PerInputReport(p00, p01, p10, p11, (p00 + p01 + p10 + p11) / 4.0)


def closed_form_p(pair: SchmidtPair, angles: AngleSet) -> float:
    """Total success probability of the strategy, in closed form.

    p = 1/2 + a cos 2phi2 + b sin 2phi2 + q (sin^2 2phi2 - sin^2 2phi1), with
    a = cos(2phi1)/4, b = alpha*beta sin(2phi1)/2 and q = (1 - 2 alpha*beta)/8;
    evaluated left to right.  Depends on the state only through alpha*beta.
    """
    phi1, phi2 = angles.phi1, angles.phi2
    ab = pair.alpha * pair.beta
    s1, s2 = math.sin(2.0 * phi1), math.sin(2.0 * phi2)
    a, b, q = 0.25 * math.cos(2.0 * phi1), 0.5 * ab * s1, 0.125 * (1.0 - 2.0 * ab)
    return 0.5 + a * math.cos(2.0 * phi2) + b * s2 + q * (s2**2 - s1**2)


def run_once(
    pair: SchmidtPair,
    angles: AngleSet,
    inputs: InputPair,
    rng: np.random.Generator,
) -> Transcript:
    """Execute the protocol once; consumes one rng draw (the measurement)."""
    edges = _outcome_edges(pair, angles)[2 * inputs.x0 + inputs.y0]
    k = bisect.bisect_right(edges, rng.random())
    return Transcript.from_outcome(inputs, k >> 1, k & 1)


# Trials per monte_carlo chunk: bounds its memory whatever ``trials`` is, and
# keeps each per-chunk array at most 128 KiB (see monte_carlo).
_CHUNK = 2**14


def monte_carlo(
    pair: SchmidtPair, angles: AngleSet, trials: int, seed: int
) -> MonteCarloResult:
    """Estimate the success probability from ``trials`` sampled executions.

    Inputs (x, y) are uniform over all 16 pairs each trial.  The draw order
    is fixed, so results are bit-reproducible: it is stated in raw 64-bit
    words of PCG64 seeded with ``seed`` (numpy's ``PCG64(seed).random_raw``,
    a stream NEP 19 keeps stable across numpy releases).  Trial i's inputs come
    from word i, x from bits 30-31 and y from bits 62-63, so x0 is bit 30 and
    y0 bit 62; its uniform is (word ``trials + i`` >> 11) * 2**-53.  Both
    blocks are drawn in chunks of at most ``_CHUNK`` trials, which bounds
    memory: the input words from one generator, the uniforms from a twin
    seeded alike and advanced past the input block.  Raises ValueError if
    ``trials`` < 1 or ``seed`` < 0.

    A chunk is 2**14 trials, so each of its arrays (words, rows, uniforms)
    is at most 128 KiB and a chunk's whole working set, about 1 MiB, stays
    in a 2 MiB per-core L2 cache.  Larger chunks spill it, and their
    arrays are big enough that malloc hands their pages back to the kernel
    between chunks, so every chunk faults them in again.
    """
    trials = operator.index(trials)  # a numpy integer would overflow in ``advance``
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    import numpy as np

    u64 = np.uint64
    inputs = np.random.PCG64(seed)
    uniforms = np.random.PCG64(seed)
    uniforms.advance(trials)
    # Odd parity (outcome 1 or 2) is first edge <= u < last edge: a row's edges never decrease.
    first, _, last = np.array(_outcome_edges(pair, angles)).T
    tally = np.zeros(8, dtype=np.int64)  # trials per (row, parity), index 2*row + odd
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        words = inputs.random_raw(n)
        # numpy reuses a temporary in place only from 256 KiB up, and a chunk of words is 128 KiB:
        # at _CHUNK trials this peaks at three chunk-sized arrays (at 2**15 trials, at two).
        row = ((words >> u64(29)) & u64(2) | (words >> u64(62)) & u64(1)).astype(np.intp)
        # Freed before the uniforms allocate. The old rows go at the rebinding above, once the
        # new ones exist: freed before this chunk's words were read, they made malloc map fresh
        # pages every chunk (28.4k minor faults against 5.1k in a 4e6-trial simulate on a
        # 2-core VM, about 15% slower).
        del words
        us = uniforms.random_raw(n)  # each word becomes its uniform (word >> 11) * 2**-53
        us >>= np.uint64(11)
        us = us * 2.0**-53
        odd = (us >= first[row]) & (us < last[row])
        tally += np.bincount(2 * row + odd, minlength=8)
        # Freed before the next chunk allocates: kept alive one chunk longer, the uniforms
        # make malloc map fresh pages every chunk (at 4e6 trials on a 2-core VM, 5.8k minor
        # faults against 0.1k, about 15% slower).
        del us, odd

    parities = tally.reshape(4, 2).tolist()
    wins = _wins(parities)
    counts = {(row >> 1, row & 1): (wins[row], sum(parities[row])) for row in range(4)}
    estimate = float(sum(wins)) / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloResult(estimate, std_error, counts)
