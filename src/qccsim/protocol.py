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
is imported only by the vectorized sampler ``monte_carlo`` and its helpers.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
from typing import TYPE_CHECKING, NamedTuple

from .classical import _target
from .state import SchmidtPair, _rotate

if TYPE_CHECKING:
    import numpy as np


class InputPair(NamedTuple("InputPair", [("x", int), ("y", int)])):
    """Classical inputs x, y, each in {0, 1, 2, 3} with bits (high, low).

    However the pair is built, an input that is not an integer in 0..3
    raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, x: int, y: int) -> "InputPair":
        try:
            valid = 0 <= operator.index(x) <= 3 and 0 <= operator.index(y) <= 3
        except TypeError:
            valid = False
        if not valid:
            raise ValueError(f"inputs must be integers in 0..3, got x = {x!r}, y = {y!r}")
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

    Each party turns by phi1 on a low bit of 0 and by phi2 on 1.
    """
    trig = ((math.cos(phi1), math.sin(phi1)), (math.cos(phi2), math.sin(phi2)))  # by low bit
    table = []
    for ca, sa in trig:  # x0
        for cb, sb in trig:  # y0
            c00, c01, c10, c11 = _rotate(alpha, beta, ca, sa, cb, sb)
            table.append((c00 * c00, c01 * c01, c10 * c10, c11 * c11))
    return table


def _wins(table: list) -> list:
    """Per table row, the entries of the outcomes that win there.

    A run at (x0, y0) succeeds when the outcome parity a XOR b equals
    x0 AND y0: on the even outcomes {00, 11} unless both low bits are 1 (row
    3), on the odd ones {01, 10} then.
    """
    return [t[1] + t[2] if row == 3 else t[0] + t[3] for row, t in enumerate(table)]


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
    p00, p01, p10, p11 = _wins(_outcome_table(pair.alpha, pair.beta, angles.phi1, angles.phi2))
    return PerInputReport(p00, p01, p10, p11, (p00 + p01 + p10 + p11) / 4.0)


def _closed_form(ab, c1, s1, sq1, c2, s2, sq2):
    """The closed form from alpha*beta and, per angle phi_k, cos 2phi_k, sin 2phi_k and its square.

    p = 1/2 + a cos 2phi2 + b sin 2phi2 + q (sin^2 2phi2 - sin^2 2phi1), with
    a = cos(2phi1)/4, b = alpha*beta sin(2phi1)/2 and q = (1 - 2 alpha*beta)/8;
    evaluated left to right.
    """
    a, b, q = 0.25 * c1, 0.5 * ab * s1, 0.125 * (1.0 - 2.0 * ab)
    return 0.5 + a * c2 + b * s2 + q * (sq2 - sq1)


def closed_form_p(pair: SchmidtPair, angles: AngleSet) -> float:
    """Total success probability of the strategy, in closed form.

    Depends on the state only through alpha*beta.
    """
    phi1, phi2 = angles.phi1, angles.phi2
    s1, s2 = math.sin(2.0 * phi1), math.sin(2.0 * phi2)
    return _closed_form(pair.alpha * pair.beta, math.cos(2.0 * phi1), s1, s1**2,
                        math.cos(2.0 * phi2), s2, s2**2)


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


def _outcomes(columns: np.ndarray, row: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Outcome k (int8, basis order) of each round at table row ``row`` drawing uniform ``us``.

    Line j of ``columns`` holds CDF edge j of every table row (``_outcome_edges`` transposed).
    """
    import numpy as np

    k = np.zeros(row.shape, dtype=np.int8)
    for column in columns:
        k += us >= column[row]
    return k


# Trials per monte_carlo chunk: bounds its memory whatever ``trials`` is, and
# keeps each per-chunk array at most 128 KiB (see monte_carlo).
_CHUNK = 2**14


def _input_rows(words: np.ndarray) -> np.ndarray:
    """Row 2*x0 + y0 of each input pair that ``integers(0, 4, size=(n, 2))`` makes of ``words``.

    For a range of 4, numpy's Lemire method keeps the top two bits of each
    32-bit half of a 64-bit word, the low half first: x is bits 30-31 and y
    bits 62-63, so x0 is bit 30 and y0 bit 62.
    """
    import numpy as np

    u64 = np.uint64
    # numpy reuses a temporary in place only from 256 KiB up, and a chunk of words is 128 KiB:
    # at _CHUNK trials this peaks at three chunk-sized arrays (at 2**15 trials, at two).
    return ((words >> u64(29)) & u64(2) | (words >> u64(62)) & u64(1)).astype(np.intp)


def monte_carlo(
    pair: SchmidtPair, angles: AngleSet, trials: int, seed: int
) -> MonteCarloResult:
    """Estimate the success probability from ``trials`` sampled executions.

    Inputs (x, y) are uniform over all 16 pairs each trial.  The draw order
    is that of a single generator seeded with ``seed`` drawing, in order, one
    ``integers(0, 4, size=(trials, 2))`` block of inputs and then one block
    of ``trials`` uniforms for the measurements -- fixed, so results are
    bit-reproducible.  numpy packs the two inputs of a trial into one 64-bit
    word, so the input block is read as ``trials`` raw words, x from bits
    30-31 and y from bits 62-63.  Both blocks are drawn in chunks of at most
    ``_CHUNK`` trials, which bounds memory: the input words from that
    generator, the uniforms from a twin seeded alike and advanced past the
    input block.  Raises ValueError if ``trials`` < 1 or ``seed`` < 0.

    A chunk is 2**14 trials, so each of its arrays (words, rows, uniforms)
    is at most 128 KiB and a chunk's whole working set, about 1 MiB, stays
    in a 2 MiB per-core L2 cache.  Larger chunks spill it, and their
    arrays are big enough that malloc hands their pages back to the kernel
    between chunks, so every chunk faults them in again.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    import numpy as np

    inputs = np.random.default_rng(seed)
    uniforms = np.random.default_rng(seed)
    uniforms.bit_generator.advance(trials)
    columns = np.array(_outcome_edges(pair, angles)).T
    histogram = np.zeros(16, dtype=np.int64)  # trials per (row, outcome), index 4*row + k
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        row = _input_rows(inputs.bit_generator.random_raw(n))
        k = _outcomes(columns, row, uniforms.random(n))
        histogram += np.bincount(4 * row + k, minlength=16)

    table = histogram.reshape(4, 4).tolist()
    wins = _wins(table)
    counts = {(row >> 1, row & 1): (wins[row], sum(table[row])) for row in range(4)}
    estimate = float(sum(wins)) / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloResult(estimate, std_error, counts)
