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
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import NamedTuple

import numpy as np

from .state import SchmidtPair, rotated_amplitudes

# Low bits (x0, y0) of the outcome table's rows, which are indexed 2*x0 + y0.
_X0 = np.array([0, 0, 1, 1])
_Y0 = np.array([0, 1, 0, 1])


class InputPair(NamedTuple):
    """Classical inputs x, y, each in {0, 1, 2, 3} with bits (high, low)."""

    x: int
    y: int

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


class AngleSet(NamedTuple):
    """Strategy angles: phi1 when a party's low bit is 0, phi2 when it is 1."""

    phi1: float
    phi2: float


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
    return inputs.x1 ^ inputs.y1 ^ (inputs.x0 & inputs.y0)


def _outcome_table(alpha, beta, phi1, phi2) -> np.ndarray:
    """Born probabilities indexed [..., 2*x0 + y0, outcome], outcomes in basis order.

    Each party turns by phi1 on a low bit of 0 and by phi2 on 1.  Broadcasts
    over all four arguments; a non-finite argument raises ValueError.
    """
    alpha, beta, phi1, phi2 = (np.asarray(v, dtype=float) for v in (alpha, beta, phi1, phi2))
    if not all(np.isfinite(v).all() for v in (alpha, beta, phi1, phi2)):
        raise ValueError("amplitudes and rotation angles must be finite")
    phi1, phi2 = phi1[..., None], phi2[..., None]
    amps = rotated_amplitudes(
        alpha[..., None], beta[..., None], np.where(_X0, phi2, phi1), np.where(_Y0, phi2, phi1)
    )
    return amps * amps


# run_once plays many rounds on one (pair, angles); building the numpy table
# afresh would cost more than the rest of a round.
@functools.lru_cache(maxsize=64)
def _outcome_edges(pair: SchmidtPair, angles: AngleSet) -> tuple[tuple[float, float, float], ...]:
    """First three CDF edges of each outcome-table row, as floats.

    The outcome of a uniform u is the number of its row's edges at or below u
    (basis order, so outcome k gives a = k >> 1 and b = k & 1); a u in the
    roundoff sliver above the last edge still gives outcome 3.
    """
    table = _outcome_table(pair.alpha, pair.beta, angles.phi1, angles.phi2)
    return tuple(map(tuple, np.cumsum(table, axis=-1)[:, :3].tolist()))


def exact_success_probability(pair: SchmidtPair, angles: AngleSet) -> PerInputReport:
    """All four per-input success probabilities and their uniform average.

    A run at (x0, y0) succeeds when the outcome parity a XOR b equals
    x0 AND y0: on the even outcomes {00, 11} unless both low bits are 1, on
    the odd ones {01, 10} then.  Inputs are uniform, so (x0, y0) is uniform
    over the four combinations; the high bits never affect success (they
    cancel in the XOR).  The fields of ``pair`` and ``angles`` may be numpy
    arrays, and the report's fields then broadcast over them.
    """
    table = _outcome_table(pair.alpha, pair.beta, angles.phi1, angles.phi2)
    even = table[..., 0] + table[..., 3]
    odd = table[..., 1] + table[..., 2]
    p00, p01, p10, p11 = np.moveaxis(np.where(_X0 & _Y0, odd, even), -1, 0)
    return PerInputReport(p00, p01, p10, p11, (p00 + p01 + p10 + p11) / 4.0)


def closed_form_p(pair: SchmidtPair, angles: AngleSet) -> float | np.ndarray:
    """Total success probability of the strategy, in closed form.

    Depends on the state only through alpha*beta.  Elementwise like
    ``exact_success_probability``: the fields of ``pair`` and ``angles`` may
    be numpy arrays, and the result then broadcasts over them (the numeric
    optimizer scans a whole angle grid in one call).
    """
    ab = pair.alpha * pair.beta
    phi1, phi2 = angles
    return (
        0.5
        + 0.25 * np.cos(2.0 * phi1) * np.cos(2.0 * phi2)
        + 0.5 * ab * np.sin(2.0 * phi1) * np.sin(2.0 * phi2)
        + 0.125 * (1.0 - 2.0 * ab) * (np.sin(2.0 * phi2) ** 2 - np.sin(2.0 * phi1) ** 2)
    )


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


def _edge_columns(pair: SchmidtPair, angles: AngleSet) -> np.ndarray:
    """``_outcome_edges`` transposed to a (3, 4) array: line j holds edge j of every table row."""
    return np.array(_outcome_edges(pair, angles)).T


def _outcomes(columns: np.ndarray, row: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Outcome k (int8, basis order) of each round at table row ``row`` drawing uniform ``us``.

    ``columns`` comes from ``_edge_columns``.
    """
    k = np.zeros(row.shape, dtype=np.int8)
    for column in columns:
        k += us >= column[row]
    return k


def run_batch(
    pair: SchmidtPair,
    angles: AngleSet,
    xs: np.ndarray,
    ys: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play one round per input pair (xs[i], ys[i]); returns arrays a, b, success.

    Draws one block of ``len(xs)`` uniforms, one per round in order, so the
    outcomes and the generator's final state are those of looping
    ``run_once`` over the same inputs and generator.
    """
    xs, ys = np.asarray(xs), np.asarray(ys)
    row = 2 * (xs & 1) + (ys & 1)
    k = _outcomes(_edge_columns(pair, angles), row, rng.random(xs.shape))
    a, b = k >> 1, k & 1
    return a, b, (a ^ b) == (row == 3)  # x0 AND y0 is 1 only on row 3


# Trials per monte_carlo chunk: bounds its memory whatever ``trials`` is, and
# keeps each per-chunk array at most 128 KiB (see monte_carlo).
_CHUNK = 2**14

_SHIFT_X0, _SHIFT_Y0 = np.uint64(29), np.uint64(62)
_MASK_X0, _MASK_Y0 = np.uint64(2), np.uint64(1)


def _input_rows(words: np.ndarray) -> np.ndarray:
    """Row 2*x0 + y0 of each input pair that ``integers(0, 4, size=(n, 2))`` makes of ``words``.

    For a range of 4, numpy's Lemire method keeps the top two bits of each
    32-bit half of a 64-bit word, the low half first: x is bits 30-31 and y
    bits 62-63, so x0 is bit 30 and y0 bit 62.
    """
    # One expression, so numpy reuses its temporaries in place (two fewer chunk-sized arrays).
    return (
        (words >> _SHIFT_X0) & _MASK_X0 | (words >> _SHIFT_Y0) & _MASK_Y0
    ).astype(np.intp)


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
    inputs = np.random.default_rng(seed)
    uniforms = np.random.default_rng(seed)
    uniforms.bit_generator.advance(trials)
    columns = _edge_columns(pair, angles)
    histogram = np.zeros(16, dtype=np.int64)  # trials per (row, outcome), index 4*row + k
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        row = _input_rows(inputs.bit_generator.random_raw(n))
        k = _outcomes(columns, row, uniforms.random(n))
        histogram += np.bincount(4 * row + k, minlength=16)

    histogram = histogram.reshape(4, 4)
    # Even outcomes {0, 3} win unless x0 AND y0 = 1 (row 3); the odd {1, 2} win there.
    even = histogram[:, 0] + histogram[:, 3]
    odd = histogram[:, 1] + histogram[:, 2]
    wins = np.where(_X0 & _Y0, odd, even)
    counts = {
        (row >> 1, row & 1): (int(wins[row]), int(histogram[row].sum())) for row in range(4)
    }
    estimate = float(wins.sum()) / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloResult(estimate, std_error, counts)
