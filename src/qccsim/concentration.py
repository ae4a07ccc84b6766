"""Concentrate-then-play comparison strategy.

Instead of playing directly on the partially entangled pair, first distill
it to the maximally entangled state, which succeeds with probability
2*beta^2.  On success the parties play the optimal entangled strategy
(worth cos^2(pi/8)); on failure they are left with an effectively classical
resource and fall back to the 3/4 baseline.  The expected value is affine
in beta^2 and sits below the direct strategy everywhere except at the two
endpoints beta^2 = 0 and beta^2 = 1/2, where the curves meet.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .protocol import AngleSet, InputPair, Transcript, run_batch, run_once
from .state import SchmidtPair, _require_finite, epr_state

if TYPE_CHECKING:
    import numpy as np

EPR_STRATEGY_VALUE = math.cos(math.pi / 8) ** 2
CLASSICAL_BASELINE_VALUE = 0.75
EPR_ANGLES = AngleSet(-math.pi / 16, 3.0 * math.pi / 16)


def concentration_success_probability(pair: SchmidtPair) -> float:
    """Probability 2*beta^2 of distilling the pair to the maximal state.

    Clipped into [0, 1] to absorb roundoff at beta^2 = 1/2.  A non-finite
    beta^2 raises ValueError.
    """
    _require_finite(pair.beta * pair.beta)
    return min(1.0, 2.0 * pair.beta * pair.beta)


def concentration_strategy_value(pair: SchmidtPair) -> float:
    """Expected success probability of concentrate-then-play.

    3/4 + (2 cos^2(pi/8) - 3/2) * beta^2, the mixture of the entangled value
    on distillation success and the classical baseline on failure.  A
    non-finite beta^2 raises ValueError.
    """
    beta_sq = pair.beta * pair.beta
    _require_finite(beta_sq)
    return CLASSICAL_BASELINE_VALUE + (2.0 * EPR_STRATEGY_VALUE - 1.5) * beta_sq


def simulate_concentration_run(
    pair: SchmidtPair, inputs: InputPair, rng: np.random.Generator
) -> Transcript:
    """One sampled round of concentrate-then-play.

    Draws the distillation coin (one uniform); on success plays the optimal
    entangled strategy on the maximal pair (one more draw), on failure runs
    the deterministic classical baseline (no further draws).
    """
    if rng.random() < concentration_success_probability(pair):
        return run_once(epr_state(), EPR_ANGLES, inputs, rng)
    # The baseline sends the raw high bits: the strategy whose measured bits are 0, 0.
    return Transcript.from_outcome(inputs, 0, 0)


def simulate_concentration_batch(
    pair: SchmidtPair, xs: np.ndarray, ys: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rounds of concentrate-then-play on inputs (xs[i], ys[i]); returns a, b, success.

    Draws one block of ``len(xs)`` distillation coins, then, via
    ``run_batch``, one block of uniforms with one per distilled round.  That
    draw order differs from looping ``simulate_concentration_run``, which
    interleaves each round's coin and measurement; the two agree only for a
    batch of one.  Undistilled rounds play the baseline (a = b = 0).
    """
    import numpy as np

    xs, ys = np.asarray(xs), np.asarray(ys)
    distilled = rng.random(xs.shape) < concentration_success_probability(pair)
    a, b = np.zeros(xs.shape, dtype=np.int8), np.zeros(xs.shape, dtype=np.int8)
    a[distilled], b[distilled], _ = run_batch(
        epr_state(), EPR_ANGLES, xs[distilled], ys[distilled], rng
    )
    return a, b, (a ^ b) == (xs & ys & 1)
