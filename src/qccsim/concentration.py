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

from .protocol import AngleSet, InputPair, Transcript, run_once
from .state import SchmidtPair, epr_state

if TYPE_CHECKING:
    import numpy as np

EPR_STRATEGY_VALUE = math.cos(math.pi / 8) ** 2
CLASSICAL_BASELINE_VALUE = 0.75
EPR_ANGLES = AngleSet(-math.pi / 16, 3.0 * math.pi / 16)


def concentration_success_probability(pair: SchmidtPair) -> float:
    """Probability 2*beta^2 of distilling the pair to the maximal state.

    Clipped into [0, 1] to absorb roundoff at beta^2 = 1/2.
    """
    return min(1.0, 2.0 * pair.beta * pair.beta)


def concentration_strategy_value(pair: SchmidtPair) -> float:
    """Expected success probability of concentrate-then-play.

    3/4 + (2 cos^2(pi/8) - 3/2) * beta^2, the mixture of the entangled value
    on distillation success and the classical baseline on failure.
    """
    return CLASSICAL_BASELINE_VALUE + (2.0 * EPR_STRATEGY_VALUE - 1.5) * (pair.beta * pair.beta)


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

