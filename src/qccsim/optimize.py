"""Optimal strategy angles: closed-form solution plus a numeric cross-check.

``optimal_closed_form`` evaluates the analytic maximizer of the total
success probability; ``optimal_numeric`` maximizes the same objective by
exhaustive grid scan and local refinement and serves as its independent
verification oracle.  The two are compared on achieved value only -- the
objective has symmetries, so the maximizing angles need not coincide.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .protocol import AngleSet, _closed_form, closed_form_p
from .state import SchmidtPair

ACOS_CLAMP_TOL = 1e-9
GRID_STEPS = 256  # optimal_numeric's scan is GRID_STEPS x GRID_STEPS
REFINE_ITERS = 40  # compass-search step halvings after the scan


class AngleSolution(NamedTuple):
    """A maximizer: angles, the auxiliary ratio ``t`` entering the arccos
    arguments (4*alpha*beta / sqrt(1 + 4*alpha^2*beta^2)), and the achieved
    success probability."""

    phi1: float
    phi2: float
    t: float
    p_max: float


def _clamped_acos(x: float) -> float:
    if x > 1.0:
        if x > 1.0 + ACOS_CLAMP_TOL:
            raise ValueError(f"arccos argument {x!r} out of range")
        x = 1.0
    elif x < -1.0:
        if x < -1.0 - ACOS_CLAMP_TOL:
            raise ValueError(f"arccos argument {x!r} out of range")
        x = -1.0
    return math.acos(x)


def optimal_closed_form(pair: SchmidtPair) -> AngleSolution:
    """Analytic optimum of the success probability for alpha*beta <= 0.

    p_max = 1/2 + (1/4) sqrt(1 + 4 alpha^2 beta^2), attained at
    phi1 = -(1/4) arccos((1 + 2ab - t) / (1 - 2ab)) and
    phi2 =  (1/4) arccos((1 + 2ab + t) / (1 - 2ab)) with ab = alpha*beta.
    Arguments drifting past +-1 by at most 1e-9 are clamped.

    Pairs with alpha*beta > 0 are rejected.  There, both parties sharing one
    angle pair reach only the classical 3/4 (``optimal_numeric`` returns 3/4
    at chi = 11.25, 22.5 and 45 degrees).  The same p_max is still reached
    if Alice plays (phi1, phi2) and Bob (-phi1, -phi2), with the angles of
    (alpha, -beta): Z on Bob's qubit flips the sign of beta, and
    Z R(t) Z = R(-t).
    """
    ab = pair.alpha * pair.beta
    if ab > 0.0:
        raise ValueError("closed-form optimum requires alpha*beta <= 0 (for alpha*beta > 0, shared"
                         " angles reach only 3/4; Bob on (-phi1, -phi2) with the angles of"
                         " (alpha, -beta) reaches p_max)")
    root = math.sqrt(1.0 + 4.0 * ab * ab)
    t = 4.0 * ab / root
    den = 1.0 - 2.0 * ab
    phi1 = -0.25 * _clamped_acos((1.0 + 2.0 * ab - t) / den)
    phi2 = 0.25 * _clamped_acos((1.0 + 2.0 * ab + t) / den)
    return AngleSolution(phi1, phi2, t, 0.5 + 0.25 * root)


def optimal_numeric(pair: SchmidtPair) -> AngleSolution:
    """Maximize the closed-form success probability by search.

    Scans a GRID_STEPS x GRID_STEPS grid over [-pi/2, pi/2)^2 (the objective
    has period pi in each angle), then refines the best grid point by
    REFINE_ITERS rounds of compass search with a halving step.  Deterministic:
    grid ties resolve to the lexicographically smallest (phi1, phi2).

    The scan runs in pure Python on per-axis cos and sin lists, with the
    bits of ``closed_form_p`` broadcast over the grid (squares as products,
    as numpy squares an array).
    """
    grid = [-0.5 * math.pi + math.pi * i / GRID_STEPS for i in range(GRID_STEPS)]
    ab = pair.alpha * pair.beta
    cos = [math.cos(2.0 * phi) for phi in grid]
    sin = [math.sin(2.0 * phi) for phi in grid]
    axis = list(zip(cos, sin, [s * s for s in sin]))
    # A NaN alpha*beta never beats -inf; the refinement's closed_form_p then refuses it.
    best, phi1, phi2 = -math.inf, grid[0], grid[0]
    for i, (c1, s1, sq1) in enumerate(axis):
        row = [_closed_form(ab, c1, s1, sq1, c2, s2, sq2) for c2, s2, sq2 in axis]
        top = max(row)
        if top > best:  # the first maximum in row-major order, as argmax finds it
            best, phi1, phi2 = top, grid[i], grid[row.index(top)]

    step = math.pi / GRID_STEPS
    for _ in range(REFINE_ITERS):
        moved = True
        inner = 0
        while moved and inner < 100:
            moved = False
            inner += 1
            for d1, d2 in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                cand = float(closed_form_p(pair, AngleSet(phi1 + d1, phi2 + d2)))
                if cand > best:
                    best, phi1, phi2 = cand, phi1 + d1, phi2 + d2
                    moved = True
        step *= 0.5

    return AngleSolution(phi1, phi2, 4.0 * ab / math.sqrt(1.0 + 4.0 * ab * ab), best)

