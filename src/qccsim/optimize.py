"""Optimal strategy angles: closed-form solution plus a numeric cross-check.

``optimal_closed_form`` evaluates the analytic maximizer of the total
success probability; ``optimal_numeric`` maximizes the same objective by
exhaustive grid scan and local refinement and serves as its independent
verification oracle.  The two are compared on achieved value only -- the
objective has symmetries, so the maximizing angles need not coincide.

The scan evaluates only the cells that can still beat the best one so far.
On a row of fixed phi1 the objective is

    1/2 + a cos 2phi2 + b sin 2phi2 + q (sin^2 2phi2 - sin^2 2phi1),

which no phi2 lifts above 1/2 + hypot(a, b) + q - q sin^2 2phi1: a pair is
normalized to NORM_TOL, so |alpha*beta| <= (1 + NORM_TOL)/2, q >= -NORM_TOL/8
and q sin^2 2phi2 <= q errs by at most NORM_TOL/8 = 1.25e-13.  On a block of
SCAN_BLOCK consecutive columns each term is bounded on its own by the block's
range of cos 2phi2 and sin 2phi2, and the q term by q times its largest
sin^2 2phi2, with the same error.  A row, or a block of a row, whose bound
plus a margin far above that error and the rounding of either side lies below
the best cell so far is skipped.  Each of its cells is below the best, so
the full scan would not take it either; a block that holds a new maximum is
never skipped, and its first maximum is the row's.  The result, ties
included, is therefore the full scan's first maximum in row-major order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .protocol import AngleSet, _row_coefficients, closed_form_p
from .state import SchmidtPair

ACOS_CLAMP_TOL = 1e-9
GRID_STEPS = 256  # optimal_numeric's scan is GRID_STEPS x GRID_STEPS
SCAN_BLOCK = 32  # columns per block of the scan's pruning bound
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
    root = math.sqrt(1.0 + 4.0 * ab * ab)
    if ab > 0.0:
        raise ValueError("closed-form optimum requires alpha*beta <= 0 (for alpha*beta > 0, shared"
                         " angles reach only 3/4; Bob on (-phi1, -phi2) with the angles of"
                         " (alpha, -beta) reaches p_max)")
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

    The scan runs in pure Python on per-axis cos, sin and squared-sin lists.
    Each row takes its factors from ``protocol._row_coefficients`` and each
    cell is ``protocol._closed_form``'s last line, with squared sines as
    products.  Rows and column blocks whose bound (see the module docstring)
    plus 1e-12 (1 + |alpha*beta|) is below the best cell so far are skipped,
    which leaves the first maximum in row-major order that of the full scan.
    """
    grid = [-0.5 * math.pi + math.pi * i / GRID_STEPS for i in range(GRID_STEPS)]
    ab = pair.alpha * pair.beta
    cos = [math.cos(2.0 * phi) for phi in grid]
    sin = [math.sin(2.0 * phi) for phi in grid]
    axis = list(zip(cos, sin, [s * s for s in sin]))
    blocks = []  # (first column, its cells, the range of cos and sin over them, the largest sin^2)
    for j in range(0, GRID_STEPS, SCAN_BLOCK):
        cells = axis[j:j + SCAN_BLOCK]
        c2, s2, sq2 = zip(*cells)
        blocks.append((j, cells, min(c2), max(c2), min(s2), max(s2), max(sq2)))
    # The bounds' margin, far above their shortfall at q < 0 and the rounding (~1e-15 (1 + |ab|)).
    slack = 1e-12 * (1.0 + abs(ab))
    best, phi1, phi2 = -math.inf, grid[0], grid[0]
    for i, (c1, s1, sq1) in enumerate(axis):
        a, b, q = _row_coefficients(ab, c1, s1)
        base = 0.5 - q * sq1 + slack
        if base + math.hypot(a, b) + q < best:
            continue
        for j, cells, c_lo, c_hi, s_lo, s_hi, sq_hi in blocks:
            lift = max(a * c_lo, a * c_hi) + max(b * s_lo, b * s_hi) + q * sq_hi
            if base + lift < best:
                continue
            values = [0.5 + a * c2 + b * s2 + q * (sq2 - sq1) for c2, s2, sq2 in cells]
            top = max(values)
            if top > best:  # the first maximum in row-major order, as argmax finds it
                best, phi1, phi2 = top, grid[i], grid[j + values.index(top)]

    step = math.pi / GRID_STEPS
    for _ in range(REFINE_ITERS):
        moved = True
        inner = 0
        while moved and inner < 100:
            moved = False
            inner += 1
            for d1, d2 in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                cand = closed_form_p(pair, AngleSet(phi1 + d1, phi2 + d2))
                if cand > best:
                    best, phi1, phi2 = cand, phi1 + d1, phi2 + d2
                    moved = True
        step *= 0.5

    return AngleSolution(phi1, phi2, 4.0 * ab / math.sqrt(1.0 + 4.0 * ab * ab), best)

