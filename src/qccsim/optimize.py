"""Optimal strategy angles in closed form, and the bound that certifies them.

``qccsim optimal`` certifies ``optimal_closed_form`` apart from its algebra:
the Born-rule value (``protocol.exact_success_probability``) at its angles
shows that p_max is reached, and its equality with ``_correlation_bound``
that no projective strategy does better.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .state import SchmidtPair


class AngleSolution(NamedTuple):
    """A maximizer: angles, the auxiliary ratio ``t`` entering the arccos
    arguments (4*alpha*beta / sqrt(1 + 4*alpha^2*beta^2)), and the achieved
    success probability."""

    phi1: float
    phi2: float
    t: float
    p_max: float


def optimal_closed_form(pair: SchmidtPair) -> AngleSolution:
    """Analytic optimum of the success probability for alpha*beta <= 0.

    p_max = 1/2 + (1/4) sqrt(1 + 4 alpha^2 beta^2), attained at
    phi1 = -(1/4) arccos x1 and phi2 = (1/4) arccos x2 with
    x1, x2 = (1 + 2ab -+ t) / (1 - 2ab) and ab = alpha*beta.  Each is taken
    as arccos x = 2 arcsin sqrt((1 - x)/2), with 1 - x free of cancellation:
    for m = |ab| and root = sqrt(1 + 4 m^2),

        1 - x1 = 16 m^3 / (root (root + 1) (1 + 2m)),   1 - x2 = 4m (1 + 1/root) / (1 + 2m).

    (1 - x)/2 is at most 0.854, so arcsin needs no clamp; at ab = 0 the
    angles are -0.0 and 0.0.  For alpha*beta > 0, which raises ValueError,
    shared angles reach only 3/4, but Bob reaches p_max on (-phi1, -phi2)
    with the angles of (alpha, -beta): Z on his qubit flips the sign of
    beta, and Z R(t) Z = R(-t).
    """
    ab = pair.alpha * pair.beta
    if ab > 0.0:
        raise ValueError("closed-form optimum requires alpha*beta <= 0 (for alpha*beta > 0, shared"
                         " angles reach only 3/4; Bob on (-phi1, -phi2) with the angles of"
                         " (alpha, -beta) reaches p_max)")
    m = abs(ab)
    root = math.sqrt(1.0 + 4.0 * m * m)
    den = 1.0 + 2.0 * m
    phi1 = -0.5 * math.asin(2.0 * m * math.sqrt(2.0 * m / (root * (root + 1.0) * den)))
    phi2 = 0.5 * math.asin(math.sqrt(2.0 * m * (1.0 + 1.0 / root) / den))
    return AngleSolution(phi1, phi2, 4.0 * ab / root, 0.5 + 0.25 * root)


def _correlation_bound(pair: SchmidtPair) -> float:
    """Largest win probability of any projective strategy on the pair.

    The low-bit game is CHSH (a win is a XOR b = x0 AND y0), won with
    probability 1/2 + B/8.  By the Horodecki criterion (Phys. Lett. A 200,
    340 (1995)) the largest B is 2 sqrt(s1^2 + s2^2), for the top two singular
    values s1 >= s2 of T_ij = <sigma_i x sigma_j>.  On alpha|00> + beta|11>,
    T is diagonal: T_xx = 2 alpha beta, T_yy = -2 alpha beta, T_zz = alpha^2 + beta^2.
    """
    alpha, beta = pair.alpha, pair.beta
    diagonal = (abs(2.0 * alpha * beta), abs(-2.0 * alpha * beta), alpha * alpha + beta * beta)
    s2, s1 = sorted(diagonal)[1:]
    return 0.5 + math.sqrt(s1 * s1 + s2 * s2) / 4.0
