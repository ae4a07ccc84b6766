"""The shared pair and the conventions for rotating it.

The rotation itself is applied in ``protocol._outcome_table``, the one place
that turns a pair into measurement probabilities.  This module imports no
numpy; in the whole package numpy loads only inside ``protocol.monte_carlo``.

The shared resource throughout this package is a qubit pair in the state
alpha|00> + beta|11> with real amplitudes, alpha^2 + beta^2 = 1.  Each party
manipulates its own qubit only with the planar rotation

    R(t) = [[cos t, -sin t],
            [sin t,  cos t]]

and then measures in the standard basis.  Conventions fixed here and relied
on by every other module:

* basis order |00>, |01>, |10>, |11>;
* the first tensor slot is Alice's qubit, the second is Bob's;
* R(t)|0> = cos(t)|0> + sin(t)|1> (the first column of the matrix above);
* a pair is its two amplitudes; the angle chi only parameterizes the
  canonical family built by ``make_shared_state``: chi in [-pi/4, 0] with
  alpha = cos(chi), beta = sin(chi), so alpha >= |beta| and beta <= 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

NORM_TOL = 1e-12
CHI_DOMAIN_TOL = 1e-12


class SchmidtPair(NamedTuple("SchmidtPair", [("alpha", float), ("beta", float)])):
    """Amplitudes (alpha, beta) of the shared state alpha|00> + beta|11>.

    Any normalized real pair is accepted, including beta > 0 and
    |beta| > |alpha|.  However a pair is built, alpha^2 + beta^2 off 1 by
    more than NORM_TOL raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float) -> "SchmidtPair":
        try:
            norm = alpha * alpha + beta * beta
            off = abs(norm - 1.0)
        except OverflowError:  # an int amplitude whose square is beyond every float
            norm = off = math.inf
        if not off <= NORM_TOL:  # written so that a NaN or infinite norm fails too
            raise ValueError(f"amplitudes not normalized: alpha^2+beta^2 = {norm!r}")
        return super().__new__(cls, alpha, beta)

    @classmethod
    def _make(cls, iterable) -> "SchmidtPair":
        return cls(*iterable)  # so that _replace checks too


def make_shared_state(chi: float) -> SchmidtPair:
    """Construct the canonical shared state for an angle chi in [-pi/4, 0].

    Returns (cos chi, sin chi).  chi = 0 is the unentangled product
    state |00>; chi = -pi/4 is the maximally entangled endpoint.  Values
    outside the canonical interval (beyond a 1e-12 tolerance) raise
    ValueError rather than being clamped or normalized.  Inside the
    tolerance above 0, beta is 0.0 rather than sin chi > 0, so every pair
    returned has beta <= 0 and is accepted by every consumer.
    """
    if not (-math.pi / 4 - CHI_DOMAIN_TOL <= chi <= CHI_DOMAIN_TOL):
        try:
            degrees = f" ({math.degrees(chi):.12g} deg)"
        except OverflowError:  # an int beyond every float has no degree value to print
            degrees = ""
        raise ValueError(
            f"chi = {chi!r} rad{degrees} outside the canonical"
            " domain [-pi/4, 0] rad = [-45, 0] deg (beta <= 0 <= alpha, alpha >= |beta|)"
        )
    return SchmidtPair(math.cos(chi), min(math.sin(chi), 0.0))


_EPR = SchmidtPair(math.sqrt(0.5), -math.sqrt(0.5))


def epr_state() -> SchmidtPair:
    """The maximally entangled pair (|00> - |11>)/sqrt(2), i.e. chi = -pi/4."""
    return _EPR
