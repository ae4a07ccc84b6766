"""The shared pair and the one rotation kernel applied to it.

This module imports no numpy: the kernel ``_rotate`` is plain arithmetic on
whatever it is given (Python floats or numpy arrays), and only the public
``rotated_amplitudes``, which returns an ndarray, imports numpy when called.

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
* the canonical shared states are parameterized by an angle chi in
  [-pi/4, 0] with alpha = cos(chi), beta = sin(chi), so alpha >= |beta|
  and beta <= 0.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

NORM_TOL = 1e-12
CHI_DOMAIN_TOL = 1e-12
EPR_CHI = -math.pi / 4


class SchmidtPair(NamedTuple("SchmidtPair", [("alpha", float), ("beta", float), ("chi", float)])):
    """Amplitudes (alpha, beta) of the shared state alpha|00> + beta|11>.

    ``chi`` is the angle parameterization with alpha = cos(chi) and
    beta = sin(chi); it is carried along for reporting.  However a pair is
    built, alpha^2 + beta^2 off 1 by more than NORM_TOL raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, chi: float) -> "SchmidtPair":
        try:
            norm = alpha * alpha + beta * beta
            off = abs(norm - 1.0)
        except OverflowError:  # an int amplitude whose square is beyond every float
            norm = off = math.inf
        if not off <= NORM_TOL:  # written so that a NaN or infinite norm fails too
            raise ValueError(f"amplitudes not normalized: alpha^2+beta^2 = {norm!r}")
        return super().__new__(cls, alpha, beta, chi)

    @classmethod
    def _make(cls, iterable) -> "SchmidtPair":
        return cls(*iterable)  # so that _replace checks too

    @classmethod
    def from_amplitudes(cls, alpha: float, beta: float) -> "SchmidtPair":
        """Build a pair from raw amplitudes without the canonical-domain check.

        Accepts any normalized (alpha, beta), including beta > 0 and
        |beta| > |alpha|.  The CLI's --alpha/--beta path builds every
        amplitude pair with it, after renormalizing.
        """
        return cls(alpha, beta, 0.0)._replace(chi=math.atan2(beta, alpha))  # checked before atan2


def make_shared_state(chi: float) -> SchmidtPair:
    """Construct the canonical shared state for an angle chi in [-pi/4, 0].

    Returns (cos chi, sin chi, chi).  chi = 0 is the unentangled product
    state |00>; chi = -pi/4 is the maximally entangled endpoint.  Values
    outside the canonical interval (beyond a 1e-12 tolerance) raise
    ValueError rather than being clamped or normalized.  Inside the
    tolerance above 0, beta is 0.0 rather than sin chi > 0, so every pair
    returned has beta <= 0 and is accepted by every consumer.
    """
    if not (-math.pi / 4 - CHI_DOMAIN_TOL <= chi <= CHI_DOMAIN_TOL):
        raise ValueError(
            f"chi = {chi!r} rad ({math.degrees(chi):.12g} deg) outside the canonical"
            " domain [-pi/4, 0] rad = [-45, 0] deg (beta <= 0 <= alpha, alpha >= |beta|)"
        )
    return SchmidtPair(math.cos(chi), min(math.sin(chi), 0.0), chi)


_EPR = SchmidtPair(math.sqrt(0.5), -math.sqrt(0.5), EPR_CHI)


def epr_state() -> SchmidtPair:
    """The maximally entangled pair (|00> - |11>)/sqrt(2), i.e. chi = -pi/4."""
    return _EPR


def _rotate(alpha, beta, ca, sa, cb, sb):
    """Amplitudes (c00, c01, c10, c11) of R(phi_a) x R(phi_b) on alpha|00> + beta|11>.

    ``ca, sa`` are cos and sin of Alice's angle phi_a, ``cb, sb`` those of
    Bob's phi_b.  Only arithmetic operators, so it runs on Python floats and
    broadcasts on numpy arrays alike.  The order is fixed -- Bob's rotation
    within each row of the 2x2 coefficient grid, then Alice's across the
    rows -- so equal inputs give bit-identical amplitudes either way.
    """
    b00 = alpha * cb
    b01 = alpha * sb
    b10 = -beta * sb
    b11 = beta * cb
    return b00 * ca - b10 * sa, b01 * ca - b11 * sa, b00 * sa + b10 * ca, b01 * sa + b11 * ca


def rotated_amplitudes(alpha, beta, phi_a, phi_b) -> np.ndarray:
    """Amplitudes of R(phi_a) x R(phi_b) applied to alpha|00> + beta|11>.

    Alice's qubit turns by phi_a, Bob's by phi_b.  Every argument broadcasts
    (angles are radians) and the result is an ndarray of shape (..., 4), in
    the basis order |00>, |01>, |10>, |11>, computed by ``_rotate``.
    """
    import numpy as np

    return np.stack(
        _rotate(alpha, beta, np.cos(phi_a), np.sin(phi_a), np.cos(phi_b), np.sin(phi_b)), axis=-1
    )
