"""The shared pair and the one rotation kernel applied to it.

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
from typing import NamedTuple, Sequence

import numpy as np

NORM_TOL = 1e-12
CHI_DOMAIN_TOL = 1e-12
EPR_CHI = -math.pi / 4


class SchmidtPair(NamedTuple):
    """Amplitudes (alpha, beta) of the shared state alpha|00> + beta|11>.

    ``chi`` is the angle parameterization with alpha = cos(chi) and
    beta = sin(chi); it is carried along for reporting.
    """

    alpha: float
    beta: float
    chi: float

    @classmethod
    def from_amplitudes(cls, alpha: float, beta: float) -> "SchmidtPair":
        """Build a pair from raw amplitudes without the canonical-domain check.

        Accepts any normalized (alpha, beta), including beta > 0 and
        |beta| > |alpha|; used for property tests and exploration.  Raises
        ValueError if alpha^2 + beta^2 deviates from 1 by more than NORM_TOL.
        """
        norm = alpha * alpha + beta * beta
        if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN norm fails too
            raise ValueError(f"amplitudes not normalized: alpha^2+beta^2 = {norm!r}")
        return cls(alpha, beta, math.atan2(beta, alpha))


class OutcomePair(NamedTuple):
    """Measured bits: ``a`` from Alice's qubit, ``b`` from Bob's."""

    a: int
    b: int


def make_shared_state(chi: float) -> SchmidtPair:
    """Construct the canonical shared state for an angle chi in [-pi/4, 0].

    Returns (cos chi, sin chi, chi).  chi = 0 is the unentangled product
    state |00>; chi = -pi/4 is the maximally entangled endpoint.  Values
    outside the canonical interval (beyond a 1e-12 tolerance) raise
    ValueError rather than being clamped or normalized.
    """
    if not (-math.pi / 4 - CHI_DOMAIN_TOL <= chi <= CHI_DOMAIN_TOL):
        raise ValueError(
            f"chi = {chi!r} outside the canonical domain [-pi/4, 0]"
            " (beta <= 0 <= alpha, alpha >= |beta|)"
        )
    return SchmidtPair(math.cos(chi), math.sin(chi), chi)


def epr_state() -> SchmidtPair:
    """The maximally entangled pair (|00> - |11>)/sqrt(2), i.e. chi = -pi/4."""
    s = math.sqrt(0.5)
    return SchmidtPair(s, -s, EPR_CHI)


def rotated_amplitudes(alpha, beta, phi_a, phi_b) -> np.ndarray:
    """Amplitudes of R(phi_a) x R(phi_b) applied to alpha|00> + beta|11>.

    Alice's qubit turns by phi_a, Bob's by phi_b.  Every argument broadcasts
    (angles are radians) and the result has shape (..., 4), in the basis order
    |00>, |01>, |10>, |11>.  The arithmetic is fixed -- Bob's rotation within
    each row of the 2x2 coefficient grid, then Alice's across the rows -- so
    equal inputs give bit-identical amplitudes in any broadcast shape.
    """
    ca, sa = np.cos(phi_a), np.sin(phi_a)
    cb, sb = np.cos(phi_b), np.sin(phi_b)
    b00 = alpha * cb
    b01 = alpha * sb
    b10 = -beta * sb
    b11 = beta * cb
    return np.stack(
        (b00 * ca - b10 * sa, b01 * ca - b11 * sa, b00 * sa + b10 * ca, b01 * sa + b11 * ca),
        axis=-1,
    )


def sample_outcome(probs: Sequence[float], rng: np.random.Generator) -> OutcomePair:
    """Draw one joint measurement outcome from the probability row ``probs``.

    ``probs`` holds the Born probabilities of |00>, |01>, |10>, |11>.
    Consumes exactly one uniform variate from ``rng`` per call and inverts
    the CDF over the four outcomes in basis order, so outcome streams are
    bit-reproducible for a given seeded generator.
    """
    u = rng.random()
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u < acc:
            return OutcomePair(k >> 1, k & 1)
    return OutcomePair(1, 1)  # u landed in the roundoff sliver above the last edge
