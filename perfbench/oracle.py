"""Reference values for checking qccsim output, coded apart from the package.

Rotations are explicit 2x2 matrices combined by a literal Kronecker product
over plain Python floats, so the checks share no code with ``qccsim``.
"""

from __future__ import annotations

import math

COS2_PI8 = math.cos(math.pi / 8) ** 2

# Seed-commit witnesses of the exhaustive classical search (tie-break:
# smallest encoding), as the text output prints them.
CLASSICAL_WITNESS = {
    "simultaneous": {"msg_alice": "1000", "msg_bob": "1100",
                     "out_alice": "10010101", "out_bob": "10100101"},
    "sequential": {"msg_alice": "1000", "msg_bob": "11110000",
                   "out_alice": "10010101", "out_bob": "10100101"},
}


def _rotation(t: float) -> list[list[float]]:
    c, s = math.cos(t), math.sin(t)
    return [[c, -s], [s, c]]


def _kron(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    return [[a[i // 2][j // 2] * b[i % 2][j % 2] for j in range(4)] for i in range(4)]


def outcome_probabilities(alpha: float, beta: float, t_alice: float, t_bob: float) -> list[float]:
    """Born-rule probabilities of outcomes 00, 01, 10, 11 after R(t_alice) x R(t_bob)."""
    joint = _kron(_rotation(t_alice), _rotation(t_bob))
    state = (alpha, 0.0, 0.0, beta)
    amps = [sum(row[k] * state[k] for k in range(4)) for row in joint]
    return [a * a for a in amps]


def per_input_success(alpha: float, beta: float, phi1: float, phi2: float) -> list[float]:
    """Success probability at (x0, y0) = 00, 01, 10, 11: outcome parity must equal x0 AND y0."""
    result = []
    for x0 in (0, 1):
        for y0 in (0, 1):
            probs = outcome_probabilities(alpha, beta, (phi1, phi2)[x0], (phi1, phi2)[y0])
            result.append(sum(p for k, p in enumerate(probs) if ((k >> 1) ^ (k & 1)) == (x0 & y0)))
    return result


def p_max(alpha: float, beta: float) -> float:
    """The paper's optimum 1/2 + sqrt(1 + 4 alpha^2 beta^2) / 4."""
    return 0.5 + math.sqrt(1.0 + 4.0 * alpha * alpha * beta * beta) / 4.0


def concentration_value(beta: float) -> float:
    """Distil with probability 2 beta^2 and play cos^2(pi/8), else play the 3/4 baseline."""
    p = min(1.0, 2.0 * beta * beta)
    return p * COS2_PI8 + (1.0 - p) * 0.75


def pair_from_chi_deg(chi_deg: float) -> tuple[float, float]:
    chi = math.radians(chi_deg)
    return math.cos(chi), math.sin(chi)


def pair_from_amplitudes(alpha: float, beta: float) -> tuple[float, float]:
    """The CLI renormalizes typed amplitudes before use."""
    norm = math.hypot(alpha, beta)
    return alpha / norm, beta / norm
