"""Closed-form optimal angles and the two checks that certify them.

The analytic solution gives p_max = 1/2 + sqrt(1 + 4 alpha^2 beta^2)/4 for
alpha*beta <= 0 along with the maximizing angle pair.  Two values computed
apart from that formula certify it: the Born-rule success probability of the
outcome table at the printed angles (p_max is reached) and the Horodecki
bound over every projective strategy (nothing does better).  ``qccsim
optimal`` exits 3 when either disagrees.

The last section covers alpha*beta > 0, outside the closed form's domain.
There a grid over angles shared by both parties reaches only the classical
3/4, while Bob playing the negated angles of the mirrored state
(alpha, -beta) still reaches the same p_max.
"""

import math

import numpy as np

from qccsim import (AngleSet, SchmidtPair, exact_success_probability, make_shared_state,
                    rotated_amplitudes)
from qccsim.optimize import _correlation_bound, optimal_closed_form

X0, Y0 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])


def win_probability(alpha, beta, alice, bob):
    """Mean win over the four (x0, y0) when Alice turns by alice[x0] and Bob by bob[y0].

    Each of ``alice`` and ``bob`` is a pair (angle on a low bit of 0, on 1); the
    angles broadcast, and the result has their shape.
    """
    probs = rotated_amplitudes(alpha, beta, np.where(X0, alice[1][..., None], alice[0][..., None]),
                               np.where(Y0, bob[1][..., None], bob[0][..., None])) ** 2
    wins = np.where(X0 & Y0, probs[..., 1] + probs[..., 2], probs[..., 0] + probs[..., 3])
    return wins.mean(axis=-1)


def main():
    print(" chi_deg |   phi1      phi2    |   p_max      Born       bound")
    print("---------+---------------------+----------------------------------")
    for chi_deg in range(-45, 1, 5):
        pair = make_shared_state(math.radians(chi_deg))
        sol = optimal_closed_form(pair)
        born = exact_success_probability(pair, AngleSet(sol.phi1, sol.phi2)).total
        print(
            f"  {chi_deg:6.1f} | {sol.phi1:+.5f}  {sol.phi2:+.5f} |"
            f" {sol.p_max:.8f} {born:.8f} {_correlation_bound(pair):.8f}"
        )

    print()
    print("alpha*beta > 0 (outside the closed form's domain):")
    grid = np.linspace(-math.pi / 2, math.pi / 2, 256, endpoint=False)  # the period in each angle
    shared = (grid[:, None], grid[None, :])  # every (phi1, phi2) on the grid, for both parties
    for chi_deg in (11.25, 22.5, 45.0):
        alpha, beta = math.cos(math.radians(chi_deg)), math.sin(math.radians(chi_deg))
        best = win_probability(alpha, beta, shared, shared).max()
        sol = optimal_closed_form(SchmidtPair.from_amplitudes(alpha, -beta))
        angles = (np.array(sol.phi1), np.array(sol.phi2))
        mirrored = win_probability(alpha, beta, angles, (-angles[0], -angles[1]))
        print(
            f"  chi = {chi_deg:+6.2f} deg: shared angles reach {best:.6f},"
            f" Bob on (-phi1, -phi2) reaches {mirrored:.6f} = p_max {sol.p_max:.6f}"
        )
    print("Shared angles fall back to the classical 3/4.  Z on Bob's qubit maps")
    print("beta to -beta and Z R(t) Z = R(-t), so negating Bob's angles recovers")
    print("p_max = 1/2 + sqrt(1 + 4 alpha^2 beta^2)/4 for every sign of alpha*beta.")


if __name__ == "__main__":
    main()
