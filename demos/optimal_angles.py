"""Closed-form optimal angles versus an exhaustive numeric maximizer.

The analytic solution gives p_max = 1/2 + sqrt(1 + 4 alpha^2 beta^2)/4 for
alpha*beta <= 0 along with the maximizing angle pair.  The numeric search
(grid scan plus compass refinement) knows nothing of that formula and
recovers the same value to ~1e-12, which is the package's standing
cross-check of the algebra.

The last section covers alpha*beta > 0, outside the closed form's domain.
There the search finds that angles shared by both parties reach only the
classical 3/4, while Bob playing the negated angles of the mirrored state
(alpha, -beta) still reaches the same p_max.
"""

import math

import numpy as np

from qccsim import SchmidtPair, make_shared_state, rotated_amplitudes
from qccsim.optimize import optimal_closed_form, optimal_numeric


def main():
    print(" chi_deg |   phi1      phi2    |   p_max     numeric    |diff|")
    print("---------+---------------------+-------------------------------")
    for chi_deg in range(-45, 1, 5):
        pair = make_shared_state(math.radians(chi_deg))
        sol = optimal_closed_form(pair)
        num = optimal_numeric(pair)
        print(
            f"  {chi_deg:6.1f} | {sol.phi1:+.5f}  {sol.phi2:+.5f} |"
            f" {sol.p_max:.8f} {num.p_max:.8f} {abs(sol.p_max - num.p_max):.1e}"
        )

    print()
    print("alpha*beta > 0 (outside the closed form's domain):")
    x0, y0 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    for chi_deg in (11.25, 22.5, 45.0):
        alpha, beta = math.cos(math.radians(chi_deg)), math.sin(math.radians(chi_deg))
        shared = optimal_numeric(SchmidtPair.from_amplitudes(alpha, beta))
        sol = optimal_closed_form(SchmidtPair.from_amplitudes(alpha, -beta))
        probs = rotated_amplitudes(
            alpha, beta, np.where(x0, sol.phi2, sol.phi1), np.where(y0, -sol.phi2, -sol.phi1)
        ) ** 2
        wins = np.where(x0 & y0, probs[:, 1] + probs[:, 2], probs[:, 0] + probs[:, 3])
        print(
            f"  chi = {chi_deg:+6.2f} deg: shared angles reach {shared.p_max:.6f},"
            f" Bob on (-phi1, -phi2) reaches {wins.mean():.6f} = p_max {sol.p_max:.6f}"
        )
    print("Shared angles fall back to the classical 3/4.  Z on Bob's qubit maps")
    print("beta to -beta and Z R(t) Z = R(-t), so negating Bob's angles recovers")
    print("p_max = 1/2 + sqrt(1 + 4 alpha^2 beta^2)/4 for every sign of alpha*beta.")


if __name__ == "__main__":
    main()
