"""Direct play versus concentrate-then-play.

A partially entangled pair can first be distilled to the maximally
entangled state (probability 2*beta^2); on success the parties play the
cos^2(pi/8) strategy, on failure they fall back to the classical 3/4.
The resulting value is affine in beta^2 and always sits below playing the
optimal strategy directly on the partial pair -- the two curves meet only
at beta^2 = 0 and beta^2 = 1/2.
"""

import math

import numpy as np

from qccsim import InputPair, SchmidtPair, concentration_strategy_value, simulate_concentration_run
from qccsim.optimize import optimal_closed_form


def main():
    print(" beta^2 |  direct   concentrate   gap")
    print("--------+------------------------------")
    for beta_sq in np.linspace(0.0, 0.5, 11):
        pair = SchmidtPair(math.sqrt(1.0 - beta_sq), -math.sqrt(beta_sq))
        direct = optimal_closed_form(pair).p_max
        conc = concentration_strategy_value(pair)
        print(f"  {beta_sq:.3f} | {direct:.6f}  {conc:.6f}   {direct - conc:.6f}")

    # Sampled sanity check at beta^2 = 1/4.
    pair = SchmidtPair(math.sqrt(0.75), -0.5)
    rng = np.random.default_rng(7)
    runs = 20_000
    wins = sum(simulate_concentration_run(pair, InputPair(x, y), rng).success
               for x, y in rng.integers(0, 4, size=(runs, 2)).tolist())
    print()
    print(f"beta^2 = 1/4, {runs} sampled rounds: {wins / runs:.4f}"
          f"  (expected {concentration_strategy_value(pair):.4f})")


if __name__ == "__main__":
    main()
