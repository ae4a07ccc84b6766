"""Walk through single rounds of the entangled communication game.

Alice gets x = x1x0, Bob gets y = y1y0, and both must output
f(x, y) = x1 XOR y1 XOR (x0 AND y0) after exchanging one bit each.
Each party rotates its half of the shared pair by an angle selected by its
low input bit, measures, and sends (measured bit XOR own high bit).
"""

import math

import numpy as np

from qccsim import AngleSet, InputPair, epr_state, monte_carlo, run_once, target_function

OPTIMAL_ANGLES = AngleSet(-math.pi / 16, 3 * math.pi / 16)


def main():
    pair = epr_state()
    rng = np.random.default_rng(2024)

    print("shared state: alpha = %.6f, beta = %.6f" % (pair.alpha, pair.beta))
    print("strategy angles: phi1 = -pi/16, phi2 = 3pi/16")
    print()
    print(" x  y | a b | msgs | out f | result")
    print("------+-----+------+-------+-------")
    for x in range(4):
        for y in range(4):
            t = run_once(pair, OPTIMAL_ANGLES, InputPair(x, y), rng)
            f_value = target_function(t.inputs)
            print(
                f" {x:02b} {y:02b} | {t.a} {t.b} |  {t.msg_alice}{t.msg_bob}  |  {t.out_alice}  {f_value} |"
                f" {'success' if t.success else 'failure'}"
            )

    # Longer run, sampled in bulk: the success rate approaches cos^2(pi/8) ~ 0.8536.
    runs = 200_000
    result = monte_carlo(pair, OPTIMAL_ANGLES, runs, seed=2024)
    print()
    print(f"{runs} sampled rounds: success rate {result.estimate:.4f}"
          f"  (cos^2(pi/8) = {math.cos(math.pi / 8) ** 2:.4f})")


if __name__ == "__main__":
    main()
