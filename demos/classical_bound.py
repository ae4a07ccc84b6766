"""Why 3/4 is the classical ceiling: exhaustive protocol search.

Without entanglement the parties can only exchange two classical bits
computed from their inputs (plus shared randomness, which never helps a
convex objective).  This script evaluates the natural 12/16 baseline and
then searches every deterministic protocol exactly -- all 16.8M simultaneous
ones and all 268M sequential ones -- to confirm nothing beats 12/16.
"""

from qccsim import baseline_protocol, enumerate_best, evaluate_protocol, run_protocol
from qccsim.protocol import InputPair, target_function


def main():
    base = baseline_protocol()
    print(f"baseline (exchange high bits, output their XOR): {evaluate_protocol(base)}/16")
    print()
    print(" x  y | out f | result")
    print("------+-------+-------")
    for x in range(4):
        for y in range(4):
            run = run_protocol(base, x, y)
            f_value = target_function(InputPair(x, y))
            status = "success" if run.out_alice == run.out_bob == f_value else "failure"
            print(f" {x:02b} {y:02b} |  {run.out_alice}  {f_value} | {status}")

    for mode in ("simultaneous", "sequential"):
        result = enumerate_best(mode)
        print()
        print(f"{mode}: examined {result.protocols_examined:,} protocols")
        print(f"  best success count: {result.best_success_count}/16"
              f" = {result.best_probability}")
        w = result.witness
        print(f"  witness tables: msg_alice={w.msg_alice} msg_bob={w.msg_bob}")
        print(f"                  out_alice={w.out_alice} out_bob={w.out_bob}")
        print(f"  witness re-evaluated: {evaluate_protocol(w)}/16")


if __name__ == "__main__":
    main()
