"""Generate the two theory curves across the full entanglement range.

Writes curves.csv with one row per state: the direct-play optimum p_max
(upper curve) and the concentrate-then-play value p_concentration (lower,
affine-in-beta^2 curve), plus the optimal angles and per-input
probabilities.  It runs the CLI call

    qccsim sweep --chi-start -45 --chi-end 0 --steps 31 --out curves.csv

in process, then reads the file back for the table below.
"""

import csv

from qccsim import cli


def main():
    status = cli.main(["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31",
                       "--out", "curves.csv"])
    if status:
        raise SystemExit(status)
    with open("curves.csv", encoding="utf-8", newline="") as handle:
        records = [{key: float(value) for key, value in row.items()}
                   for row in csv.DictReader(handle)]
    print(f"wrote curves.csv ({len(records)} rows)")
    print()

    print(" chi_deg  epsilon |  p_max     p_concentration")
    print("------------------+----------------------------")
    for r in records[::5]:
        print(f" {r['chi_deg']:7.1f}  {r['epsilon']:.4f} | {r['p_max']:.6f}  "
              f"{r['p_concentration']:.6f}")
    print()
    print("p_max runs from cos^2(pi/8) at full entanglement down to 3/4,")
    print("and dominates the concentration curve everywhere in between.")


if __name__ == "__main__":
    main()
