"""End-to-end acceptance suite.

Each test checks one headline criterion at its stated tolerance and prints a
PASS/FAIL line (visible with ``pytest -s``).
"""

import math
import time
from fractions import Fraction

import numpy as np

from qccsim import cli
from qccsim.classical import MODE_SEQUENTIAL, MODE_SIMULTANEOUS, enumerate_best
from qccsim.optimize import optimal_closed_form
from qccsim.protocol import (
    AngleSet,
    closed_form_p,
    exact_success_probability,
    monte_carlo,
)
from qccsim.state import SchmidtPair, epr_state, make_shared_state
from oracles import (CHI_GRID, COS2_PI8, EPR_ANGLES, SLOPE, four_angle_win, procrustean_filter,
                     vidal_bound)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {label}{suffix}")
    assert ok, f"criterion {num:02d} ({label}) failed {suffix}"


def test_c01_maximal_pair_golden_value():
    # on each of the four low-bit inputs, on average, and by the closed form
    values = [*exact_success_probability(epr_state(), AngleSet(*EPR_ANGLES)),
              closed_form_p(epr_state(), AngleSet(*EPR_ANGLES))]
    worst = max(abs(value - COS2_PI8) for value in values)
    report(1, "success probability at the maximal pair equals cos^2(pi/8)",
           worst < 1e-12, f"total={values[4]:.15f} worst={worst:.2e}")


def test_c02_optimal_angles_at_the_maximal_pair():
    sol = optimal_closed_form(epr_state())
    ok = abs(sol.phi1 - EPR_ANGLES[0]) < 1e-12 and abs(sol.phi2 - EPR_ANGLES[1]) < 1e-12
    report(2, "closed-form optimum returns (-pi/16, 3pi/16)", ok,
           f"phi1={sol.phi1:.15f} phi2={sol.phi2:.15f}")


def test_c03_closed_form_agrees_with_brute_force():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        canonical = make_shared_state(float(rng.uniform(-math.pi / 4, 0.0)))
        angles = AngleSet(*rng.uniform(-math.pi, math.pi, size=2))
        # The formula holds off the canonical domain too: alpha*beta > 0 as well.
        for pair in (canonical, SchmidtPair(canonical.alpha, -canonical.beta)):
            closed = closed_form_p(pair, angles)
            brute = four_angle_win(pair.alpha, pair.beta, *angles, *angles)
            exact = exact_success_probability(pair, angles).total
            worst = max(worst, abs(closed - brute), abs(closed - exact))
    elapsed = time.perf_counter() - start
    report(3, "closed form matches outcome enumeration and the exact layer on 1000 random"
              " pairs and their alpha*beta > 0 mirrors", worst < 1e-12,
           f"worst={worst:.2e} elapsed={elapsed:.2f}s")


def test_c05_classical_protocols_cap_at_three_quarters():
    start = time.perf_counter()
    sim = enumerate_best(MODE_SIMULTANEOUS)
    seq = enumerate_best(MODE_SEQUENTIAL)
    elapsed = time.perf_counter() - start
    ok = (
        sim.best_success_count == 12
        and seq.best_success_count == 12
        and sim.best_probability == Fraction(3, 4)
        and seq.best_probability == Fraction(3, 4)
    )
    report(5, "exhaustive search: best deterministic protocol wins 12/16 in both modes",
           ok, f"sim={sim.best_success_count}/16 seq={seq.best_success_count}/16 "
               f"elapsed={elapsed:.2f}s")


def test_c06_zero_entanglement_limit():
    pair = make_shared_state(0.0)
    sol = optimal_closed_form(pair)
    ok = sol.p_max == 0.75
    # at the optimal angles (-0.0, 0.0) and unrotated: |00> stays, input 11 needs odd parity
    for angles in (AngleSet(sol.phi1, sol.phi2), AngleSet(0.0, 0.0)):
        ok &= tuple(exact_success_probability(pair, angles)) == (1.0, 1.0, 1.0, 0.0, 0.75)
    report(6, "unentangled limit: p_max = 3/4 exactly, per-input (1, 1, 1, 0), total 3/4", ok,
           f"p_max={sol.p_max!r}")


def test_c07_concentration_strategy_is_dominated():
    """The distillation coin is checked against two oracles: the Procrustean
    filter's success probability (Bennett et al., PRA 53, 2046 (1996)) and
    Vidal's single-copy conversion bound to the EPR pair (PRL 83, 1046 (1999))."""
    from qccsim.concentration import (concentration_strategy_value,
                                      concentration_success_probability)

    epr = epr_state()
    target = [epr.alpha, 0.0, 0.0, epr.beta]
    ok = True
    for beta_sq in np.linspace(0.0, 0.5, 101):
        pair = SchmidtPair(math.sqrt(1.0 - beta_sq), -math.sqrt(beta_sq))
        psi = np.array([pair.alpha, 0.0, 0.0, pair.beta])
        filtered = procrustean_filter(pair.alpha, pair.beta)[0] @ psi
        coin = concentration_success_probability(pair)
        ok &= abs(filtered @ filtered - coin) < 1e-14
        ok &= abs(vidal_bound(psi, target) - coin) < 1e-14
        direct = optimal_closed_form(pair).p_max
        concentrated = concentration_strategy_value(pair)
        ok &= concentrated <= direct + 1e-12
        if beta_sq in (0.0, 0.5):
            ok &= abs(concentrated - direct) < 1e-12
    quarter = SchmidtPair(math.sqrt(0.75), -0.5)
    gap = optimal_closed_form(quarter).p_max - concentration_strategy_value(quarter)
    ok &= gap > 1e-4
    ok &= abs(gap - 0.028942218586436974) < 1e-12
    report(7, "concentrate-then-play never beats direct play; gap at beta^2=1/4",
           ok, f"gap={gap:.6f}")


def test_c08_monte_carlo_consistency():
    ok = True
    details = []
    for chi_deg, seed in ((-45.0, 11), (-30.0, 12), (-15.0, 13)):
        pair = make_shared_state(math.radians(chi_deg))
        sol = optimal_closed_form(pair)
        angles = AngleSet(sol.phi1, sol.phi2)
        result = monte_carlo(pair, angles, 10**6, seed)
        z = abs(result.estimate - sol.p_max) / result.std_error
        ok &= z < 5.0
        repeat = monte_carlo(pair, angles, 10**6, seed)
        ok &= repeat == result
        details.append(f"chi={chi_deg:g}:z={z:.2f}")
    report(8, "10^6-trial runs land within 5 sigma and are seed-reproducible",
           ok, " ".join(details))


def test_c09_monotonicity_in_the_amplitude_product():
    points = []
    for chi in CHI_GRID:
        pair = make_shared_state(chi)
        points.append((abs(pair.alpha * pair.beta), optimal_closed_form(pair).p_max))
    points.sort()
    ok = all(p_lo < p_hi for (_, p_lo), (_, p_hi) in zip(points, points[1:]))
    report(9, "p_max strictly increases with |alpha*beta| on the sweep grid", ok)


def test_c10_sweep_reproduces_the_theory_curves(tmp_path):
    out_file = tmp_path / "curves.csv"
    code = cli.main(
        ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31",
         "--out", str(out_file)]
    )
    lines = out_file.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    ok = code == 0 and lines[0] == cli.CSV_HEADER and len(rows) == 31
    ok &= abs(rows[0]["p_max"] - 0.853553390593) < 1e-9
    ok &= abs(rows[-1]["p_max"] - 0.75) < 1e-12
    ok &= all(abs(row["epsilon"] - abs(math.tan(math.radians(row["chi_deg"])))) < 1e-9
              for row in rows)
    base_sq = rows[0]["beta"] ** 2
    base_conc = rows[0]["p_concentration"]
    worst_slope = 0.0
    for row in rows[1:]:
        beta_sq = row["beta"] ** 2
        slope = (row["p_concentration"] - base_conc) / (beta_sq - base_sq)
        worst_slope = max(worst_slope, abs(slope - SLOPE))
    ok &= worst_slope < 1e-9
    report(10, "sweep CSV spans 0.853553 -> 0.750000 with an affine concentration curve",
           ok, f"rows={len(rows)} slope_err={worst_slope:.2e}")
