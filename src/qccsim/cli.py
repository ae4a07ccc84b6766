"""Numeric subcommands of the command line: exact, optimal, sweep, simulate.

The parser, the output path, ``classical`` and ``main``/``run`` live in
``qccsim._entry``, whose ``main`` looks ``cmd_<name>`` up here when a
command runs; ``main`` and ``run`` are re-exported.  The sweep format lives
here, beside ``sweep_records``: ``SweepRecord``'s fields are the CSV header
and the JSON keys, and each CSV field is written as ``%.12g``.  Importing
this module loads every layer module (``classical`` through the entry) but
not numpy: ``exact``, ``optimal`` (its p_max checked against the Born rule
and the Horodecki bound) and ``sweep`` run in pure Python, and numpy loads
only inside ``monte_carlo``, when ``simulate`` runs.  Units and exit codes
are in ``qccsim._entry``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Iterator, NamedTuple

from . import _FLOAT
from ._entry import ConsistencyError, _kv_report, _write, main, run
from .concentration import concentration_strategy_value
from .optimize import _correlation_bound, optimal_closed_form
from .protocol import AngleSet, closed_form_p, exact_success_probability, monte_carlo
from .state import NORM_TOL, SchmidtPair, make_shared_state

OPTIMAL_DISCREPANCY_LIMIT = 1e-6
# CLI amplitudes are typically hand-typed decimals; accept small normalization
# drift and renormalize exactly before use, with a note on stderr past NORM_TOL.
AMPLITUDE_NORM_TOL = 1e-4


def _state(args: argparse.Namespace) -> tuple[float, SchmidtPair]:
    """The state angle chi (radians) and the pair, from --chi or --alpha/--beta.

    Amplitudes that are renormalized by more than ``NORM_TOL`` get one note on
    stderr, written before the result; stdout does not change.
    """
    alpha, beta = getattr(args, "alpha", None), getattr(args, "beta", None)
    if (args.chi is None) == (alpha is None and beta is None):
        raise ValueError("give exactly one of --chi or the pair --alpha/--beta")
    if args.chi is not None:
        chi = math.radians(args.chi)
        return chi, make_shared_state(chi)
    if alpha is None or beta is None:
        raise ValueError("--alpha and --beta must be given together")
    norm = math.hypot(alpha, beta)
    if abs(norm * norm - 1.0) > AMPLITUDE_NORM_TOL:
        raise ValueError(f"amplitudes not normalized: alpha^2+beta^2 = {norm * norm!r}")
    pair = SchmidtPair(alpha / norm, beta / norm)
    chi = math.atan2(pair.beta, pair.alpha)
    make_shared_state(chi)  # called for its canonical-domain check only
    if abs(norm * norm - 1.0) > NORM_TOL:
        print(f"note: renormalized --alpha/--beta: alpha^2+beta^2 = {_FLOAT % (norm * norm)}",
              file=sys.stderr)
    return chi, pair


# --------------------------------------------------------------------------- exact


def cmd_exact(args: argparse.Namespace) -> None:
    chi, pair = _state(args)
    angles = AngleSet(args.phi1, args.phi2)
    report = exact_success_probability(pair, angles)
    closed = closed_form_p(pair, angles)
    fields = [
        ("chi_deg", math.degrees(chi)),
        ("alpha", pair.alpha),
        ("beta", pair.beta),
        ("phi1", angles.phi1),
        ("phi2", angles.phi2),
        ("p00", report.p00),
        ("p01", report.p01),
        ("p10", report.p10),
        ("p11", report.p11),
        ("total", report.total),
        ("closed_form", closed),
        ("difference", abs(report.total - closed)),
    ]
    _write(args, {"record": dict(fields)}, _kv_report(fields))


# --------------------------------------------------------------------------- optimal


def cmd_optimal(args: argparse.Namespace) -> None:
    chi, pair = _state(args)
    sol = optimal_closed_form(pair)
    born = exact_success_probability(pair, AngleSet(sol.phi1, sol.phi2)).total
    discrepancy = abs(sol.p_max - born)
    fields = [
        ("chi_deg", math.degrees(chi)),
        ("alpha", pair.alpha),
        ("beta", pair.beta),
        ("phi1", sol.phi1),
        ("phi2", sol.phi2),
        ("t", sol.t),
        ("p_max", sol.p_max),
        ("numeric_p_max", born),
        ("discrepancy", discrepancy),
    ]
    _write(args, {"record": dict(fields)}, _kv_report(fields))
    bound = _correlation_bound(pair)
    if abs(bound - sol.p_max) > OPTIMAL_DISCREPANCY_LIMIT:
        raise ConsistencyError(f"p_max {sol.p_max:.12g} is not the Horodecki bound {bound:.12g}")
    if discrepancy > OPTIMAL_DISCREPANCY_LIMIT:
        raise ConsistencyError(f"closed-form/Born-rule discrepancy {discrepancy:.3e} exceeds "
                               f"{OPTIMAL_DISCREPANCY_LIMIT:.0e}")


# --------------------------------------------------------------------------- sweep


class SweepRecord(NamedTuple):
    """One sweep grid point: state parameters, optimal angles, and the
    direct (p_max) and concentrate-then-play (p_concentration) values.

    The field order is the CSV column order and the JSON key order.
    """

    chi_deg: float
    alpha: float
    beta: float
    epsilon: float
    phi1: float
    phi2: float
    p_max: float
    p_concentration: float
    p00: float
    p01: float
    p10: float
    p11: float


CSV_HEADER = ",".join(SweepRecord._fields)
# One CSV row: every field as ``_kv_report`` writes a float (%-formatting takes the float of each).
_CSV_ROW = ",".join([_FLOAT] * len(SweepRecord._fields)) + "\n"


def sweep_records(chis: list[float]) -> list[SweepRecord]:
    """Build one record per chi (radians): optimal angles, both strategy
    values, and the per-input probabilities at the optimum."""
    records = []
    for chi in chis:
        pair = make_shared_state(float(chi))
        sol = optimal_closed_form(pair)
        report = exact_success_probability(pair, AngleSet(sol.phi1, sol.phi2))
        records.append(SweepRecord(
            chi_deg=math.degrees(chi),
            alpha=pair.alpha,
            beta=pair.beta,
            epsilon=abs(math.tan(chi)),
            phi1=sol.phi1,
            phi2=sol.phi2,
            p_max=sol.p_max,
            p_concentration=concentration_strategy_value(pair),
            p00=report.p00,
            p01=report.p01,
            p10=report.p10,
            p11=report.p11,
        ))
    return records


def _csv_lines(records: list[SweepRecord]) -> Iterator[str]:
    yield CSV_HEADER + "\n"
    for r in records:
        yield _CSV_ROW % r


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()`` for num >= 2, by numpy's own recipe.

    Point i is i*step + start, or (i/div)*delta + start when the step
    underflows to 0, and the last point is ``stop`` itself.  The list is
    allocated first, so a ``num`` that cannot fit (or index) raises MemoryError.
    """
    try:
        grid = [0.0] * num
    except OverflowError:
        raise MemoryError from None
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        for i in range(num):
            grid[i] = i / div * delta + start
    else:
        for i in range(num):
            grid[i] = i * step + start
    grid[-1] = stop
    return grid


def cmd_sweep(args: argparse.Namespace) -> None:
    if args.steps < 2:
        raise ValueError("--steps must be >= 2")
    start, end = math.radians(args.chi_start), math.radians(args.chi_end)
    for chi in (start, end):  # refused before the grid is built; each point is checked again
        make_shared_state(chi)
    chis = _linspace(start, end, args.steps)
    records = sweep_records(chis)
    _write(args, {"records": records}, _csv_lines(records))


# --------------------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> None:
    chi, pair = _state(args)
    sol = optimal_closed_form(pair)
    result = monte_carlo(pair, AngleSet(sol.phi1, sol.phi2), args.trials, args.seed)
    if result.std_error > 0.0:
        z_score = (result.estimate - sol.p_max) / result.std_error
    else:
        z_score = 0.0 if result.estimate == sol.p_max else math.inf
    fields = [
        ("chi_deg", math.degrees(chi)),
        ("trials", args.trials),
        ("seed", args.seed),
        ("phi1", sol.phi1),
        ("phi2", sol.phi2),
        ("estimate", result.estimate),
        ("std_error", result.std_error),
        ("exact", sol.p_max),
        ("z_score", z_score),
    ]
    tallies = {
        f"{x0}{y0}": result.per_input_counts[(x0, y0)] for x0 in (0, 1) for y0 in (0, 1)
    }
    record = dict(
        fields,
        # unbounded: estimate off p_max with zero std_error
        z_score=None if math.isinf(z_score) else z_score,
        per_input_counts={k: list(v) for k, v in tallies.items()},
    )
    per_input = [(f"per_input {k}", f"{s}/{n}") for k, (s, n) in tallies.items()]
    _write(args, {"record": record}, _kv_report(fields + per_input))

