"""Command-line surface.

Subcommands:
  exact     -- per-input and total success probabilities at given angles
  optimal   -- closed-form optimal angles, cross-checked numerically
  sweep     -- theory curves over a range of shared states (CSV or JSON)
  simulate  -- seeded Monte Carlo runs at the optimal angles
  classical -- exhaustive search over deterministic two-bit protocols

Units: --chi/--chi-start/--chi-end are degrees (the canonical range is
-45..0); --phi1/--phi2 and all angles in output are radians.  Exit codes:
0 success, 1 the output file cannot be written or the request does not fit
in memory, 2 usage or domain error, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Callable

import numpy as np

from . import __version__
from .classical import MODE_SEQUENTIAL, MODE_SIMULTANEOUS, enumerate_best
from .concentration import concentration_strategy_value
from .optimize import optimal_closed_form, optimal_numeric
from .protocol import AngleSet, closed_form_p, exact_success_probability, monte_carlo
from .state import SchmidtPair, make_shared_state

OPTIMAL_DISCREPANCY_LIMIT = 1e-6
# CLI amplitudes are typically hand-typed decimals; accept small normalization
# drift and renormalize exactly before use.
AMPLITUDE_NORM_TOL = 1e-4


@dataclasses.dataclass(frozen=True)
class SweepRecord:
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


CSV_HEADER = ",".join(f.name for f in dataclasses.fields(SweepRecord))


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _write(args: argparse.Namespace, body: dict, text: Callable[[], str]) -> None:
    """Write one result to ``--out`` (default stdout).

    With ``--format json`` that is ``{"meta": ..., **body}``; otherwise it is
    ``text()``, called only then: a sweep's CSV costs as much as its records.
    """
    if args.format == "json":
        flags = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
        meta = {"tool": "qccsim", "version": __version__, "command": args.command,
                "seed": getattr(args, "seed", None), "flags": flags}
        # Strict JSON: a non-finite float raises ValueError (exit 2) instead of
        # printing the non-standard tokens NaN or Infinity.
        out = json.dumps({"meta": meta, **body}, indent=2, allow_nan=False) + "\n"
    else:
        out = text()
    if args.out is None:
        sys.stdout.write(out)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(out)


def _kv_report(fields: list[tuple[str, object]]) -> str:
    lines = []
    for key, value in fields:
        text = _fmt(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _pair_from_flags(chi_deg: float | None, alpha: float | None, beta: float | None) -> SchmidtPair:
    has_amps = alpha is not None or beta is not None
    if (chi_deg is None) == (not has_amps):
        raise ValueError("give exactly one of --chi or the pair --alpha/--beta")
    if chi_deg is not None:
        return make_shared_state(math.radians(chi_deg))
    if alpha is None or beta is None:
        raise ValueError("--alpha and --beta must be given together")
    norm = math.hypot(alpha, beta)
    if abs(norm * norm - 1.0) > AMPLITUDE_NORM_TOL:
        raise ValueError(f"amplitudes not normalized: alpha^2+beta^2 = {norm * norm!r}")
    pair = SchmidtPair.from_amplitudes(alpha / norm, beta / norm)
    make_shared_state(pair.chi)  # called for its canonical-domain check only
    return pair


# --------------------------------------------------------------------------- exact


def cmd_exact(args: argparse.Namespace) -> int:
    pair = _pair_from_flags(args.chi, args.alpha, args.beta)
    angles = AngleSet(args.phi1, args.phi2)
    report = exact_success_probability(pair, angles)
    closed = closed_form_p(pair, angles)
    fields = [
        ("chi_deg", math.degrees(pair.chi)),
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
    _write(args, {"record": dict(fields)}, lambda: _kv_report(fields))
    return 0


# --------------------------------------------------------------------------- optimal


def cmd_optimal(args: argparse.Namespace) -> int:
    pair = make_shared_state(math.radians(args.chi))
    sol = optimal_closed_form(pair)
    numeric = optimal_numeric(pair)
    discrepancy = abs(sol.p_max - numeric.p_max)
    fields = [
        ("chi_deg", math.degrees(pair.chi)),
        ("alpha", pair.alpha),
        ("beta", pair.beta),
        ("phi1", sol.phi1),
        ("phi2", sol.phi2),
        ("t", sol.t),
        ("p_max", sol.p_max),
        ("numeric_p_max", numeric.p_max),
        ("discrepancy", discrepancy),
    ]
    _write(args, {"record": dict(fields)}, lambda: _kv_report(fields))
    if discrepancy > OPTIMAL_DISCREPANCY_LIMIT:
        print(
            f"error: closed-form/numeric discrepancy {discrepancy:.3e} exceeds "
            f"{OPTIMAL_DISCREPANCY_LIMIT:.0e}",
            file=sys.stderr,
        )
        return 3
    return 0


# --------------------------------------------------------------------------- sweep


def sweep_records(chis: list[float]) -> list[SweepRecord]:
    """Build one record per chi (radians): optimal angles, both strategy
    values, and the per-input probabilities at the optimum."""
    pairs = [make_shared_state(float(chi)) for chi in chis]
    sols = [optimal_closed_form(pair) for pair in pairs]
    report = exact_success_probability(
        SchmidtPair(np.array([p.alpha for p in pairs]), np.array([p.beta for p in pairs]),
                    np.array([p.chi for p in pairs])),
        AngleSet(np.array([s.phi1 for s in sols]), np.array([s.phi2 for s in sols])),
    )
    per_input = zip(*(field.tolist() for field in report[:4]))
    return [
        SweepRecord(
            chi_deg=math.degrees(pair.chi),
            alpha=pair.alpha,
            beta=pair.beta,
            epsilon=abs(math.tan(pair.chi)),
            phi1=sol.phi1,
            phi2=sol.phi2,
            p_max=sol.p_max,
            p_concentration=concentration_strategy_value(pair),
            p00=p00,
            p01=p01,
            p10=p10,
            p11=p11,
        )
        for pair, sol, (p00, p01, p10, p11) in zip(pairs, sols, per_input)
    ]


def records_to_csv(records: list[SweepRecord]) -> str:
    # vars(r) holds the fields in declaration order, as CSV_HEADER does;
    # dataclasses.astuple would deep-copy every value at 3x the formatting cost.
    lines = [CSV_HEADER]
    lines.extend(",".join(map(_fmt, vars(r).values())) for r in records)
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be >= 2")
    chis = np.linspace(math.radians(args.chi_start), math.radians(args.chi_end), args.steps)
    records = sweep_records(list(chis))
    _write(args, {"records": [vars(r) for r in records]}, lambda: records_to_csv(records))
    return 0


# --------------------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    pair = make_shared_state(math.radians(args.chi))
    sol = optimal_closed_form(pair)
    result = monte_carlo(pair, AngleSet(sol.phi1, sol.phi2), args.trials, args.seed)
    if result.std_error > 0.0:
        z_score = (result.estimate - sol.p_max) / result.std_error
    else:
        z_score = 0.0 if result.estimate == sol.p_max else math.inf
    fields = [
        ("chi_deg", math.degrees(pair.chi)),
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
    _write(args, {"record": record}, lambda: _kv_report(fields + per_input))
    return 0


# --------------------------------------------------------------------------- classical


def cmd_classical(args: argparse.Namespace) -> int:
    result = enumerate_best(args.mode)
    tables = {name: getattr(result.witness, name)
              for name in ("msg_alice", "msg_bob", "out_alice", "out_bob")}
    record = {
        "mode": result.mode,
        "best_success_count": result.best_success_count,
        "best_probability": str(result.best_probability),
        "best_probability_float": float(result.best_probability),
        "protocols_examined": result.protocols_examined,
        "witness": {name: list(table) for name, table in tables.items()},
    }
    fields = [
        ("mode", result.mode),
        ("best_success_count", f"{result.best_success_count}/16"),
        ("best_probability", record["best_probability"]),
        ("protocols_examined", result.protocols_examined),
        *((f"witness_{name}", "".join(map(str, table))) for name, table in tables.items()),
    ]
    _write(args, {"record": record}, lambda: _kv_report(fields))
    return 0


# --------------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qccsim",
        description="Entanglement-assisted two-bit communication game: "
        "exact values, optimization, sweeps, sampling, and the classical bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p: argparse.ArgumentParser, formats: tuple[str, ...], default: str) -> None:
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("exact", help="success probabilities at given angles")
    p.add_argument("--chi", type=_finite_float, default=None, help="state angle in degrees")
    p.add_argument("--alpha", type=_finite_float, default=None,
                   help="amplitude of |00> (alternative to --chi)")
    p.add_argument("--beta", type=_finite_float, default=None,
                   help="amplitude of |11> (alternative to --chi)")
    p.add_argument("--phi1", type=_finite_float, default=0.0,
                   help="rotation for low bit 0, radians")
    p.add_argument("--phi2", type=_finite_float, default=0.0,
                   help="rotation for low bit 1, radians")
    add_output_flags(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("optimal", help="optimal angles with numeric cross-check")
    p.add_argument("--chi", type=_finite_float, required=True, help="state angle in degrees")
    add_output_flags(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("sweep", help="theory curves over a range of states")
    p.add_argument("--chi-start", type=_finite_float, required=True, help="degrees")
    p.add_argument("--chi-end", type=_finite_float, required=True, help="degrees")
    p.add_argument("--steps", type=int, required=True)
    add_output_flags(p, ("csv", "json"), "csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo at the optimal angles")
    p.add_argument("--chi", type=_finite_float, required=True, help="state angle in degrees")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classical", help="exhaustive deterministic-protocol search")
    p.add_argument("--mode", choices=(MODE_SIMULTANEOUS, MODE_SEQUENTIAL), required=True)
    add_output_flags(p, ("text", "json"), "text")
    p.set_defaults(func=cmd_classical)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
