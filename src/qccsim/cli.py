"""Command-line surface.

Subcommands:
  exact     -- per-input and total success probabilities at given angles
  optimal   -- closed-form optimal angles, cross-checked numerically
  sweep     -- theory curves over a range of shared states (CSV or JSON)
  simulate  -- seeded Monte Carlo runs at the optimal angles
  classical -- exhaustive search over deterministic two-bit protocols

Units: --chi/--chi-start/--chi-end are degrees (the canonical range is
-45..0); --phi1/--phi2 and all angles in output are radians.  Exit codes:
0 success, 2 usage or domain error, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .classical import MODE_SEQUENTIAL, MODE_SIMULTANEOUS, enumerate_best
from .concentration import concentration_strategy_value
from .optimize import optimal_closed_form, optimal_numeric
from .protocol import AngleSet, closed_form_p, exact_success_probability, monte_carlo
from .state import CHI_DOMAIN_TOL, SchmidtPair, make_shared_state

CSV_HEADER = "chi_deg,alpha,beta,epsilon,phi1,phi2,p_max,p_concentration,p00,p01,p10,p11"
OPTIMAL_DISCREPANCY_LIMIT = 1e-6
# CLI amplitudes are typically hand-typed decimals; accept small normalization
# drift and renormalize exactly before use.
AMPLITUDE_NORM_TOL = 1e-4


@dataclass(frozen=True)
class SweepRecord:
    """One sweep grid point: state parameters, optimal angles, and the
    direct (p_max) and concentrate-then-play (p_concentration) values."""

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


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    # Strict JSON: a non-finite float raises ValueError (exit 2) instead of
    # printing the non-standard tokens NaN or Infinity.
    _emit(json.dumps(payload, indent=2, allow_nan=False) + "\n", out_path)


def _meta(command: str, args: argparse.Namespace, seed: int | None = None) -> dict:
    flags = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    return {"tool": "qccsim", "version": __version__, "command": command,
            "seed": seed, "flags": flags}


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
    alpha, beta = alpha / norm, beta / norm
    chi = math.atan2(beta, alpha)
    if not (-math.pi / 4 - CHI_DOMAIN_TOL <= chi <= CHI_DOMAIN_TOL):
        raise ValueError(
            "amplitudes outside the canonical domain (need beta <= 0 <= alpha, alpha >= |beta|)"
        )
    return SchmidtPair(alpha, beta, chi)


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
    if args.format == "json":
        payload = {"meta": _meta("exact", args), "record": {k: float(v) for k, v in fields}}
        _emit_json(payload, args.out)
    else:
        _emit(_kv_report(fields), args.out)
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
    if args.format == "json":
        payload = {"meta": _meta("optimal", args), "record": {k: float(v) for k, v in fields}}
        _emit_json(payload, args.out)
    else:
        _emit(_kv_report(fields), args.out)
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
    records = []
    for chi in chis:
        pair = make_shared_state(float(chi))
        sol = optimal_closed_form(pair)
        report = exact_success_probability(pair, AngleSet(sol.phi1, sol.phi2))
        records.append(
            SweepRecord(
                chi_deg=math.degrees(pair.chi),
                alpha=pair.alpha,
                beta=pair.beta,
                epsilon=abs(math.tan(pair.chi)),
                phi1=sol.phi1,
                phi2=sol.phi2,
                p_max=sol.p_max,
                p_concentration=concentration_strategy_value(pair),
                p00=report.p00,
                p01=report.p01,
                p10=report.p10,
                p11=report.p11,
            )
        )
    return records


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (r.chi_deg, r.alpha, r.beta, r.epsilon, r.phi1, r.phi2,
                          r.p_max, r.p_concentration, r.p00, r.p01, r.p10, r.p11)
            )
        )
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be >= 2")
    chis = np.linspace(math.radians(args.chi_start), math.radians(args.chi_end), args.steps)
    records = sweep_records(list(chis))
    if args.format == "json":
        payload = {
            "meta": _meta("sweep", args),
            "records": [{k: float(v) for k, v in vars(r).items()} for r in records],
        }
        _emit_json(payload, args.out)
    else:
        _emit(records_to_csv(records), args.out)
    return 0


# --------------------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
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
    if args.format == "json":
        record = {k: (float(v) if isinstance(v, float) else v) for k, v in fields}
        if math.isinf(z_score):
            record["z_score"] = None  # unbounded: estimate off p_max with zero std_error
        record["per_input_counts"] = {k: list(v) for k, v in tallies.items()}
        payload = {"meta": _meta("simulate", args, seed=args.seed), "record": record}
        _emit_json(payload, args.out)
    else:
        text = _kv_report(fields)
        for key, (successes, drawn) in tallies.items():
            text += f"per_input {key} = {successes}/{drawn}\n"
        _emit(text, args.out)
    return 0


# --------------------------------------------------------------------------- classical


def cmd_classical(args: argparse.Namespace) -> int:
    result = enumerate_best(args.mode)
    witness = result.witness
    if args.format == "json":
        payload = {
            "meta": _meta("classical", args),
            "record": {
                "mode": result.mode,
                "best_success_count": result.best_success_count,
                "best_probability": str(result.best_probability),
                "best_probability_float": float(result.best_probability),
                "protocols_examined": result.protocols_examined,
                "witness": {
                    "msg_alice": list(witness.msg_alice),
                    "msg_bob": list(witness.msg_bob),
                    "out_alice": list(witness.out_alice),
                    "out_bob": list(witness.out_bob),
                },
            },
        }
        _emit_json(payload, args.out)
    else:
        bits = lambda table: "".join(str(b) for b in table)
        fields = [
            ("mode", result.mode),
            ("best_success_count", f"{result.best_success_count}/16"),
            ("best_probability", str(result.best_probability)),
            ("protocols_examined", result.protocols_examined),
            ("witness_msg_alice", bits(witness.msg_alice)),
            ("witness_msg_bob", bits(witness.msg_bob)),
            ("witness_out_alice", bits(witness.out_alice)),
            ("witness_out_bob", bits(witness.out_bob)),
        ]
        _emit(_kv_report(fields), args.out)
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
