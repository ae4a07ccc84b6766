"""Command-line surface: the parser, the one output path, ``classical`` and ``main``.

This module imports no numpy.  ``main`` runs ``classical`` here and every
other subcommand as ``cmd_<name>`` of ``qccsim.cli``, imported only then.
Each ``cmd_<name>`` passes ``_write`` values and returns nothing: ``main``
alone turns the outcome, a return or an exception, into the exit code.
That import loads no numpy either: of the subcommands, only ``simulate``
loads numpy, inside ``monte_carlo``.  The sweep format lives in
``qccsim.cli``; the JSON writer here takes record keys from ``_fields``.

Subcommands:
  exact     -- per-input and total success probabilities at given angles
  optimal   -- closed-form optimal angles, certified by the Born rule and a bound
  sweep     -- theory curves over a range of shared states (CSV or JSON)
  simulate  -- seeded Monte Carlo runs at the optimal angles
  classical -- exhaustive search over deterministic two-bit protocols

Units: --chi/--chi-start/--chi-end are degrees (the canonical range is
-45..0); --phi1/--phi2 and all angles in output are radians.  Exit codes:
0 success, 1 stdout or the output file cannot be written, the request
does not fit in memory (``sweep --steps 1000000000000000`` or more) or
``simulate`` cannot import numpy, 2 usage or domain error, 3 internal
consistency failure, reported after the result is written.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import re
import sys
from itertools import chain
from typing import Iterable, Iterator

from . import _FLOAT, __version__, classical
from .classical import MODE_SEQUENTIAL, MODE_SIMULTANEOUS

# A token argparse must read as a value, not an option name: it accepts only
# -12 and -1.5 as negative numbers, so -1e-05 and -inf would be refused.
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class ConsistencyError(Exception):
    """A written result failed its own cross-check (exit 3)."""


def _json_pieces(doc: dict) -> Iterable[str]:
    """``json.dumps(doc, indent=2, allow_nan=False) + "\n"``, in pieces.

    Strict JSON: a non-finite float raises ValueError (exit 2) instead of
    printing the non-standard tokens NaN or Infinity.  A non-empty
    ``records`` member (NamedTuples of floats, all of one type) is written
    last, one piece per record from a template built from its ``_fields``,
    filled with ``float.__repr__``, which is what ``json`` writes for a
    finite float; every value is checked first.
    """
    import json  # here, not at the top: text and CSV output never need it

    if not doc.get("records"):
        return [json.dumps(doc, indent=2, allow_nan=False) + "\n"]
    records = doc.pop("records")
    if not all(map(math.isfinite, chain.from_iterable(records))):
        raise ValueError("Out of range float values are not JSON compliant")
    # One record as ``json.dumps(..., indent=2)`` writes it in the array, with a %s per value.
    template = "    {\n" + ",\n".join(
        f"      {json.dumps(name)}: %s" for name in records[0]._fields) + "\n    }"
    head = json.dumps(doc, indent=2, allow_nan=False)[:-2] + ',\n  "records": [\n'
    rows = (template % tuple(map(float.__repr__, r)) for r in records)
    return chain((head + next(rows),), (",\n" + row for row in rows), ("\n  ]\n}\n",))


def _write(args: argparse.Namespace, body: dict, text: Iterable[str]) -> None:
    """Write one result to ``--out`` (default stdout): ``{"meta": ..., **body}``
    with ``--format json``, else the pieces of ``text``, iterated only then.
    Everything is computed and checked before ``--out`` is opened, then
    written piece by piece, so no sweep is held as one string.  Stdout is
    flushed here (``_flush``), so a failed write raises OSError (exit 1)
    inside ``main``."""
    if args.format == "json":
        flags = {k: v for k, v in vars(args).items() if v is not None}
        meta = {"tool": "qccsim", "version": __version__, "command": args.command,
                "seed": getattr(args, "seed", None), "flags": flags}
        pieces = _json_pieces({"meta": meta, **body})
    else:
        pieces = text
    if args.out is None:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError("stdout is closed")
        _flush(sys.stdout, pieces)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)


def _flush(stdout, pieces: Iterable[str] = ()) -> None:
    """Write ``pieces`` to ``stdout`` and flush it.  If that fails, stdout is
    closed, dropping the bytes it could not write, so the interpreter does
    not try them again at exit, and the OSError propagates."""
    try:
        stdout.writelines(pieces)
        stdout.flush()
    except OSError:
        with contextlib.suppress(OSError):
            stdout.close()
        raise


def _kv_report(fields: list[tuple[str, object]]) -> Iterator[str]:
    for key, value in fields:
        text = _FLOAT % value if isinstance(value, float) else str(value)
        yield f"{key} = {text}\n"


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# --------------------------------------------------------------------------- classical


def cmd_classical(args: argparse.Namespace) -> None:
    result = classical.enumerate_best(args.mode)
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
    _write(args, {"record": record}, _kv_report(fields))


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

    p = sub.add_parser("optimal", help="optimal angles with numeric cross-check")
    p.add_argument("--chi", type=_finite_float, required=True, help="state angle in degrees")
    add_output_flags(p, ("text", "json"), "text")

    p = sub.add_parser("sweep", help="theory curves over a range of states")
    p.add_argument("--chi-start", type=_finite_float, required=True, help="degrees")
    p.add_argument("--chi-end", type=_finite_float, required=True, help="degrees")
    p.add_argument("--steps", type=int, required=True)
    add_output_flags(p, ("csv", "json"), "csv")

    p = sub.add_parser("simulate", help="Monte Carlo at the optimal angles")
    p.add_argument("--chi", type=_finite_float, required=True, help="state angle in degrees")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p, ("text", "json"), "text")

    p = sub.add_parser("classical", help="exhaustive deterministic-protocol search")
    p.add_argument("--mode", choices=(MODE_SIMULTANEOUS, MODE_SEQUENTIAL), required=True)
    add_output_flags(p, ("text", "json"), "text")

    for p in (parser, *sub.choices.values()):  # no flag here looks like _NEGATIVE_VALUE
        p._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "classical":
            cmd_classical(args)
        else:
            from . import cli  # the numeric layers load here
            # looked up as it runs, so a wrapper set on qccsim.cli is what runs
            getattr(cli, "cmd_" + args.command)(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)  # MemoryError() is blank
        return 1
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {args.command} needs numpy ({exc})", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> None:
    """The process entry: ``sys.exit(main())`` without the cyclic collector.

    A command frees next to nothing through reference cycles, yet the
    collector would run dozens of times while numpy imports and make full
    passes at exit.  So it is off for the whole process, and every tracked
    object is frozen before exit, which those passes then skip.

    OpenBLAS, which numpy loads for ``simulate``, would start a worker thread
    per core that the package never uses; on a busy host the idle worker
    spins on the main thread's core while numpy imports.  So the process
    asks for one thread, unless the caller set ``OPENBLAS_NUM_THREADS``.

    The help and usage text argparse prints is flushed here, so a stdout
    that cannot take it exits 1 with one error line, as in ``main``.
    ``main`` leaves the collector, the environment and stdout alone for
    in-process callers.
    """
    gc.disable()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
        if sys.stdout is not None:
            try:
                _flush(sys.stdout)
            except OSError as err:
                print(f"error: {err}", file=sys.stderr)
                code = 1
    finally:
        gc.freeze()
    sys.exit(code)
