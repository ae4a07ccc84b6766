"""The CLI calls pinned in ``tests/data/cli_golden.json`` and their comparison.

Standard library only.  ``tests/test_golden.py`` captures and compares every
call with these functions.  Run as a script, this module runs every call that
runs without numpy -- all but the ``simulate`` calls that sample -- and
recomputes the ``per_input`` tallies of each pinned call that samples with
``oracle_tallies`` from ``tests/oracles.py``, so it also runs on an
interpreter without numpy installed.  From the repository root:

    PYTHONPATH=src python tests/golden_cli.py

It prints each call whose exit code, output or tallies differ from the
golden file and exits 1 if there is one.  The tests run the CLI through this
module's two runners, ``run_cli`` in process and ``run_python`` in a fresh
interpreter (whose environment is ``python_env``), and read text reports with
``parse_kv``.
"""

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from oracles import oracle_tallies
from qccsim import cli
from qccsim.optimize import optimal_closed_form
from qccsim.state import make_shared_state

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "cli_golden.json"

CLI_CALLS = [
    ["exact", "--chi", "-45", "--phi1", "-0.19635", "--phi2", "0.58905"],
    ["exact", "--chi", "-22.5", "--phi1", "0.1", "--phi2", "-0.2", "--format", "json"],
    ["exact", "--alpha", "0.8", "--beta", "-0.6", "--phi1", "0.3", "--phi2", "0.7"],
    ["exact", "--alpha", "0.8", "--beta", "-0.6", "--phi1", "0.3", "--phi2", "0.7",
     "--format", "json"],
    ["optimal", "--chi", "-30"],
    ["optimal", "--chi", "-45", "--format", "json"],
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31"],
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31", "--format", "json"],
    ["simulate", "--chi", "-30", "--trials", "10000", "--seed", "7"],
    ["simulate", "--chi", "-30", "--trials", "10000", "--seed", "7", "--format", "json"],
    ["classical", "--mode", "simultaneous"],
    ["classical", "--mode", "sequential", "--format", "json"],
    # unbounded z_score: "inf" in text, null in JSON
    ["simulate", "--chi", "0", "--trials", "1"],
    ["simulate", "--chi", "0", "--trials", "1", "--format", "json"],
    ["classical", "--mode", "sequential"],
    ["classical", "--mode", "simultaneous", "--format", "json"],
    # hand-typed amplitudes, renormalized before use
    ["exact", "--alpha", "0.92388", "--beta", "-0.38268"],
    ["optimal", "--chi", "0"],
    # refused: exit code 2, empty stdout
    ["exact", "--alpha", "0.8", "--beta", "0.6"],
    ["simulate", "--chi", "0", "--trials", "0"],
    ["exact", "--alpha", "0.5", "--beta", "-0.5"],  # too far from normalized to renormalize
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "1"],
    ["exact", "--chi", "-30", "--phi1", "abc"],  # by argparse
    # more trials than one monte_carlo chunk
    ["simulate", "--chi", "-30", "--trials", "1000000", "--seed", "7"],
    ["simulate", "--chi", "-30", "--trials", "1000000", "--seed", "7", "--format", "json"],
    # the smallest sweep
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "2", "--format", "json"],
    # chi just above 0, inside make_shared_state's tolerance
    ["exact", "--chi", "1e-13"],
    ["optimal", "--chi", "1e-13"],
    ["simulate", "--chi", "1e-13", "--trials", "10"],
    ["sweep", "--chi-start", "-45", "--chi-end", "1e-11", "--steps", "3"],
    # chi just below 0, where phi1 is about -2e-9 and -2e-12 rad and 1 - cos 4phi1 is tiny
    ["optimal", "--chi", "-0.0001"],
    ["optimal", "--chi", "-1e-06"],
    # a seed past 2^64
    ["simulate", "--chi", "-30", "--trials", "16385", "--seed", "1267650600228229401496703205379",
     "--format", "json"],
]

# pinned by exit code and stdout sha256 only
CLI_HASHED_CALLS = [
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "2001"],
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "2001", "--format", "json"],
]

# run as ``python -m qccsim`` in a fresh interpreter, pinned with stderr too
CLI_SUBPROCESS_CALLS = [
    ["--help"],
    *([command, "--help"] for command in ("exact", "optimal", "sweep", "simulate", "classical")),
    # refused by argparse: exit code 2, usage on stderr
    ["exact", "--chi", "-30", "--phi1", "nan"],
    # hand-typed amplitudes: the renormalization note on stderr
    ["exact", "--alpha", "0.92388", "--beta", "-0.38268"],
]


def samples(argv: list) -> bool:
    """Whether the call draws from numpy's generator: a ``simulate`` of at least one trial."""
    return "--trials" in argv and int(argv[argv.index("--trials") + 1]) >= 1


def run_cli(argv: list) -> tuple:
    """``(code, stdout, stderr)`` of ``cli.main(argv)`` in this process.

    An argparse usage error or ``--help`` exits; its exit code is the code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_kv(text: str) -> dict:
    """A text report's ``key = value`` lines as a dict of strings."""
    result = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        result[key] = value
    return result


def python_env(unset=()) -> dict:
    """The environment of a fresh interpreter that imports qccsim from ``src``,
    without the variables named in ``unset``."""
    env = dict(os.environ, COLUMNS="80")  # argparse wraps help text to the terminal width
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for name in unset:
        env.pop(name, None)
    return env


def run_python(*args: str, cwd=ROOT, stdout=subprocess.PIPE, unset=()) -> subprocess.CompletedProcess:
    """``python *args`` as text, in a fresh interpreter with ``python_env(unset)``.

    Stderr is captured, and so is stdout unless ``stdout`` names another file.
    """
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=python_env(unset), cwd=cwd, timeout=120)


def capture_cli(sampled: bool = True) -> dict:
    """The golden file's sections ``cli``, ``cli_sha256`` and ``cli_subprocess``, as run now.

    With ``sampled`` false, the calls that sample are left out.
    """
    def keep(calls):
        return [argv for argv in calls if sampled or not samples(argv)]

    cli_out = {}
    for argv in keep(CLI_CALLS):
        code, out, _ = run_cli(argv)
        cli_out[" ".join(argv)] = {"code": code, "stdout": out}
    cli_hashed = {}
    for argv in keep(CLI_HASHED_CALLS):
        code, out, _ = run_cli(argv)
        cli_hashed[" ".join(argv)] = {
            "code": code, "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}
    cli_subprocess = {}
    for argv in keep(CLI_SUBPROCESS_CALLS):
        proc = run_python("-m", "qccsim", *argv)
        cli_subprocess[" ".join(argv)] = {
            "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    return {"cli": cli_out, "cli_sha256": cli_hashed, "cli_subprocess": cli_subprocess}


def mismatches(want: dict, got: dict) -> list:
    """Each call in ``got``'s sections whose record is not ``want``'s, as ``section: call``."""
    return [f"{section}: {call}" for section, records in got.items()
            for call, record in records.items() if want[section].get(call) != record]


def golden_per_input(record: dict) -> dict:
    """A pinned ``simulate`` call's tallies, ``{"00": [successes, trials], ...}``,
    read from its JSON record or from its text report's ``per_input`` lines."""
    if record["stdout"].startswith("{"):
        return json.loads(record["stdout"])["record"]["per_input_counts"]
    return {key.removeprefix("per_input "): [int(n) for n in value.split("/")]
            for key, value in parse_kv(record["stdout"]).items() if key.startswith("per_input ")}


@functools.cache  # a text call and its JSON twin sample alike
def oracle_per_input(chi: str, trials: str, seed: str) -> dict:
    """``golden_per_input``'s tallies of ``simulate`` with these flag values, without numpy:
    the pair and the optimal angles from the package's exact layer, the draws
    and the outcomes from ``oracle_tallies``."""
    pair = make_shared_state(math.radians(float(chi)))
    sol = optimal_closed_form(pair)
    tallies = oracle_tallies(pair.alpha, pair.beta, sol.phi1, sol.phi2, int(trials), int(seed))
    return {f"{x0}{y0}": list(counts) for (x0, y0), counts in tallies.items()}


def main() -> int:
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = capture_cli(sampled=False)
    bad = mismatches(want, got)
    # every golden call is either run here or, if it samples, has its tallies recomputed
    recomputed = 0
    for section in got:
        for call in want[section]:
            argv = call.split()
            if not samples(argv):
                if call not in got[section]:
                    bad.append(f"{section}: {call} (not run)")
            elif section != "cli":
                bad.append(f"{section}: {call} (samples, not recomputed)")
            else:
                recomputed += 1
                flags = dict(zip(argv[1::2], argv[2::2]))
                oracle = oracle_per_input(flags["--chi"], flags["--trials"],
                                          flags.get("--seed", "0"))
                if golden_per_input(want[section][call]) != oracle:
                    bad.append(f"{section}: {call} (tallies differ from oracle_tallies)")
    if sys.modules.get("numpy") is not None:
        bad.append("numpy was imported")
    for line in bad:
        print(line)
    print(f"{sum(map(len, got.values()))} calls checked, {recomputed} golden simulate tallies"
          f" recomputed, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
