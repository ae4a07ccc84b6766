"""Import boundary: what a fresh interpreter loads for each entry point.

A bare ``import qccsim`` and every subcommand but ``simulate`` -- refusals
included -- must not load numpy; ``simulate`` must.  Text and CSV output
load neither ``json`` nor ``fractions``.  ``import qccsim.cli``
loads every layer module (the benchmark's tracer reads them from
``sys.modules`` after that one import).
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qccsim

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("state", "protocol", "optimize", "classical", "concentration", "cli")
PUBLIC = {
    "state": ["SchmidtPair", "epr_state", "make_shared_state", "rotated_amplitudes"],
    "protocol": ["AngleSet", "InputPair", "MonteCarloResult", "PerInputReport", "Transcript",
                 "closed_form_p", "exact_success_probability", "monte_carlo", "run_once",
                 "target_function"],
    "optimize": ["AngleSolution", "optimal_closed_form"],
    "classical": ["DeterministicProtocol", "EnumerationResult", "baseline_protocol",
                  "enumerate_best", "evaluate_protocol", "run_protocol"],
    "concentration": ["concentration_strategy_value", "concentration_success_probability",
                      "simulate_concentration_run"],
}


def _python(*args, code=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == code, proc.stderr
    return proc


def _imported(stderr):
    """Module names from ``-X importtime`` lines."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def _numpy(modules):
    return {m for m in modules if m == "numpy" or m.startswith("numpy.")}


@pytest.mark.parametrize("args", [
    ["-m", "qccsim", "classical", "--mode", "simultaneous"],
    ["-m", "qccsim", "classical", "--mode", "sequential"],
    ["-c", "import qccsim"],
    ["-m", "qccsim", "exact", "--chi", "-30"],
    ["-m", "qccsim", "exact", "--alpha", "0.8", "--beta", "-0.6"],
    ["-m", "qccsim", "optimal", "--chi", "-30"],
    ["-m", "qccsim", "sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31",
     "--format", "json"],
])
def test_entry_points_do_not_import_numpy(args):
    modules = _imported(_python("-X", "importtime", *args).stderr)
    assert "qccsim" in modules
    assert not _numpy(modules)


def test_refused_request_does_not_import_numpy():
    proc = _python("-X", "importtime", "-m", "qccsim", "exact", "--chi", "10", code=2)
    assert "outside the canonical domain" in proc.stderr
    assert not _numpy(_imported(proc.stderr))


@pytest.mark.parametrize("args", [
    ["exact", "--chi", "-30"],
    ["optimal", "--chi", "-30"],
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31"],
])
def test_text_output_loads_neither_json_nor_fractions(args):
    lines = _python("-X", "importtime", "-m", "qccsim", *args).stderr.splitlines()
    # what the interpreter's own start-up loaded is listed before the package
    after = lines[[line.endswith("| qccsim") for line in lines].index(True):]
    assert not {"json", "fractions"} & _imported("\n".join(after))


def test_simulate_imports_numpy():
    proc = _python("-X", "importtime", "-m", "qccsim", "simulate", "--chi", "-30", "--trials", "10")
    assert "numpy" in _numpy(_imported(proc.stderr))


def test_cli_module_imports_every_layer():
    out = _python("-c", "import sys, qccsim.cli; print(*sorted(sys.modules))").stdout.split()
    assert {f"qccsim.{layer}" for layer in LAYERS} <= set(out)


def test_bare_import_exposes_submodules():
    code = "import qccsim; print(*(getattr(qccsim, m).__name__ for m in %r))" % (LAYERS[:-1],)
    assert _python("-c", code).stdout.split() == [f"qccsim.{m}" for m in LAYERS[:-1]]


def test_public_names_resolve_to_their_modules():
    assert sorted(qccsim.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(qccsim, name) is getattr(importlib.import_module(f"qccsim.{module}"),
                                                    name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        qccsim.no_such_name
