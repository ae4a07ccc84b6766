"""Import boundary: what a fresh interpreter loads for each entry point.

A bare ``import qccsim`` and every subcommand but ``simulate`` -- refusals
included -- must not load numpy; ``simulate`` must.  Text and CSV output
load neither ``json`` nor ``fractions``.  ``import qccsim.cli``
loads every layer module (the benchmark's tracer reads them from
``sys.modules`` after that one import).  In the source, numpy is imported
only inside ``protocol.monte_carlo``, or for type checking.
"""

import ast
import importlib

import pytest

import qccsim
from golden_cli import ROOT, run_python

LAYERS = ("state", "protocol", "optimize", "classical", "concentration", "cli")
PUBLIC = {
    "state": ["SchmidtPair", "epr_state", "make_shared_state"],
    "protocol": ["AngleSet", "InputPair", "MonteCarloResult", "PerInputReport", "Transcript",
                 "closed_form_p", "exact_success_probability", "monte_carlo", "run_once",
                 "target_function"],
    "optimize": ["AngleSolution", "optimal_closed_form"],
    "classical": ["DeterministicProtocol", "EnumerationResult", "baseline_protocol",
                  "enumerate_best", "evaluate_protocol", "run_protocol"],
    "concentration": ["concentration_strategy_value", "concentration_success_probability",
                      "simulate_concentration_run"],
}


# (module, top-level function) where the package may import numpy
NUMPY_HOMES = {("protocol", "monte_carlo")}


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
    proc = run_python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    modules = _imported(proc.stderr)
    assert "qccsim" in modules
    assert not _numpy(modules)


def test_refused_request_does_not_import_numpy():
    proc = run_python("-X", "importtime", "-m", "qccsim", "exact", "--chi", "10")
    assert proc.returncode == 2, proc.stderr
    assert "outside the canonical domain" in proc.stderr
    assert not _numpy(_imported(proc.stderr))


@pytest.mark.parametrize("args", [
    ["exact", "--chi", "-30"],
    ["optimal", "--chi", "-30"],
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31"],
])
def test_text_output_loads_neither_json_nor_fractions(args):
    proc = run_python("-X", "importtime", "-m", "qccsim", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    # what the interpreter's own start-up loaded is listed before the package
    after = lines[[line.endswith("| qccsim") for line in lines].index(True):]
    assert not {"json", "fractions"} & _imported("\n".join(after))


def test_simulate_imports_numpy():
    proc = run_python("-X", "importtime", "-m", "qccsim", "simulate", "--chi", "-30",
                      "--trials", "10")
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in _numpy(_imported(proc.stderr))


def _numpy_imports(tree):
    """(line, enclosing top-level function or None) of each numpy import not for type checking."""
    for top in tree.body:
        function = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        statements = [top]
        if isinstance(top, ast.If) and ast.unparse(top.test) in ("TYPE_CHECKING",
                                                                "typing.TYPE_CHECKING"):
            statements = top.orelse
        for node in (node for statement in statements for node in ast.walk(statement)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                yield node.lineno, function


def test_numpy_is_imported_only_inside_the_sampler():
    homes = set()
    for path in sorted((ROOT / "src" / "qccsim").glob("*.py")):
        for line, function in _numpy_imports(ast.parse(path.read_text())):
            assert (path.stem, function) in NUMPY_HOMES, f"{path.name}:{line}"
            homes.add((path.stem, function))
    assert ("protocol", "monte_carlo") in homes  # the walk does see the sampler's import


def test_cli_module_imports_every_layer():
    out = run_python("-c", "import sys, qccsim.cli; print(*sorted(sys.modules))").stdout.split()
    assert {f"qccsim.{layer}" for layer in LAYERS} <= set(out)


def test_bare_import_exposes_submodules():
    code = "import qccsim; print(*(getattr(qccsim, m).__name__ for m in %r))" % (LAYERS[:-1],)
    assert run_python("-c", code).stdout.split() == [f"qccsim.{m}" for m in LAYERS[:-1]]


def test_public_names_resolve_to_their_modules():
    assert sorted(qccsim.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    # Before any of them loads, in a fresh interpreter, dir() lists them all.
    listed = run_python("-c", "import qccsim; print(*dir(qccsim))").stdout.split()
    assert {*qccsim.__all__, *LAYERS} <= set(listed)
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(qccsim, name) is getattr(importlib.import_module(f"qccsim.{module}"),
                                                    name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        qccsim.no_such_name
