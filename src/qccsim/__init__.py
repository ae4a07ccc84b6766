"""Simulator and analysis toolkit for an entanglement-assisted two-bit
communication game over a shared pair alpha|00> + beta|11>.

The public names below are loaded on first use (PEP 562); ``qccsim.state``
and the other submodules load the same way.  No module imports numpy when
it loads: the exact values, the optimal angles and their certificate, and
the classical search run in pure Python on Python floats, and numpy is
imported inside the one vectorized sampler (``monte_carlo``) and the one
function that returns an ndarray (``rotated_amplitudes``).  So ``python -m qccsim`` loads numpy for
``simulate`` only.  The command line starts at ``qccsim._entry:run``, as the
console script and as ``python -m qccsim``; the package itself has no ``run``.
"""

import importlib

__version__ = "0.1.0"
_FLOAT = "%.12g"  # how the command line writes a float in text reports and CSV rows

_EXPORTS = {
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
