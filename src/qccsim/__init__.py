"""Simulator and analysis toolkit for an entanglement-assisted two-bit
communication game over a shared pair alpha|00> + beta|11>."""

__version__ = "0.1.0"

from .state import SchmidtPair, epr_state, make_shared_state, rotated_amplitudes
from .protocol import (
    AngleSet,
    InputPair,
    MonteCarloResult,
    PerInputReport,
    Transcript,
    closed_form_p,
    exact_success_probability,
    monte_carlo,
    run_batch,
    run_once,
    target_function,
)
from .optimize import AngleSolution, optimal_closed_form, optimal_numeric
from .classical import (
    DeterministicProtocol,
    EnumerationResult,
    baseline_protocol,
    enumerate_best,
    evaluate_protocol,
    run_protocol,
)
from .concentration import (
    concentration_strategy_value,
    concentration_success_probability,
    simulate_concentration_batch,
    simulate_concentration_run,
)
