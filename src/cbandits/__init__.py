"""Constrained epsilon-greedy bandits: simulation, exact analysis, bounds.

The Monte Carlo harness names are served on first use (PEP 562), so
importing the package, or a module of it other than the harness, does
not import numpy.
"""

import importlib

from cbandits.core import (
    Arm,
    Bernoulli,
    Beta,
    Discrete,
    PointMass,
    ProblemInstance,
    ValidationError,
    distribution_from_config,
    instance_from_config,
    step_uniforms,
)
from cbandits.strategies import (
    ConstantSchedule,
    EpsilonSchedule,
    ExplicitSchedule,
    InverseTimeSchedule,
    greedy_ties,
    schedule_from_config,
)
from cbandits.analysis import (
    FeasibilityProfile,
    OracleResult,
    constraint_margin,
    delta_best_arms,
    exact_selection_probability,
    feasibility_profile,
    feasible_set,
    optimal_feasible_arms,
    reward_separation,
)
from cbandits.bounds import (
    BoundReport,
    ClosedFormReport,
    closed_form_lower_bound,
    selection_lower_bound,
)

__version__ = "0.1.0"

_HARNESS_NAMES = (
    "ExperimentConfig",
    "ExperimentResult",
    "MonteCarloEstimate",
    "run_experiment",
    "wilson_interval",
)


def __getattr__(name):
    if name in _HARNESS_NAMES:
        return getattr(importlib.import_module("cbandits.harness"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
