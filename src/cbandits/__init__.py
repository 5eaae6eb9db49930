"""Constrained epsilon-greedy bandits: simulation, exact analysis, bounds."""

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
    exploration_mass,
    selection_lower_bound,
)
from cbandits.harness import (
    ExperimentConfig,
    ExperimentResult,
    MonteCarloEstimate,
    run_experiment,
    wilson_interval,
)

__version__ = "0.1.0"
