"""Exact instance analysis: feasibility structure and selection
probabilities by exact enumeration.

The enumeration oracle pushes probability mass forward one step at a
time over the strategy's sufficient statistics, the per-arm (count,
reward sum, cost sum).  Every branch/outcome path that reaches the same
statistics is merged into one state, and a budget on the states
expanded bounds the work and the memory.  The pass is one function over
the arms' atom tables (:meth:`cbandits.core.Distribution.atoms`).  For
the exact law (the default) it runs on Python ints: the sums are
integer multiples of one value unit, and the masses integer numerators
over one denominator per layer, divided out once at the end.  For the
simulator's law it runs on its doubles.  At each state it applies the
greedy rule of :func:`cbandits.strategies.greedy_ties` for the
configured tie rule; the policy enters only as the rule's schedule and
budget (``strategies._selection_inputs``).  The float law is the ground
truth the Monte Carlo kernel (``harness.run_chunk``) is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

from cbandits.core import ProblemInstance, ValidationError, _as_float, _as_int
from cbandits.strategies import (
    POLICY_CONSTRAINED,
    TIE_LOWEST_INDEX,
    EpsilonSchedule,
    _check_strategy,
    _selection_inputs,
    greedy_ties,
)

__all__ = [
    "feasible_set",
    "optimal_feasible_arms",
    "reward_separation",
    "constraint_margin",
    "delta_best_arms",
    "delta_best_arms_bruteforce",
    "FeasibilityProfile",
    "feasibility_profile",
    "OracleResult",
    "exact_selection_probability",
    "ORACLE_MAX_STATES",
    "BRUTEFORCE_MAX_ARMS",
]

# Default budget of states the oracle expands, summed over the steps.  On
# acceptance row B (Bernoulli arms (0.7, 0.3) and (0.5, 0.7)) under
# inverse-time k = 3, t = 15 needs 111,588 states, about 1 s on a 2-vCPU
# x86-64 host, so a call that exceeds the budget fails within about 2 s.
ORACLE_MAX_STATES = 150_000
BRUTEFORCE_MAX_ARMS = 20


def feasible_set(instance: ProblemInstance, kappa: float = 0.0) -> set[int]:
    """Arms whose exact mean cost is at most the budget plus ``kappa``.

    The comparison is non-strict, so an arm sitting exactly on the
    boundary is included.  ``kappa`` may be negative (a tightened
    budget); the result is nondecreasing in ``kappa``.
    """
    kappa = _as_float(kappa, "bad_parameter", "kappa")
    level = instance.constraint_level + kappa
    costs = instance.cost_means()
    return {a for a in range(instance.num_arms) if costs[a] <= level}


def optimal_feasible_arms(instance: ProblemInstance) -> set[int]:
    """Feasible arms with maximal exact mean reward."""
    feasible = feasible_set(instance, 0.0)
    rewards = instance.reward_means()
    best = max(rewards[a] for a in feasible)
    return {a for a in feasible if rewards[a] == best}


def reward_separation(instance: ProblemInstance) -> float:
    """Minimum |mean reward difference| over distinct arm pairs.

    Zero when two arms share a mean reward; the selection bound's reward
    factor is vacuous in that case, though the strategy itself still
    converges.
    """
    means = instance.reward_means()
    return min(
        abs(means[a] - means[b])
        for a, b in itertools.combinations(range(instance.num_arms), 2)
    )


def constraint_margin(instance: ProblemInstance) -> float:
    """Minimum distance from any arm's mean cost to the budget."""
    costs = instance.cost_means()
    level = instance.constraint_level
    return min(abs(c - level) for c in costs)


def delta_best_arms(instance: ProblemInstance, delta: float) -> set[int]:
    """Arms optimal for at least one feasibility set sandwiched by ``delta``.

    An arm qualifies iff it lies in the ``+delta``-relaxed feasible set
    and its mean reward is at least the best reward among the
    ``-delta``-tightened set (an empty tightened set imposes no floor).
    This closed form is checked against subset enumeration by
    :func:`delta_best_arms_bruteforce`.
    """
    delta = _as_float(delta, "bad_parameter", "delta", 0.0)
    upper = feasible_set(instance, delta)
    lower = feasible_set(instance, -delta)
    rewards = instance.reward_means()
    if lower:
        floor = max(rewards[a] for a in lower)
        return {a for a in upper if rewards[a] >= floor}
    return set(upper)


def delta_best_arms_bruteforce(instance: ProblemInstance, delta: float) -> set[int]:
    """Union of argmax sets over every sandwiched feasibility set.

    Enumerates all sets S with tightened subset of S subset of relaxed
    set and collects each S's reward-argmax arms.  Exponential in the
    gap between the two sets; limited to ``BRUTEFORCE_MAX_ARMS`` arms.
    """
    delta = _as_float(delta, "bad_parameter", "delta", 0.0)
    if instance.num_arms > BRUTEFORCE_MAX_ARMS:
        raise ValidationError(
            "bad_parameter",
            f"brute force capped at {BRUTEFORCE_MAX_ARMS} arms, "
            f"got {instance.num_arms}",
        )
    upper = feasible_set(instance, delta)
    lower = feasible_set(instance, -delta)
    gap = sorted(upper - lower)
    rewards = instance.reward_means()
    out: set[int] = set()
    for size in range(len(gap) + 1):
        for extra in itertools.combinations(gap, size):
            candidate = lower | set(extra)
            if not candidate:
                continue
            best = max(rewards[a] for a in candidate)
            out.update(a for a in candidate if rewards[a] == best)
    return out


@dataclass(frozen=True)
class FeasibilityProfile:
    """Summary of an instance's feasibility structure."""

    constraint_level: float
    rho: float
    eta: float
    feasible: frozenset[int]
    optimal: frozenset[int]

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["feasible"] = sorted(self.feasible)
        out["optimal"] = sorted(self.optimal)
        return out


def feasibility_profile(instance: ProblemInstance) -> FeasibilityProfile:
    return FeasibilityProfile(
        constraint_level=instance.constraint_level,
        rho=reward_separation(instance),
        eta=constraint_margin(instance),
        feasible=frozenset(feasible_set(instance, 0.0)),
        optimal=frozenset(optimal_feasible_arms(instance)),
    )


# ---------------------------------------------------------------------------
# exact enumeration oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Exact selection probabilities at one step.

    ``arm_probabilities`` are floats; when ``method == "fraction"`` the
    exact rationals are kept in ``arm_probabilities_exact`` and the
    floats are their roundings.  ``nodes`` is the number of distinct
    states expanded, summed over the steps 1..t.
    """

    t: int
    method: str
    nodes: int
    arm_probabilities: tuple[float, ...]
    arm_probabilities_exact: tuple[Fraction, ...] | None
    delta_events: tuple[tuple[float, float], ...]

    def to_json_dict(self) -> dict:
        """Field values; exact rationals as "num/den", omitted when absent."""
        out = asdict(self)
        out["delta_events"] = [{"delta": d, "probability": p} for d, p in self.delta_events]
        exact = out.pop("arm_probabilities_exact")
        if exact is not None:
            out["arm_probabilities_exact"] = [f"{p.numerator}/{p.denominator}" for p in exact]
        return out


def _forward_pass(tables, steps, level, scale, tie_rule, max_nodes):
    """Selection mass of each arm at the last step, and the states expanded.

    ``tables[a]`` holds arm ``a``'s reward and cost atoms as (value, mass)
    pairs.  ``steps[s]`` is step ``s + 1``'s ``(explore, shares)``: every
    arm gets ``explore``, each of ``j`` greedy ties ``shares[j]`` more, and
    every arm ``shares[0]`` more when there is no greedy candidate.  Each layer
    maps a state, one ``(count, reward_sum, cost_sum)`` triple per arm, to
    its mass.  Paths that reach the same state are merged, so each state's
    selection law is computed once, by
    :func:`~cbandits.strategies.greedy_ties` with ``level`` and ``scale``.
    """
    n = len(tables)
    arm_mass = [0] * n
    nodes = 0

    def check_budget(pending):
        if nodes + pending > max_nodes:
            raise ValidationError(
                "oracle_tree_too_large", f"enumeration exceeded {max_nodes} states"
            )

    layer = {((0, 0, 0),) * n: 1}
    for step, (explore, shares) in enumerate(steps, 1):
        check_budget(len(layer))
        nodes += len(layer)
        children = {}
        for state, prob in layer.items():
            law = [explore] * n
            counts, reward_sums, cost_sums = zip(*state)
            ties = greedy_ties(counts, reward_sums, cost_sums, level, tie_rule, scale)
            share = shares[len(ties)]
            for a in ties or range(n):
                law[a] = law[a] + share
            if step == len(steps):
                for a in range(n):
                    arm_mass[a] = arm_mass[a] + prob * law[a]
                continue
            for a, (rewards, costs) in enumerate(tables):
                p_arm = prob * law[a]
                if p_arm == 0:
                    continue
                count, reward_sum, cost_sum = state[a]
                head, tail = state[:a], state[a + 1 :]
                for x, px in rewards:
                    p_reward = p_arm * px
                    for y, py in costs:
                        key = head + ((count + 1, reward_sum + x, cost_sum + y),) + tail
                        children[key] = children.get(key, 0) + p_reward * py
            # Checked while the layer grows, so memory stays within the
            # budget too.
            check_budget(len(children))
        layer = children
    return arm_mass, nodes


def _float_steps(eps, n):
    """Each step's ``(explore, shares)`` in the simulator's doubles."""
    uniform = 1.0 / n
    steps = []
    for eps_t in eps:
        greedy_mass = 1.0 - eps_t
        shares = [greedy_mass * uniform] + [greedy_mass / j for j in range(1, n + 1)]
        steps.append((eps_t * uniform, shares))
    return steps


def _integer_inputs(tables, eps, level):
    """The fraction method's inputs as integers, and the law's denominator.

    Atom values and the level become integer multiples of 1/V, with V the
    lcm of their denominators (a power of two: they are doubles), so ``cost_sum <= level * count`` is exact on the integers.
    Masses become integer numerators over one denominator per layer: step
    ``s`` multiplies it by ``Q_s = eps_s.denominator * lcm(1..n)``, which
    makes every share an integer, and, unless it is the last step, by the
    reward and cost probability scales (the lcm of the atoms' probability
    denominators).  The greedy rule compares means through ``scale``, a
    common multiple of every count.  Returns ``(tables, steps, level,
    scale, denominator)``.
    """
    n = len(tables)
    values = [v for arm in tables for part in arm for v, _ in part]
    value_scale = math.lcm(level.denominator, *(v.denominator for v in values))
    prob_scales = [
        math.lcm(*(p.denominator for arm in tables for _, p in arm[part]))
        for part in (0, 1)
    ]
    int_tables = [
        tuple(
            [(int(v * value_scale), int(p * prob_scale)) for v, p in part]
            for part, prob_scale in zip(arm, prob_scales)
        )
        for arm in tables
    ]
    ties_lcm = math.lcm(*range(1, n + 1))
    steps = []
    denominator = (prob_scales[0] * prob_scales[1]) ** (len(eps) - 1)
    for eps_t in eps:
        greedy_mass = eps_t.denominator - eps_t.numerator
        shares = [greedy_mass * (ties_lcm // j) for j in range(1, n + 1)]
        steps.append((eps_t.numerator * (ties_lcm // n), [shares[-1]] + shares))
        denominator *= eps_t.denominator * ties_lcm
    scale = math.lcm(*range(1, len(eps) + 1))
    return int_tables, steps, int(level * value_scale), scale, denominator


def _atom_tables(instance: ProblemInstance, num) -> list:
    """Each arm's (reward, cost) atoms with positive mass, as ``num`` pairs."""
    tables = []
    for arm_index, arm in enumerate(instance.arms):
        parts = []
        for part_name, dist in (("reward", arm.reward), ("cost", arm.cost)):
            try:
                atoms = dist.atoms(exact=num is Fraction)
            except ValidationError as err:
                raise ValidationError(
                    err.code,
                    f"arm {arm_index} {part_name} has continuous support; "
                    "the enumeration oracle needs finite-support distributions",
                ) from None
            parts.append([(num(v), num(p)) for v, p in atoms if p > 0.0])
        tables.append(tuple(parts))
    return tables


def exact_selection_probability(
    instance: ProblemInstance,
    schedule: EpsilonSchedule,
    t: int,
    deltas: Sequence[float] = (),
    tie_rule: str = TIE_LOWEST_INDEX,
    policy: str = POLICY_CONSTRAINED,
    method: str = "fraction",
    max_nodes: int = ORACLE_MAX_STATES,
) -> OracleResult:
    """Exact law of the arm selected at step ``t``, by exact enumeration.

    ``policy`` and ``tie_rule`` are the strategy's (config key
    ``strategy``).
    Requires every reward and cost distribution to have finite support
    (:meth:`cbandits.core.Distribution.atoms`).  The work grows with the
    number of distinct (counts, reward sums, cost sums) states at each
    step, and ``max_nodes`` caps the states expanded, summed over the
    steps; each step holds at least one state, so ``t`` above it fails
    at once.  ``method`` is ``"fraction"`` (the default) for the exact
    law of each distribution's ``quantile(U)``, so the probabilities sum
    to exactly 1: the pass runs
    on integer sums and integer mass numerators over one denominator per
    layer, and returns the reduced fractions; or ``"float"`` for double precision
    mirroring the simulator's arithmetic exactly: the sums are the
    simulator's doubles, so its feasibility test ``cost_sum <= level *
    count`` decides as it does in the simulator, even where rounding
    makes that differ from the exact comparison.

    Returns per-arm probabilities and, for each requested ``delta``, the
    probability that the selected arm is delta-best.
    """
    _check_strategy(policy, tie_rule)
    if method not in ("fraction", "float"):
        raise ValidationError("bad_parameter", f"unknown oracle method {method!r}")
    t = _as_int(t, "bad_parameter", "t", 1)
    if t > max_nodes:
        raise ValidationError(
            "oracle_tree_too_large",
            f"enumeration of {t} steps exceeds the budget of {max_nodes} states",
        )
    num = Fraction if method == "fraction" else float
    tables = _atom_tables(instance, num)
    deltas = tuple(_as_float(d, "bad_parameter", "delta", 0.0) for d in deltas)

    epsilon, level = _selection_inputs(policy, schedule, instance.constraint_level)
    eps = [num(epsilon(n)) for n in range(1, t + 1)]
    level = num(level)
    if num is Fraction:
        tables, steps, level, scale, denominator = _integer_inputs(tables, eps, level)
    else:
        steps, scale = _float_steps(eps, instance.num_arms), None
    mass, nodes = _forward_pass(tables, steps, level, scale, tie_rule, max_nodes)
    if num is Fraction:
        mass = [Fraction(m, denominator) for m in mass]

    events = []
    for d in deltas:
        best = delta_best_arms(instance, d)
        events.append((d, float(sum((mass[a] for a in sorted(best)), num(0)))))

    return OracleResult(
        t=t,
        method=method,
        nodes=nodes,
        arm_probabilities=tuple(float(p) for p in mass),
        arm_probabilities_exact=tuple(mass) if num is Fraction else None,
        delta_events=tuple(events),
    )
