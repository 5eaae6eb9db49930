"""Finite-time lower bounds on the probability of picking a delta-best arm.

The exact bound is a product of four factors driven by the normalized
cumulative exploration mass x_t.  A closed-form relaxation is available
for inverse-time schedules, in two variants that differ in the exponent
attached to the reward-separation constant rho: ``rho_squared`` matches
the reward tail factor exp(-(rho^2/2) x) and is the default;
``rho_linear`` replaces rho^2 by rho in that exponent, which overstates
the decay whenever rho < 1 and can then exceed the exact bound.  Both
are computed, neither is silently corrected.

Each public function checks its parameters once per call and wraps the
result of a private function that returns the terms as a tuple;
``cbandits bound`` writes its rows from those same functions, so every
formula has one copy.

Raw products are reported alongside clamped values.  A bound is vacuous
when any factor is negative or the product is not positive (NaN
included); the clamped value is 0 there and min(1, raw) otherwise, so
it always lies in [0, 1].
Negative factors must force vacuity explicitly: two negative factors
multiply to a positive raw product that carries no guarantee.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from cbandits.core import ValidationError, _as_float, _as_int
from cbandits.strategies import EpsilonSchedule

__all__ = [
    "VARIANT_RHO_SQUARED",
    "VARIANT_RHO_LINEAR",
    "VARIANTS",
    "BoundReport",
    "ClosedFormReport",
    "selection_lower_bound",
    "closed_form_exponents",
    "closed_form_lower_bound",
]

VARIANT_RHO_SQUARED = "rho_squared"
VARIANT_RHO_LINEAR = "rho_linear"
VARIANTS = (VARIANT_RHO_SQUARED, VARIANT_RHO_LINEAR)

_EXP_OVERFLOW = 700.0
# The bounds read t as a double, and float(t) overflows past the largest.
_MAX_T = sys.float_info.max


def _safe_exp(exponent: float) -> float:
    if exponent > _EXP_OVERFLOW:
        return math.inf
    return math.exp(exponent)


def _mass(schedule: EpsilonSchedule, t: int, num_arms: int) -> float:
    """Normalized cumulative exploration mass x_t.

    ``schedule.cumulative(t)`` divided by 2 * num_arms.  The partial sum
    of switching probabilities is the double nearest the mathematical
    sum, the same on every platform (for the inverse-time schedule, an
    integer fixed-point evaluation whose proven error is below 2**-112 of
    the sum up to t = 10**8, rounded once); never a logarithmic
    surrogate.  The division is exact when num_arms is a power of two and
    otherwise rounds once more.
    Satisfies 0 < x_t <= t / (2 * num_arms).
    """
    return schedule.cumulative(t) / (2.0 * num_arms)


@dataclass(frozen=True)
class BoundReport:
    """Factor-by-factor evaluation of the exact selection bound."""

    t: int
    x_t: float
    epsilon_t: float
    num_arms: int
    delta: float
    rho: float
    factor_eps: float
    factor_count: float
    factor_feas: float
    factor_reward: float
    raw_product: float
    clamped: float
    vacuous: bool


def _clamp(raw: float, negative: bool) -> tuple[float, bool]:
    """(clamped, vacuous) for a raw product, given whether any of its
    factors is negative.

    Vacuous rows clamp to 0.0.  A NaN raw product carries no guarantee,
    so it is vacuous too.  Otherwise the value is ``raw`` if it is below
    1 and 1.0 if not, as min(1.0, raw) would give.
    """
    if negative or not raw > 0.0:
        return 0.0, True
    return (raw if raw < 1.0 else 1.0), False


# The largest num_arms, delta and rho for which the largest product the
# bounds form from each, 10 * num_arms, 2 * delta**2 and rho**2, is a
# finite double.  Past them a factor can read inf * 0 = NaN.
_LIMITS = (
    ("num_arms", sys.float_info.max / 10.0, "10 * num_arms"),
    ("delta", math.sqrt(sys.float_info.max / 2.0), "2 * delta**2"),
    ("rho", math.sqrt(sys.float_info.max), "rho**2"),
)


def _check_parameters(num_arms: int, delta: float, rho: float) -> tuple[int, float, float]:
    """``num_arms``, ``delta`` and ``rho`` as every bound takes them, each
    no larger than its ``_LIMITS`` entry."""
    checked = (
        _as_int(num_arms, "bad_parameter", "num_arms", 2),
        _as_float(delta, "bad_parameter", "delta", 0.0),
        _as_float(rho, "bad_parameter", "rho", 0.0),
    )
    for value, (what, limit, product) in zip(checked, _LIMITS):
        if value > limit:
            raise ValidationError(
                "bad_parameter",
                f"{what} must be at most {limit!r}, so that {product} is finite, "
                f"got {value!r}",
            )
    return checked


def _selection_terms(schedule: EpsilonSchedule, t: int, n: int, delta: float, rho: float) -> tuple:
    """The exact bound at step ``t`` of ``schedule`` for checked t, n,
    delta and rho: (epsilon_t, x_t, factor_eps, factor_count,
    factor_feas, factor_reward, raw, clamped, vacuous), the order of the
    ``cbandits bound`` columns."""
    epsilon_t = schedule.epsilon(t)
    x = _mass(schedule, t, n)
    factor_eps = 1.0 - epsilon_t / n
    factor_count = 1.0 - n * math.exp(-x / 5.0)
    factor_feas = 1.0 - 2.0 * n * math.exp(-2.0 * delta * delta * x)
    factor_reward = 1.0 - 2.0 * n * math.exp(-(rho * rho / 2.0) * x)
    assert (
        factor_eps <= 1.0 and factor_count <= 1.0 and factor_feas <= 1.0 and factor_reward <= 1.0
    )
    raw = factor_eps * factor_count * factor_feas * factor_reward
    clamped, vacuous = _clamp(
        raw, factor_eps < 0.0 or factor_count < 0.0 or factor_feas < 0.0 or factor_reward < 0.0
    )
    return (epsilon_t, x, factor_eps, factor_count, factor_feas, factor_reward,
            raw, clamped, vacuous)


def selection_lower_bound(
    schedule: EpsilonSchedule,
    t: int,
    num_arms: int,
    delta: float,
    rho: float,
) -> BoundReport:
    """Exact lower bound on the probability that the arm selected at step
    ``t`` is delta-best, as a function of the schedule's history."""
    t = _as_int(t, "bad_parameter", "t", 1, _MAX_T)
    num_arms, delta, rho = _check_parameters(num_arms, delta, rho)
    (epsilon_t, x, factor_eps, factor_count, factor_feas, factor_reward,
     raw, clamped, vacuous) = _selection_terms(schedule, t, num_arms, delta, rho)
    return BoundReport(
        t=t,
        x_t=x,
        epsilon_t=epsilon_t,
        num_arms=num_arms,
        delta=delta,
        rho=rho,
        factor_eps=factor_eps,
        factor_count=factor_count,
        factor_feas=factor_feas,
        factor_reward=factor_reward,
        raw_product=raw,
        clamped=clamped,
        vacuous=vacuous,
    )


@dataclass(frozen=True)
class ClosedFormReport:
    """Closed-form bound (1 - k/(n t)) (1 - beta / t^alpha)^3 for the
    inverse-time schedule min(1, k/t), valid for t >= k."""

    t: float
    k: float
    num_arms: int
    delta: float
    rho: float
    variant: str
    alpha: float
    beta: float
    log_beta: float
    factor_eps: float
    factor_tail: float
    raw_product: float
    clamped: float
    vacuous: bool


def closed_form_exponents(
    k: float,
    num_arms: int,
    delta: float,
    rho: float,
    variant: str = VARIANT_RHO_SQUARED,
) -> tuple[float, float]:
    """(alpha, log beta) for the closed-form bound.

    alpha is the smallest of the three per-factor decay exponents; beta
    is the largest of the matching coefficients, returned in log space
    because it overflows doubles already for moderate k.
    """
    num_arms, delta, rho = _check_parameters(num_arms, delta, rho)
    k = _as_float(k, "bad_parameter", "k", 1.0, strict=True)
    if variant not in VARIANTS:
        raise ValidationError(
            "bad_parameter",
            f"variant must be one of {VARIANTS}, got {variant!r}",
        )
    n = num_arms
    rho_term = rho * rho if variant == VARIANT_RHO_SQUARED else rho
    exps = (k / (10.0 * n), delta * delta * k / n, rho_term * k / (4.0 * n))
    coefs = (float(n), 2.0 * n, 2.0 * n)
    alpha = min(exps)
    log_k = math.log(k)
    log_beta = max(math.log(c) + a * log_k for c, a in zip(coefs, exps))
    return alpha, log_beta


def _closed_form_terms(k: float, n: int, t: float, alpha: float, log_beta: float) -> tuple:
    """The closed form at t >= k: (factor_eps, factor_tail, raw, clamped,
    vacuous)."""
    ratio = _safe_exp(log_beta - alpha * math.log(t))
    factor_eps = 1.0 - k / (n * t)
    factor_tail = 1.0 - ratio
    try:
        raw = factor_eps * factor_tail**3
    except OverflowError:
        # Only a tail ratio above about e**236 gets here, so factor_tail
        # is negative and the row reads vacuous either way.
        raw = -math.inf
    clamped, vacuous = _clamp(raw, factor_eps < 0.0 or factor_tail < 0.0)
    return factor_eps, factor_tail, raw, clamped, vacuous


def closed_form_lower_bound(
    k: float,
    num_arms: int,
    delta: float,
    rho: float,
    t: float,
    variant: str = VARIANT_RHO_SQUARED,
) -> ClosedFormReport:
    """Closed-form relaxation of the selection bound for the schedule
    min(1, k/t), requiring k > 1 and t >= k.

    The ``rho_squared`` variant never exceeds the exact bound; the
    ``rho_linear`` variant can when rho < 1.
    """
    alpha, log_beta = closed_form_exponents(k, num_arms, delta, rho, variant)
    k = float(k)
    t = _as_float(t, "bad_parameter", "t")
    if t < k:
        raise ValidationError(
            "bad_parameter", f"the closed form needs t >= k, got t={t} < k={k}"
        )
    factor_eps, factor_tail, raw, clamped, vacuous = _closed_form_terms(
        k, num_arms, t, alpha, log_beta
    )
    return ClosedFormReport(
        t=t,
        k=k,
        num_arms=num_arms,
        delta=delta,
        rho=rho,
        variant=variant,
        alpha=alpha,
        beta=_safe_exp(log_beta),
        log_beta=log_beta,
        factor_eps=factor_eps,
        factor_tail=factor_tail,
        raw_product=raw,
        clamped=clamped,
        vacuous=vacuous,
    )

