"""Exploration schedules and the constrained epsilon-greedy selection rule.

The greedy decision is written once as a scalar, over plain per-arm
statistics: :func:`greedy_ties` decides which arms the greedy branch may
pick, in float or exact integer arithmetic.  The exact oracle
(``analysis``) calls it at every state, and the vectorized harness
kernel (``harness.run_chunk``) applies the same rule to a block of
replications at once.  A step consumes exactly
:data:`~cbandits.core.DRAWS_PER_STEP` uniforms, one Philox block, in a
fixed order (branch, arm, reward, cost), whether or not a draw's value
ends up used.  Both read ``schedule.epsilon(t)`` at each step; no
schedule is stored over the horizon.
"""

from __future__ import annotations

import decimal
import fractions
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from cbandits.core import (
    ValidationError,
    _as_float,
    _as_int,
    _from_kind_table,
)

__all__ = [
    "EpsilonSchedule",
    "ConstantSchedule",
    "InverseTimeSchedule",
    "ExplicitSchedule",
    "schedule_from_config",
    "greedy_ties",
    "TIE_LOWEST_INDEX",
    "TIE_UNIFORM",
    "TIE_RULES",
    "POLICY_CONSTRAINED",
    "POLICY_UNIFORM",
    "POLICY_UNCONSTRAINED",
    "POLICIES",
]

TIE_LOWEST_INDEX = "lowest_index"
TIE_UNIFORM = "uniform"
TIE_RULES = (TIE_LOWEST_INDEX, TIE_UNIFORM)

POLICY_CONSTRAINED = "constrained_eps_greedy"
POLICY_UNIFORM = "uniform"
POLICY_UNCONSTRAINED = "unconstrained_eps_greedy"
POLICIES = (POLICY_CONSTRAINED, POLICY_UNIFORM, POLICY_UNCONSTRAINED)


# ---------------------------------------------------------------------------
# exploration schedules
# ---------------------------------------------------------------------------


class EpsilonSchedule:
    """Exploration probability as a function of the 1-based step index.

    Every schedule value lies in (0, 1].  ``cumulative`` returns the double
    nearest the mathematical partial sum of the schedule values, so it is
    the same on every platform and never a logarithmic surrogate.
    """

    kind: str = "abstract"

    def epsilon(self, t: int) -> float:
        raise NotImplementedError

    def cumulative(self, t: int) -> float:
        """Correctly rounded partial sum of schedule values over steps 1..t."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


# Euler's constant to 72 significant digits.
_EULER_GAMMA = decimal.Decimal(
    "0.577215664901532860606512090082402431042159335939923598805767234884867727"
)
# Euler-Maclaurin coefficients B_2j / (2j), j = 1..10, of the harmonic numbers.
_HARMONIC_SERIES = (
    (1, 12), (-1, 120), (1, 252), (-1, 240), (1, 132),
    (-691, 32760), (1, 12), (-3617, 8160), (43867, 14364), (-174611, 6600),
)
_HARMONIC_DIRECT_BELOW = 100
_HARMONIC_CONTEXT = decimal.Context(prec=60)
# Relative error bound of the decimal evaluation in InverseTimeSchedule.
_HARMONIC_SLACK_DIGITS = 40


def _harmonic(n: int) -> decimal.Decimal:
    """H_n = sum of 1/i for i in 1..n, with absolute error below 3e-42.

    Below 100 the terms are added directly.  From 100 on, the
    Euler-Maclaurin expansion

        H_n = ln n + gamma + 1/(2n) - sum_{j=1}^{10} B_2j / (2j n^2j)

    is used.  Its remainder lies between 0 and the first omitted term,
    B_22 / (22 n^22) < 282 / n^22, which is below 3e-42 for n >= 100.
    Must be called inside ``decimal.localcontext(_HARMONIC_CONTEXT)``.
    """
    if n < _HARMONIC_DIRECT_BELOW:
        return sum(decimal.Decimal(1) / i for i in range(1, n + 1))
    n = decimal.Decimal(n)
    inv_n2 = 1 / (n * n)
    series = sum(
        decimal.Decimal(num) / den * inv_n2**j
        for j, (num, den) in enumerate(_HARMONIC_SERIES, start=1)
    )
    return n.ln() + _EULER_GAMMA + 1 / (2 * n) - series


@dataclass(frozen=True)
class ConstantSchedule(EpsilonSchedule):
    """Constant exploration probability in (0, 1]."""

    value: float
    kind = "constant"

    def __post_init__(self):
        v = _as_float(self.value, "bad_schedule", "constant schedule epsilon")
        if not 0.0 < v <= 1.0:
            raise ValidationError(
                "bad_schedule",
                f"schedule epsilon must lie in (0, 1], got {v}",
            )
        object.__setattr__(self, "value", v)

    def epsilon(self, t: int) -> float:
        _as_int(t, "bad_parameter", "step index", 1)
        return self.value

    def cumulative(self, t: int) -> float:
        _as_int(t, "bad_parameter", "step index", 1)
        return self.value * t

    def to_config(self) -> dict:
        return {"kind": "constant", "epsilon": self.value}


@dataclass(frozen=True)
class InverseTimeSchedule(EpsilonSchedule):
    """Schedule min(1, k/t) with k > 1.

    Stays at 1 through step floor(k), then decays like k/t; the partial
    sums diverge, so exploration never starves.

    ``cumulative(t)`` is the double nearest the real number
    floor(k) + k * (H_t - H_floor(k)), with k taken exactly as the stored
    double and H_n the n-th harmonic number.  It is evaluated in O(1) in
    60-digit decimal arithmetic: harmonic numbers below 100 by direct
    summation, the rest by the Euler-Maclaurin expansion, whose remainder
    (under 3e-42) keeps the relative error of the sum below 1e-40.  If
    that error interval holds a rounding midpoint, exact rational
    arithmetic over steps floor(k)+1..t decides.  In practice that is an
    exact tie such as k = 3.7, t = 4, which needs a short sum.  No float
    reduction is involved, so the result does not depend on numpy, the
    CPU or the summation order.
    """

    k: float
    kind = "inverse_time"
    # H_floor(k), the harmonic number every cumulative(t) with t > k needs.
    _harmonic_flat: decimal.Decimal = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = _as_float(self.k, "bad_schedule", "inverse_time schedule k")
        if not k > 1.0:
            raise ValidationError(
                "bad_schedule",
                f"inverse_time schedule requires k > 1, got {k}",
            )
        object.__setattr__(self, "k", k)
        with decimal.localcontext(_HARMONIC_CONTEXT):
            object.__setattr__(self, "_harmonic_flat", _harmonic(math.floor(k)))

    def epsilon(self, t: int) -> float:
        t = _as_int(t, "bad_parameter", "step index", 1)
        return min(1.0, self.k / t)

    def cumulative(self, t: int) -> float:
        t = _as_int(t, "bad_parameter", "step index", 1)
        flat = math.floor(self.k)
        if t <= flat:
            return float(t)
        with decimal.localcontext(_HARMONIC_CONTEXT):
            total = flat + decimal.Decimal(self.k) * (_harmonic(t) - self._harmonic_flat)
            slack = total.scaleb(-_HARMONIC_SLACK_DIGITS)
            lo, hi = float(total - slack), float(total + slack)
        if lo == hi:
            return lo
        # The sum lies within the error bound of a rounding midpoint; only
        # exact arithmetic decides which way it rounds.
        tail = sum(fractions.Fraction(1, n) for n in range(flat + 1, t + 1))
        return float(flat + fractions.Fraction(self.k) * tail)

    def to_config(self) -> dict:
        return {"kind": "inverse_time", "k": self.k}


@dataclass(frozen=True)
class ExplicitSchedule(EpsilonSchedule):
    """Schedule given by an explicit list of per-step values in (0, 1]."""

    values: tuple[float, ...]
    kind = "explicit"

    def __post_init__(self):
        values = tuple(
            _as_float(v, "bad_schedule", "explicit schedule value") for v in self.values
        )
        if not values:
            raise ValidationError("bad_schedule", "explicit schedule needs values")
        for i, v in enumerate(values):
            if not 0.0 < v <= 1.0:
                raise ValidationError(
                    "bad_schedule",
                    f"schedule epsilon must lie in (0, 1], got {v} at step {i + 1}",
                )
        object.__setattr__(self, "values", values)

    def _check_step(self, t: int) -> int:
        t = _as_int(t, "bad_parameter", "step index", 1)
        if t > len(self.values):
            raise ValidationError(
                "bad_schedule",
                f"explicit schedule has {len(self.values)} values, step {t} requested",
            )
        return t

    def epsilon(self, t: int) -> float:
        return self.values[self._check_step(t) - 1]

    def cumulative(self, t: int) -> float:
        return math.fsum(self.values[: self._check_step(t)])

    def to_config(self) -> dict:
        return {"kind": "explicit", "values": list(self.values)}


_SCHEDULE_KINDS = {
    "constant": (ConstantSchedule, ("epsilon",), ("value",)),
    "inverse_time": (InverseTimeSchedule, ("k",), ("k",)),
    "explicit": (ExplicitSchedule, ("values",), ("values",)),
}


def schedule_from_config(config: Mapping, path: str = "schedule") -> EpsilonSchedule:
    """Build a schedule from ``{"kind": ..., <params>}``."""
    return _from_kind_table(config, path, _SCHEDULE_KINDS)


# ---------------------------------------------------------------------------
# the selection rule
# ---------------------------------------------------------------------------


def _check_strategy(policy: str, tie_rule: str) -> None:
    if policy not in POLICIES:
        raise ValidationError(
            "bad_config", f"strategy kind must be one of {POLICIES}, got {policy!r}"
        )
    if tie_rule not in TIE_RULES:
        raise ValidationError(
            "bad_config", f"tie_rule must be one of {TIE_RULES}, got {tie_rule!r}"
        )


def greedy_ties(
    counts: Sequence[int],
    reward_sums: Sequence,
    cost_sums: Sequence,
    level,
    policy: str,
    tie_rule: str,
    scale: int | None = None,
) -> list[int]:
    """Arms the greedy branch picks among, by its arm uniform.

    The candidates are the played arms, and under the constrained policy
    only those that look feasible, ``cost_sum <= level * count``, the
    boundary included.  The result is the candidates with the largest
    empirical mean reward ``reward_sum / count``: all of them under the
    ``uniform`` tie rule, the lowest-indexed one under ``lowest_index``.
    It is empty when there is no candidate, and the greedy branch then
    falls back to a uniform arm.  Float sums and level give the
    simulator's arithmetic.  Integer sums and level, all multiples of one
    value unit, give the mathematical rule when ``scale`` is a common
    multiple of the counts: the means are then compared as the integers
    ``reward_sum * (scale // count)``, in proportion to the exact means.
    """
    best = None
    ties = []
    for a, count in enumerate(counts):
        if count > 0 and (policy != POLICY_CONSTRAINED or cost_sums[a] <= level * count):
            if scale is None:
                mean = reward_sums[a] / count
            else:
                mean = reward_sums[a] * (scale // count)
            if best is None or mean > best:
                best, ties = mean, [a]
            elif mean == best:
                ties.append(a)
    return ties if tie_rule == TIE_UNIFORM else ties[:1]

