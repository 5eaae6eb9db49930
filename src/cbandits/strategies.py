"""Exploration schedules and the constrained epsilon-greedy selection rule.

The strategy is one rule: explore with probability epsilon_t, otherwise
play the best arm among those that look feasible.  Each policy is an
input to it (:func:`_selection_inputs`).  The greedy decision is written
once as a scalar, over plain per-arm statistics: :func:`greedy_ties`
decides which arms the greedy branch may pick, in float or exact integer
arithmetic.  The exact oracle (``analysis``) calls it at every state,
and the harness kernel (``harness._greedy_arm``) applies the same rule
to a block of replications at once.  A step consumes exactly
:data:`~cbandits.core.DRAWS_PER_STEP` uniforms, one Philox block, in a
fixed order (branch, arm, reward, cost), whether or not a draw's value
ends up used.  Both read ``epsilon(t)`` at each step; no schedule is
stored over the horizon.
"""

from __future__ import annotations

import fractions
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from cbandits.core import (
    ValidationError,
    _as_float,
    _as_int,
    _as_tuple,
    _from_kind_table,
    _to_kind_config,
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
        """``{"kind": ..., <params>}``, which :func:`schedule_from_config` reads."""
        return _to_kind_config(self, _SCHEDULE_KINDS)


# Harmonic numbers in fixed point: an int X stands for X / 2**_FIXED_BITS,
# and one unit is 2**-_FIXED_BITS.  Every floor division below is off by
# less than one unit.
_FIXED_BITS = 128
_FIXED_ONE = 1 << _FIXED_BITS


def _atanh2(a: int, b: int) -> int:
    """2 atanh(a/b) = ln((b + a) / (b - a)) in fixed point, for 0 <= a/b <= 1/3.

    With z = a/b, the series 2 * sum z^(2i+1) / (2i+1) runs on z and z^2
    truncated to units, until the power term truncates to 0.  Every
    truncation is downward, so the result is never above the true value,
    and it is below it by less than 4N + 5 units for N terms: each power
    term stays within 2 units of z^(2i+1), so each summand loses less than
    2 units, and the omitted tail (power term under 2 units, ratio
    z^2 <= 1/9) is under 2.25 units; the sum is then doubled.  A power
    term is at most z^(2i+1) units and so vanishes once 1/z^(2i+1) exceeds
    2**128: from 2i+1 = 81 for z <= 1/3 (3**81 > 2**128.3), so N <= 40,
    and from 2i+1 = 19 for z < 1/129 (129**19 > 2**133), so N <= 9.
    """
    term = (a << _FIXED_BITS) // b
    square = ((a * a) << _FIXED_BITS) // (b * b)
    total, i = 0, 1
    while term:
        total += term // i
        term = (term * square) >> _FIXED_BITS
        i += 2
    return 2 * total


# ln 2 (below by < 165 units) and ln j for j in [64, 128), chained as
# ln(j + 1) = ln j + 2 atanh(1 / (2j + 1)) from ln 64 = 6 ln 2 (below by
# < 6 * 165 + 63 * 41 = 3573 units).
_LN2 = _atanh2(1, 3)
_LN_J = tuple(
    itertools.accumulate((_atanh2(1, 2 * j + 1) for j in range(64, 127)), initial=6 * _LN2)
)


def _ln(n: int) -> int:
    """ln n in fixed point for n >= 64, below the true value by less than
    165 e + 3614 units, where e = n.bit_length() - 7.

    n = c (1 + x) with c = j 2^e, j in [64, 128) the leading seven bits of
    n, so 0 <= x < 1/64, and ln n = e ln 2 + ln j + ln(1 + x).  The terms
    are below by less than e * 165, 3573 and 41 units: ln(1 + x) is
    2 atanh((n - c) / (n + c)), whose argument is below 1/129.
    """
    e = n.bit_length() - 7
    j = n >> e
    c = j << e
    return e * _LN2 + _LN_J[j - 64] + _atanh2(n - c, n + c)


# Euler's constant from its 72 significant digits, which are within
# 1e-72 of it; one unit is about 2.9e-39, so this is off by < 2 units.
_EULER_GAMMA = (
    int("577215664901532860606512090082402431042159335939923598805767234884867727")
    << _FIXED_BITS
) // 10**72
# Euler-Maclaurin coefficients |B_2j| / (2j), j = 1..10, of the harmonic
# numbers, in units, in pairs: the terms they scale alternate in sign,
# from minus.
_HARMONIC_SERIES = tuple(
    ((minus << _FIXED_BITS) // minus_den, (plus << _FIXED_BITS) // plus_den)
    for (minus, minus_den), (plus, plus_den) in (
        ((1, 12), (1, 120)), ((1, 252), (1, 240)), ((1, 132), (691, 32760)),
        ((1, 12), (3617, 8160)), ((43867, 14364), (174611, 6600)),
    )
)
_HARMONIC_DIRECT_BELOW = 100
# H_n for n < 100 as the sum of 2**_FIXED_BITS // i (below by < n units).
_HARMONIC_DIRECT = tuple(
    itertools.accumulate(
        (_FIXED_ONE // i for i in range(1, _HARMONIC_DIRECT_BELOW)), initial=0
    )
)


def _harmonic(n: int) -> int:
    """H_n = sum of 1/i for i in 1..n in fixed point, for n >= 0.

    It is within 2**12 + 2**8 * n.bit_length() units of H_n, which is
    below 2**-114 up to n = 10**8.  Below 100 the terms are added
    directly.  From 100 on, the Euler-Maclaurin expansion

        H_n = ln n + gamma + 1/(2n) - sum_{j>=1} B_2j / (2j n^2j)

    is used.  Cut after any number of terms, its remainder lies between 0
    and the first omitted term.  The loop adds the terms' magnitudes, each
    floored to units (a floor of the table's floor is one floor), with
    their signs, and stops at the first one that floors to 0, that is,
    the first below one unit, or after the ten in the table, where the
    next, -B_22 / (22 n^22), is below 282 / n^22 < 2**-137 for n >= 100.
    Either way the remainder is below one unit.  At n = 100 the tenth
    term floors to 0; above about 2**62.2 the first does, and no term is
    added.  The other errors are ln n, below by less than 165 e + 3614
    units (see :func:`_ln`), gamma < 2 units, and at most eleven floor
    divisions < 1 unit each: less than 165 e + 3628 units in all, with
    e = n.bit_length() - 7.
    """
    if n < _HARMONIC_DIRECT_BELOW:
        return _HARMONIC_DIRECT[n]
    total = _ln(n) + _EULER_GAMMA + _FIXED_ONE // (2 * n)
    square = n * n
    power = square
    for minus, plus in _HARMONIC_SERIES:
        term = minus // power
        if not term:
            break
        total -= term
        power *= square
        term = plus // power
        if not term:
            break
        total += term
        power *= square
    return total


@dataclass(frozen=True)
class ConstantSchedule(EpsilonSchedule):
    """Constant exploration probability in (0, 1]."""

    value: float
    kind = "constant"

    def __post_init__(self):
        v = _as_float(
            self.value, "bad_schedule", "schedule epsilon", 0.0, strict=True, maximum=1.0
        )
        object.__setattr__(self, "value", v)

    def epsilon(self, t: int) -> float:
        _as_int(t, "bad_parameter", "step index", 1)
        return self.value

    def cumulative(self, t: int) -> float:
        t = _as_int(t, "bad_parameter", "step index", 1)
        # value * t would round t to a double first; int true division
        # rounds the exact product once.
        m, d = self.value.as_integer_ratio()
        try:
            return m * t / d
        except OverflowError:  # past the largest double, the sum rounds to inf
            return math.inf


@dataclass(frozen=True)
class InverseTimeSchedule(EpsilonSchedule):
    """Schedule min(1, k/t) with k > 1.

    Stays at 1 through step floor(k), then decays like k/t; the partial
    sums diverge, so exploration never starves.

    ``cumulative(t)`` is the double nearest the real number
    floor(k) + k * (H_t - H_floor(k)), with k = m/d taken exactly as the
    stored double and H_n the n-th harmonic number.  It is evaluated in
    O(1) in integer fixed point with 128 fractional bits (see
    :func:`_harmonic`): harmonic numbers below 100 by direct summation,
    the rest by the Euler-Maclaurin expansion.  H_t and H_floor(k) are
    each within 2**12 + 2**8 * t.bit_length() units (one unit is 2**-128),
    so the fixed-point sum ``total`` is within
    k * (2**13 + 2**9 * t.bit_length()) + 1 units, the last for the floor
    division by d, and the integer ``slack`` is above that, as
    floor(k) + 1 > k.  Python's int
    true division rounds correctly, so if (total - slack) / 2**128 and
    (total + slack) / 2**128 are the same double, so is the sum.
    Otherwise that interval holds a rounding midpoint and exact rational
    arithmetic over steps floor(k)+1..t decides.  The sum exceeds
    floor(k) >= (floor(k) + 1) / 2, so the slack is below (2**14 + 2**10 *
    t.bit_length() + 2) / 2**128 of it: under 2**-112 up to t = 10**8 and
    under 2**-100 for every t below 2**65536.  Midpoints lie at least
    2**-53 of the sum apart, so a sum that is not itself a midpoint falls
    back with odds below 2**-58 up to t = 10**8, and only exact ties such
    as k = 3.7, t = 4 do in practice; those need a short sum.  No float
    reduction is involved, so the result does not depend on numpy, the
    CPU or the summation order.
    """

    k: float
    kind = "inverse_time"
    # floor(k), k = m/d as (m, d), and H_floor(k): every cumulative(t)
    # with t > k needs all three, and epsilon(t) reads (m, d).
    _flat: int = field(init=False, repr=False, compare=False)
    _ratio: tuple[int, int] = field(init=False, repr=False, compare=False)
    _harmonic_flat: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = _as_float(self.k, "bad_schedule", "inverse_time schedule k")
        if not k > 1.0:
            raise ValidationError(
                "bad_schedule",
                f"inverse_time schedule requires k > 1, got {k}",
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_flat", math.floor(k))
        object.__setattr__(self, "_ratio", k.as_integer_ratio())
        object.__setattr__(self, "_harmonic_flat", _harmonic(self._flat))

    def epsilon(self, t: int) -> float:
        t = _as_int(t, "bad_parameter", "step index", 1)
        # k / t would round a t above 2**53 to a double first; int true
        # division rounds the exact quotient once.
        m, d = self._ratio
        return min(1.0, m / (d * t))

    def cumulative(self, t: int) -> float:
        t = _as_int(t, "bad_parameter", "step index", 1)
        flat = self._flat
        if t <= flat:
            return float(t)
        m, d = self._ratio
        total = (flat << _FIXED_BITS) + m * (_harmonic(t) - self._harmonic_flat) // d
        slack = (flat + 1) * ((1 << 13) + (t.bit_length() << 9)) + 2
        try:
            lo, hi = (total - slack) / _FIXED_ONE, (total + slack) / _FIXED_ONE
        except OverflowError:  # past the largest double, the sum rounds to inf
            return math.inf
        if lo == hi:
            return lo
        # The sum lies within the error bound of a rounding midpoint; only
        # exact arithmetic decides which way it rounds.
        tail = sum(fractions.Fraction(1, n) for n in range(flat + 1, t + 1))
        return float(flat + fractions.Fraction(self.k) * tail)


@dataclass(frozen=True)
class ExplicitSchedule(EpsilonSchedule):
    """Schedule given by an explicit list of per-step values in (0, 1]."""

    values: tuple[float, ...]
    kind = "explicit"

    def __post_init__(self):
        values = _as_tuple(self.values, "bad_schedule", "explicit schedule values")
        values = tuple(
            _as_float(
                v, "bad_schedule", f"schedule epsilon at step {t}", 0.0, strict=True, maximum=1.0
            )
            for t, v in enumerate(values, 1)
        )
        if not values:
            raise ValidationError("bad_schedule", "explicit schedule needs values")
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


def _selection_inputs(policy: str, schedule: EpsilonSchedule, level: float) -> tuple:
    """``(epsilon, level)``: the exploration probability ``epsilon(t)`` and
    the budget under which the constrained rule is ``policy``.

    ``uniform`` is epsilon_t = 1.  ``unconstrained_eps_greedy`` is a budget
    of 1, which every played arm meets: each cost lies in [0, 1], and a
    running sum of ``count`` costs, rounded after each addition, is at most
    ``count``, since rounding is monotone and ``count`` is an exact double.
    So ``cost_sum <= 1.0 * count``, in doubles and on the oracle's scaled
    integers alike.
    """
    if policy == POLICY_UNIFORM:
        return ConstantSchedule(1.0).epsilon, level
    if policy == POLICY_UNCONSTRAINED:
        return schedule.epsilon, 1.0
    return schedule.epsilon, level


def greedy_ties(
    counts: Sequence[int],
    reward_sums: Sequence,
    cost_sums: Sequence,
    level,
    tie_rule: str,
    scale: int | None = None,
) -> list[int]:
    """Arms the greedy branch picks among, by its arm uniform.

    The candidates are the played arms that look feasible, ``cost_sum <=
    level * count``, the boundary included.  The result is the candidates
    with the largest empirical mean reward ``reward_sum / count``: all of
    them under the ``uniform`` tie rule, the first under ``lowest_index``.
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
        if count > 0 and cost_sums[a] <= level * count:
            if scale is None:
                mean = reward_sums[a] / count
            else:
                mean = reward_sums[a] * (scale // count)
            if best is None or mean > best:
                best, ties = mean, [a]
            elif mean == best:
                ties.append(a)
    return ties if tie_rule == TIE_UNIFORM else ties[:1]

