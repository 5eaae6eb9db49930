"""Bounded-support outcome distributions, bandit problem instances, the
one RNG addressing function, and the shared input validators.

Every distribution here has support inside the unit interval and a
closed-form mean and variance.  Sampling is inverse-transform only: a
draw is ``quantile(u)`` of exactly one uniform from the replication's
stream, which keeps trajectories replayable and makes each
replication's draws the same in any chunk of the kernel.  scipy is
imported only when a beta variate is first drawn (:func:`_betaincinv`).
:func:`step_uniforms` is the only place that maps a (step, replication)
pair to its uniforms.
"""

from __future__ import annotations

import functools
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = [
    "ValidationError",
    "Distribution",
    "PointMass",
    "Bernoulli",
    "Discrete",
    "Beta",
    "Arm",
    "ProblemInstance",
    "validate_instance",
    "distribution_from_config",
    "instance_from_config",
    "step_uniforms",
    "experiment_key",
    "DRAWS_PER_STEP",
    "PROBABILITY_TOL",
]

# Tolerance for "probabilities sum to one" style checks.
PROBABILITY_TOL = 1e-12

# Fixed per-step draw budget of the selection protocol: branch uniform,
# arm uniform, reward uniform, cost uniform.  One Philox counter block
# yields exactly four doubles, so one counter block == one replication-step.
DRAWS_PER_STEP = 4

_MAX_SEED = 2**64

ArrayLike = Union[float, np.ndarray]
# (value, probability) pairs; the probability is a Fraction in exact mode.
Atoms = tuple[tuple[float, Union[float, Fraction]], ...]
# (cuts, values): quantile(u) is values[number of cuts <= u].
QuantileTable = tuple[tuple[float, ...], tuple[float, ...]]


class ValidationError(ValueError):
    """Input rejected by a validity check.

    Parameters
    ----------
    code : str
        Stable machine-readable identifier of the failed check
        (e.g. ``"too_few_arms"``, ``"empty_feasible_set"``,
        ``"out_of_support"``).
    message : str
        Human-readable explanation.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _as_float(
    value, code: str, what: str, minimum: float = -math.inf, strict: bool = False
) -> float:
    """``value`` as a finite float that is at least ``minimum`` (greater
    than it when ``strict``).  Any real number but a bool is accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(code, f"{what} must be a real number, got {value!r}")
    out = float(value)
    if not math.isfinite(out) or out < minimum or (strict and out == minimum):
        bound = f" and {'>' if strict else '>='} {minimum!r}" if minimum > -math.inf else ""
        raise ValidationError(code, f"{what} must be finite{bound}, got {out!r}")
    return out


def _as_int(value, code: str, what: str, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``.  Any integral number
    but a bool is accepted, numpy integers included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(code, f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


class Distribution(ABC):
    """A distribution supported on the unit interval.

    Subclasses expose exact first and second moments and an inverse CDF
    (``quantile``).  A variate is ``quantile(u)`` of one uniform ``u``,
    whatever the distribution kind.  Finite-support kinds also list their
    ``atoms``, the table the enumeration oracle reads, and their
    ``quantile_table``, the one the lockstep kernel gathers from; a
    continuous kind inherits the ``continuous_support`` error for both.
    """

    kind: str = "abstract"

    @property
    @abstractmethod
    def mean(self) -> float:
        """Exact mean, from the closed form for this kind."""

    @property
    @abstractmethod
    def variance(self) -> float:
        """Exact variance, from the closed form for this kind."""

    @abstractmethod
    def quantile(self, u: ArrayLike) -> ArrayLike:
        """Inverse CDF evaluated at ``u`` in [0, 1).

        Accepts a scalar or an ndarray and returns the same shape.  The
        pushforward of ``U[0, 1)`` under this map is the distribution
        itself.
        """

    @abstractmethod
    def to_config(self) -> dict:
        """Serializable ``{"kind": ..., <params>}`` mapping."""

    def atoms(self, exact: bool = False) -> Atoms:
        """``(value, probability)`` pairs of a finite-support distribution.

        With ``exact``, the probabilities are the exact law of
        ``quantile(U)`` for ``U`` uniform on [0, 1), as Fractions that sum
        to exactly 1; otherwise they are the stored parameters as floats.
        A continuous distribution raises ``continuous_support``.
        """
        raise self._continuous_support()

    def quantile_table(self) -> QuantileTable:
        """``(cuts, values)`` of a finite-support distribution, with
        ``quantile(u) == values[number of cuts <= u]`` bit for bit: the
        cuts are nondecreasing and ``values`` has one more entry.  A
        continuous distribution raises ``continuous_support``.
        """
        raise self._continuous_support()

    def _continuous_support(self) -> ValidationError:
        return ValidationError(
            "continuous_support",
            f"{self.kind} distribution has continuous support",
        )


@dataclass(frozen=True)
class PointMass(Distribution):
    """Degenerate distribution putting all mass on ``value``."""

    value: float
    kind = "point_mass"

    def __post_init__(self):
        v = _as_float(self.value, "bad_parameter", "point_mass value")
        if not 0.0 <= v <= 1.0:
            raise ValidationError(
                "out_of_support", f"point_mass value {v} outside [0, 1]"
            )
        object.__setattr__(self, "value", v)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    def quantile(self, u: ArrayLike) -> ArrayLike:
        if isinstance(u, float):
            return self.value
        return np.full_like(np.asarray(u, dtype=np.float64), self.value)

    def atoms(self, exact: bool = False) -> Atoms:
        return ((self.value, Fraction(1) if exact else 1.0),)

    def quantile_table(self) -> QuantileTable:
        return ((), (self.value,))

    def to_config(self) -> dict:
        return {"kind": "point_mass", "value": self.value}


@dataclass(frozen=True)
class Bernoulli(Distribution):
    """Bernoulli distribution on {0, 1} with success probability ``p``."""

    p: float
    kind = "bernoulli"

    def __post_init__(self):
        p = _as_float(self.p, "bad_parameter", "bernoulli p")
        if not 0.0 <= p <= 1.0:
            raise ValidationError("bad_parameter", f"bernoulli p {p} outside [0, 1]")
        object.__setattr__(self, "p", p)

    @property
    def mean(self) -> float:
        return self.p

    @property
    def variance(self) -> float:
        return self.p * (1.0 - self.p)

    def quantile(self, u: ArrayLike) -> ArrayLike:
        # P{U < p} = p exactly for U uniform on [0, 1).
        if isinstance(u, float):
            return 1.0 if u < self.p else 0.0
        return (np.asarray(u) < self.p).astype(np.float64)

    def atoms(self, exact: bool = False) -> Atoms:
        p = Fraction(self.p) if exact else self.p
        return ((0.0, 1 - p), (1.0, p))

    def quantile_table(self) -> QuantileTable:
        return ((self.p,), (1.0, 0.0))

    def to_config(self) -> dict:
        return {"kind": "bernoulli", "p": self.p}


@dataclass(frozen=True)
class Discrete(Distribution):
    """Finite distribution over ``values`` with matching ``probabilities``.

    Values must lie in [0, 1] and probabilities must be nonnegative and
    sum to one within ``PROBABILITY_TOL``.
    """

    values: tuple[float, ...]
    probabilities: tuple[float, ...]
    kind = "discrete"
    _cum: np.ndarray = field(init=False, repr=False, compare=False)
    _atoms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(
            _as_float(v, "bad_parameter", "discrete value") for v in self.values
        )
        probs = tuple(
            _as_float(p, "bad_parameter", "discrete probability")
            for p in self.probabilities
        )
        if len(values) == 0:
            raise ValidationError("bad_parameter", "discrete needs at least one value")
        if len(values) != len(probs):
            raise ValidationError(
                "bad_parameter",
                f"discrete has {len(values)} values but {len(probs)} probabilities",
            )
        for v in values:
            if not 0.0 <= v <= 1.0:
                raise ValidationError(
                    "out_of_support", f"discrete value {v} outside [0, 1]"
                )
        for p in probs:
            if p < 0.0:
                raise ValidationError(
                    "bad_probabilities", f"discrete probability {p} is negative"
                )
        total = math.fsum(probs)
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValidationError(
                "bad_probabilities",
                f"discrete probabilities sum to {total!r}, not 1 within "
                f"{PROBABILITY_TOL}",
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "_cum", np.cumsum(np.asarray(probs, dtype=np.float64)))
        object.__setattr__(self, "_atoms", np.asarray(values, dtype=np.float64))

    @property
    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probabilities))

    @property
    def variance(self) -> float:
        m = self.mean
        return math.fsum(p * (v - m) ** 2 for v, p in zip(self.values, self.probabilities))

    def quantile(self, u: ArrayLike) -> ArrayLike:
        # Atom i for u in [_cum[i-1], _cum[i]); the last atom takes the
        # rest of [0, 1), whatever rounding did to _cum[-1].
        out = self._atoms[self._cum[:-1].searchsorted(u, side="right")]
        if isinstance(u, float):
            return float(out)
        return out

    def atoms(self, exact: bool = False) -> Atoms:
        probs = self.probabilities
        if exact:
            # quantile(u) is atom i for u in [_cum[i-1], _cum[i]); the last
            # atom takes the rest of [0, 1), whatever rounding did to _cum.
            cuts = [min(Fraction(c), Fraction(1)) for c in self._cum[:-1]]
            cuts = [Fraction(0)] + cuts + [Fraction(1)]
            probs = tuple(hi - lo for lo, hi in zip(cuts, cuts[1:]))
        return tuple(zip(self.values, probs))

    def quantile_table(self) -> QuantileTable:
        return (tuple(self._cum[:-1].tolist()), self.values)

    def to_config(self) -> dict:
        return {
            "kind": "discrete",
            "values": list(self.values),
            "probabilities": list(self.probabilities),
        }


@dataclass(frozen=True)
class Beta(Distribution):
    """Beta distribution on (0, 1) with positive shape parameters.

    ``quantile`` is scipy's ``betaincinv``, which is not correctly
    rounded, so the last bits of a beta variate can change with the scipy
    build.  Runs whose arms all have finite support give the same bits on
    every machine; runs with a beta arm give them only under the same
    scipy build, and ``cbandits run`` records its version in
    ``summary.json`` ``metadata``.
    """

    shape1: float
    shape2: float
    kind = "beta"

    def __post_init__(self):
        a = _as_float(self.shape1, "bad_parameter", "beta shape1")
        b = _as_float(self.shape2, "bad_parameter", "beta shape2")
        if a <= 0.0 or b <= 0.0:
            raise ValidationError(
                "bad_parameter", f"beta shapes must be positive, got ({a}, {b})"
            )
        object.__setattr__(self, "shape1", a)
        object.__setattr__(self, "shape2", b)

    @property
    def mean(self) -> float:
        return self.shape1 / (self.shape1 + self.shape2)

    @property
    def variance(self) -> float:
        a, b = self.shape1, self.shape2
        return a * b / ((a + b) ** 2 * (a + b + 1.0))

    def quantile(self, u: ArrayLike) -> ArrayLike:
        out = _betaincinv()(self.shape1, self.shape2, u)
        if isinstance(u, float):
            return float(out)
        return out

    def to_config(self) -> dict:
        return {"kind": "beta", "shape1": self.shape1, "shape2": self.shape2}


@functools.cache
def _betaincinv():
    """scipy's ``betaincinv``, imported on first use: only beta arms need
    scipy, and importing it takes about half of ``import cbandits.cli``."""
    from scipy.special import betaincinv

    return betaincinv


_DISTRIBUTION_KINDS = {
    cls.kind: (cls, keys, keys)
    for cls, keys in (
        (PointMass, ("value",)),
        (Bernoulli, ("p",)),
        (Discrete, ("values", "probabilities")),
        (Beta, ("shape1", "shape2")),
    )
}


def _require_mapping(obj, path: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ValidationError("bad_config", f"{path} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(mapping: Mapping, allowed: Iterable[str], path: str) -> None:
    allowed = set(allowed)
    for key in mapping:
        if key not in allowed:
            raise ValidationError(
                "unknown_key",
                f"unknown key {key!r} under {path} (allowed: {sorted(allowed)})",
            )


def _from_kind_table(config, path: str, kinds: Mapping):
    """Build ``cls(**fields)`` from ``{"kind": ..., <keys>}`` for the kind's
    ``(cls, keys, fields)`` entry in ``kinds``.  Sequences become tuples."""
    config = _require_mapping(config, path)
    kind = config.get("kind")
    if kind not in kinds:
        raise ValidationError(
            "unknown_kind",
            f"{path}.kind must be one of {sorted(kinds)}, got {kind!r}",
        )
    cls, keys, fields = kinds[kind]
    _check_keys(config, ("kind",) + keys, path)
    kwargs = {}
    for key, field_name in zip(keys, fields):
        if key not in config:
            raise ValidationError("bad_config", f"{path} is missing key {key!r}")
        value = config[key]
        if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
            value = tuple(value)
        kwargs[field_name] = value
    return cls(**kwargs)


def distribution_from_config(config: Mapping, path: str = "distribution") -> Distribution:
    """Build a :class:`Distribution` from ``{"kind": ..., <params>}``.

    Raises
    ------
    ValidationError
        If the kind is unknown, a key is unrecognized, or parameter
        validation fails.
    """
    return _from_kind_table(config, path, _DISTRIBUTION_KINDS)


# ---------------------------------------------------------------------------
# problem instances
# ---------------------------------------------------------------------------


class Arm:
    """A bandit arm: a reward distribution paired with a cost distribution."""

    __slots__ = ("reward", "cost")

    def __init__(self, reward: Distribution, cost: Distribution):
        if not isinstance(reward, Distribution) or not isinstance(cost, Distribution):
            raise ValidationError("bad_config", "arm needs reward and cost distributions")
        self.reward = reward
        self.cost = cost

    def __eq__(self, other):
        return (
            isinstance(other, Arm)
            and self.reward == other.reward
            and self.cost == other.cost
        )

    def __repr__(self):
        return f"Arm(reward={self.reward!r}, cost={self.cost!r})"

    def to_config(self) -> dict:
        return {"reward": self.reward.to_config(), "cost": self.cost.to_config()}


@dataclass(frozen=True)
class ProblemInstance:
    """A constrained bandit instance.

    ``constraint_level`` is the cost budget: an arm is feasible when its
    exact mean cost is at most this level.  Instances are validated at
    construction, so downstream selection loops can stay branch-free.

    Raises
    ------
    ValidationError
        ``"too_few_arms"`` for fewer than two arms,
        ``"empty_feasible_set"`` when no arm's mean cost is within the
        budget.
    """

    arms: tuple[Arm, ...]
    constraint_level: float

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(
            self,
            "constraint_level",
            _as_float(self.constraint_level, "bad_parameter", "constraint_level"),
        )
        validate_instance(self)

    @property
    def num_arms(self) -> int:
        return len(self.arms)

    def reward_means(self) -> np.ndarray:
        return np.array([arm.reward.mean for arm in self.arms], dtype=np.float64)

    def cost_means(self) -> np.ndarray:
        return np.array([arm.cost.mean for arm in self.arms], dtype=np.float64)

    def to_config(self) -> dict:
        return {
            "constraint_level": self.constraint_level,
            "arms": [arm.to_config() for arm in self.arms],
        }


def validate_instance(instance: ProblemInstance) -> None:
    """Check instance-level invariants, raising :class:`ValidationError`."""
    if len(instance.arms) < 2:
        raise ValidationError(
            "too_few_arms",
            f"an instance needs at least 2 arms, got {len(instance.arms)}",
        )
    for i, arm in enumerate(instance.arms):
        if not isinstance(arm, Arm):
            raise ValidationError("bad_config", f"arms[{i}] is not an Arm")
    costs = instance.cost_means()
    if not np.any(costs <= instance.constraint_level):
        raise ValidationError(
            "empty_feasible_set",
            f"no arm has mean cost <= constraint level {instance.constraint_level} "
            f"(mean costs: {costs.tolist()})",
        )


def instance_from_config(config: Mapping, path: str = "instance") -> ProblemInstance:
    """Build a :class:`ProblemInstance` from its config mapping."""
    config = _require_mapping(config, path)
    _check_keys(config, ("arms", "constraint_level"), path)
    if "constraint_level" not in config:
        raise ValidationError("bad_config", f"{path} is missing key 'constraint_level'")
    if "arms" not in config:
        raise ValidationError("bad_config", f"{path} is missing key 'arms'")
    arms_config = config["arms"]
    if not isinstance(arms_config, Sequence) or isinstance(arms_config, (str, bytes)):
        raise ValidationError("bad_config", f"{path}.arms must be a list")
    arms = []
    for i, arm_config in enumerate(arms_config):
        arm_path = f"{path}.arms[{i}]"
        arm_config = _require_mapping(arm_config, arm_path)
        _check_keys(arm_config, ("reward", "cost"), arm_path)
        for part in ("reward", "cost"):
            if part not in arm_config:
                raise ValidationError("bad_config", f"{arm_path} is missing key {part!r}")
        arms.append(
            Arm(
                distribution_from_config(arm_config["reward"], f"{arm_path}.reward"),
                distribution_from_config(arm_config["cost"], f"{arm_path}.cost"),
            )
        )
    return ProblemInstance(arms=tuple(arms), constraint_level=config["constraint_level"])


# ---------------------------------------------------------------------------
# uniform streams
# ---------------------------------------------------------------------------


def experiment_key(master_seed: int) -> np.ndarray:
    """Derive the 128-bit counter-based stream key for an experiment."""
    seed = _as_int(master_seed, "bad_parameter", "master_seed", 0)
    if seed >= _MAX_SEED:
        raise ValidationError(
            "bad_parameter", f"master_seed must be in [0, 2**64), got {seed}"
        )
    return SeedSequence(seed).generate_state(2, np.uint64)


def step_uniforms(master_seed: int, rep_lo: int, rep_hi: int) -> Iterator[np.ndarray]:
    """Uniforms of replications ``[rep_lo, rep_hi)``, one block per step.

    Yields, for t = 1, 2, ..., a ``(rep_hi - rep_lo) x DRAWS_PER_STEP``
    array whose row ``r - rep_lo`` is the Philox block at counter
    ``(t << 64) + r`` under ``experiment_key(master_seed)``: the four
    doubles that ``Generator(Philox(key=..., counter=(t << 64) + r))``
    draws first.  A row depends only on (master_seed, t, r): it is the
    same whichever block of replications it is drawn with, on any
    worker, and however long the run is.  One generator serves every
    step; between steps it skips the other replications' counters.
    """
    rep_lo = _as_int(rep_lo, "bad_parameter", "rep_lo", 0)
    rep_hi = _as_int(rep_hi, "bad_parameter", "rep_hi", rep_lo + 1)
    if rep_hi > 2**64:
        raise ValidationError("bad_parameter", f"rep_hi must be at most 2**64, got {rep_hi}")
    n_reps = rep_hi - rep_lo
    bit_generator = Philox(key=experiment_key(master_seed), counter=(1 << 64) + rep_lo)
    generator = Generator(bit_generator)
    skip = 2**64 - n_reps

    def blocks() -> Iterator[np.ndarray]:
        while True:
            yield generator.random((n_reps, DRAWS_PER_STEP))
            bit_generator.advance(skip)

    return blocks()
