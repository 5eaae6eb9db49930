"""Bounded-support outcome distributions, bandit problem instances, the
one RNG addressing function, the one CSV cell format
(:func:`_format_csv_value`), and the one set of input validators:
:func:`_section` checks a config mapping's keys, :func:`_as_float` and
:func:`_as_int` a number's type and range, :func:`_as_tuple` that a
value is a list, and :func:`_increasing_steps` a list of steps.

Every distribution here has support inside the unit interval and a
closed-form mean.  Sampling is inverse-transform only: a draw is
``quantile(u)`` of exactly one uniform from the replication's stream,
which keeps trajectories replayable and makes each replication's draws
the same in any chunk of the kernel.
:func:`step_uniforms` is the only place that maps a (step, replication)
pair to its uniforms; for large blocks on a multi-CPU process it draws
the next steps on one helper thread while the caller works, with the
same bits as drawing each block when asked.

Building, checking and describing distributions and instances is plain
Python, and so is ``quantile``, which takes one scalar: the arrays of
variates are drawn by the harness's sampler.  numpy is imported only by
:func:`experiment_key` and :func:`step_uniforms`, and scipy only when a
beta variate is first drawn (:func:`_betaincinv`), so ``cbandits
bound``, ``oracle`` and ``validate`` load neither.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
import os
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Generator, Iterable, Mapping, Sequence, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ValidationError",
    "Distribution",
    "PointMass",
    "Bernoulli",
    "Discrete",
    "Beta",
    "Arm",
    "ProblemInstance",
    "distribution_from_config",
    "instance_from_config",
    "step_uniforms",
    "experiment_key",
    "DRAWS_PER_STEP",
    "PROBABILITY_TOL",
]

# step_uniforms draws ahead on a helper thread from this many
# replications up, when a CPU is left over: below it, handing a block from
# one thread to another costs more than the fill it hides.  On a 2-CPU
# x86-64 host the kernel tied at 2,000 replications and drew ahead faster
# at 3,000 (7 of 7 alternating pairs).
_DRAW_AHEAD_REPLICATIONS = 3000
# Blocks the helper may have drawn and the consumer not yet taken.
_DRAW_AHEAD_BLOCKS = 2
# True in a pool's worker process (_mark_pool_worker), whose streams draw
# inline: a pool that fills every CPU ran slower with helpers, and one
# with CPUs to spare has not been measured.
_pool_worker = False

# Tolerance for "probabilities sum to one" style checks.
PROBABILITY_TOL = 1e-12

# Fixed per-step draw budget of the selection protocol: branch uniform,
# arm uniform, reward uniform, cost uniform.  One Philox counter block
# yields exactly four doubles, so one counter block == one replication-step.
DRAWS_PER_STEP = 4

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
    value,
    code: str,
    what: str,
    minimum: float = -math.inf,
    strict: bool = False,
    maximum: float = math.inf,
) -> float:
    """``value`` as a finite float that is at least ``minimum`` (greater
    than it when ``strict``) and at most ``maximum``.  Any real number but
    a bool is accepted."""
    if type(value) is float:  # the common case, ahead of the ABC checks
        out = value
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(code, f"{what} must be a real number, got {value!r}")
    else:
        try:
            out = float(value)
        except OverflowError:  # an int past the largest double
            out = math.inf if value > 0 else -math.inf
    if not math.isfinite(out) or out < minimum or (strict and out == minimum) or out > maximum:
        if maximum < math.inf:
            bound = f" lie in {'(' if strict else '['}{minimum:g}, {maximum:g}]"
        elif minimum > -math.inf:
            bound = f" be finite and {'>' if strict else '>='} {minimum!r}"
        else:
            bound = " be finite"
        raise ValidationError(code, f"{what} must{bound}, got {out!r}")
    return out


def _as_int(value, code: str, what: str, minimum: int, maximum: float = math.inf) -> int:
    """``value`` as an int in [``minimum``, ``maximum``].  Any integral
    number but a bool is accepted, numpy integers included."""
    if type(value) is int and minimum <= value <= maximum:
        return value  # the common case, ahead of the ABC checks
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or not minimum <= value <= maximum
    ):
        bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"
        raise ValidationError(code, f"{what} must be an integer {bound}, got {value!r}")
    return int(value)


def _as_tuple(value, code: str, what: str) -> tuple:
    """``value`` as a tuple.  Any sequence but a string is accepted, numpy
    arrays of one or more dimensions included."""
    # No value is an ndarray while numpy is not loaded.
    np = sys.modules.get("numpy")
    if (np is not None and isinstance(value, np.ndarray) and value.ndim) or (
        isinstance(value, Sequence) and not isinstance(value, (str, bytes))
    ):
        return tuple(value)
    raise ValidationError(code, f"{what} must be a list, got {value!r}")


def _format_csv_value(value) -> str:
    """A CSV cell: ``true``/``false`` for a bool, the shortest round-trip
    ``repr`` for a float, ``str`` otherwise."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _increasing_steps(values: Sequence, what: str) -> tuple[int, ...]:
    """``values`` as a non-empty, strictly increasing tuple of step
    indices, each an integer >= 1."""
    steps = tuple(
        _as_int(t, "bad_config", what, 1) for t in _as_tuple(values, "bad_config", what)
    )
    if not steps or any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValidationError(
            "bad_config", f"{what} must be non-empty and strictly increasing, got {list(steps)}"
        )
    return steps


def _section(
    config, path: str, required: Iterable[str] = (), optional: Iterable[str] = ()
) -> Mapping:
    """``config`` if it is a mapping whose keys are all ``required`` or
    ``optional`` and include every ``required`` one; ``path`` names it in
    the error."""
    if not isinstance(config, Mapping):
        raise ValidationError(
            "bad_config", f"{path} must be a mapping, got {type(config).__name__}"
        )
    allowed = set(required) | set(optional)
    for key in config:
        if key not in allowed:
            raise ValidationError(
                "unknown_key",
                f"unknown key {key!r} under {path} (allowed: {sorted(allowed)})",
            )
    for key in required:
        if key not in config:
            raise ValidationError("bad_config", f"{path} is missing key {key!r}")
    return config


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


class Distribution(ABC):
    """A distribution supported on the unit interval.

    Subclasses expose an exact mean and an inverse CDF (``quantile``).  A
    variate is ``quantile(u)`` of one uniform ``u``, whatever the
    distribution kind.  Finite-support kinds give only their
    ``quantile_table``, which the lockstep kernel gathers from and from
    which both ``quantile`` and ``atoms``, the table the enumeration
    oracle reads, are derived; a continuous kind overrides ``quantile``
    and inherits the ``continuous_support`` error for the tables.
    """

    kind: str = "abstract"

    @property
    @abstractmethod
    def mean(self) -> float:
        """Exact mean, from the closed form for this kind."""

    def quantile(self, u: float) -> float:
        """Inverse CDF at a scalar ``u`` in [0, 1), whose pushforward of
        ``U[0, 1)`` is the distribution: ``values[number of cuts <= u]`` of
        :meth:`quantile_table`."""
        cuts, values = self.quantile_table()
        return values[bisect.bisect_right(cuts, u)]

    @abstractmethod
    def to_config(self) -> dict:
        """Serializable ``{"kind": ..., <params>}`` mapping."""

    def atoms(self, exact: bool = False) -> Atoms:
        """``(value, probability)`` pairs of :meth:`quantile_table`, in
        ascending value order (a stable sort).

        The probability of ``values[i]`` is the width of its cell of
        [0, 1), whose edges are 0, the cuts clipped at 1, and 1: the exact
        law of ``quantile(U)`` for ``U`` uniform on [0, 1).  It is a
        Fraction with ``exact`` (so they sum to exactly 1), otherwise that
        Fraction correctly rounded to a float.
        """
        cuts, values = self.quantile_table()
        one = Fraction(1)
        edges = [Fraction(0), *(min(Fraction(c), one) for c in cuts), one]
        number = Fraction if exact else float
        widths = [number(hi - lo) for lo, hi in zip(edges, edges[1:])]
        return tuple(sorted(zip(values, widths), key=lambda atom: atom[0]))

    def quantile_table(self) -> QuantileTable:
        """``(cuts, values)`` of a finite-support distribution, with
        ``quantile(u) == values[number of cuts <= u]`` bit for bit: the
        cuts are nondecreasing and ``values`` has one more entry.  A
        continuous distribution raises ``continuous_support``.
        """
        raise ValidationError(
            "continuous_support", f"{self.kind} distribution has continuous support"
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
        p = _as_float(self.p, "bad_parameter", "bernoulli p", 0.0, maximum=1.0)
        object.__setattr__(self, "p", p)

    @property
    def mean(self) -> float:
        return self.p

    def quantile_table(self) -> QuantileTable:
        # 1 for u < p: P{U < p} = p exactly for U uniform on [0, 1).
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
    _cum: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(
            _as_float(v, "bad_parameter", "discrete value")
            for v in _as_tuple(self.values, "bad_parameter", "discrete values")
        )
        probs = tuple(
            _as_float(p, "bad_parameter", "discrete probability")
            for p in _as_tuple(self.probabilities, "bad_parameter", "discrete probabilities")
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
        # Running sums added in sequence, as np.cumsum adds them.
        object.__setattr__(self, "_cum", tuple(itertools.accumulate(probs)))

    @property
    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probabilities))

    def quantile_table(self) -> QuantileTable:
        # Atom i for u in [_cum[i-1], _cum[i]); the last atom takes the
        # rest of [0, 1), whatever rounding did to _cum[-1].
        return (self._cum[:-1], self.values)

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
        a = _as_float(self.shape1, "bad_parameter", "beta shape1", 0.0, strict=True)
        b = _as_float(self.shape2, "bad_parameter", "beta shape2", 0.0, strict=True)
        object.__setattr__(self, "shape1", a)
        object.__setattr__(self, "shape2", b)

    @property
    def mean(self) -> float:
        return self.shape1 / (self.shape1 + self.shape2)

    def quantile(self, u: float) -> float:
        return float(_betaincinv()(self.shape1, self.shape2, u))

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


def _from_kind_table(config, path: str, kinds: Mapping):
    """Build ``cls(**fields)`` from ``{"kind": ..., <keys>}`` for the kind's
    ``(cls, keys, fields)`` entry in ``kinds``."""
    # Every key passes the first check: the kind decides which are allowed.
    kind = _section(config, path, optional=config).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(
            "unknown_kind",
            f"{path}.kind must be one of {sorted(kinds)}, got {kind!r}",
        )
    cls, keys, fields = kinds[kind]
    _section(config, path, required=keys, optional=("kind",))
    return cls(**{field_name: config[key] for key, field_name in zip(keys, fields)})


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


@dataclass(frozen=True)
class Arm:
    """A bandit arm: a reward distribution paired with a cost distribution."""

    reward: Distribution
    cost: Distribution

    def __post_init__(self):
        if not isinstance(self.reward, Distribution) or not isinstance(self.cost, Distribution):
            raise ValidationError("bad_config", "arm needs reward and cost distributions")

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
        if len(self.arms) < 2:
            raise ValidationError(
                "too_few_arms", f"an instance needs at least 2 arms, got {len(self.arms)}"
            )
        for i, arm in enumerate(self.arms):
            if not isinstance(arm, Arm):
                raise ValidationError("bad_config", f"arms[{i}] is not an Arm")
        costs = self.cost_means()
        if not any(c <= self.constraint_level for c in costs):
            raise ValidationError(
                "empty_feasible_set",
                f"no arm has mean cost <= constraint level {self.constraint_level} "
                f"(mean costs: {list(costs)})",
            )

    @property
    def num_arms(self) -> int:
        return len(self.arms)

    def reward_means(self) -> tuple[float, ...]:
        return tuple(arm.reward.mean for arm in self.arms)

    def cost_means(self) -> tuple[float, ...]:
        return tuple(arm.cost.mean for arm in self.arms)

    def to_config(self) -> dict:
        return {
            "constraint_level": self.constraint_level,
            "arms": [arm.to_config() for arm in self.arms],
        }


def instance_from_config(config: Mapping, path: str = "instance") -> ProblemInstance:
    """Build a :class:`ProblemInstance` from its config mapping."""
    config = _section(config, path, required=("constraint_level", "arms"))
    arms = []
    for i, arm_config in enumerate(_as_tuple(config["arms"], "bad_config", f"{path}.arms")):
        arm_path = f"{path}.arms[{i}]"
        arm_config = _section(arm_config, arm_path, required=("reward", "cost"))
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
    seed = _as_int(master_seed, "bad_parameter", "master_seed", 0, 2**64 - 1)
    import numpy as np

    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def step_uniforms(master_seed: int, rep_lo: int, rep_hi: int) -> Generator[np.ndarray, None, None]:
    """Uniforms of replications ``[rep_lo, rep_hi)``, one block per step.

    Yields, for t = 1, 2, ..., a ``(rep_hi - rep_lo) x DRAWS_PER_STEP``
    array whose row ``r - rep_lo`` is the Philox4x64-10 block at counter
    ``(t << 64) + r + 1`` under ``experiment_key(master_seed)``, each
    64-bit word w read as ``(w >> 11) * 2**-53``: the four doubles that
    ``Generator(Philox(key=..., counter=(t << 64) + r))`` draws first, as
    numpy steps the counter before it draws a block.  A row depends only
    on (master_seed, t, r): it is the same whichever block of
    replications it is drawn with, on any worker, and however long the
    run is.  One generator serves every step; between steps it skips the
    other replications' counters.

    With at least ``_DRAW_AHEAD_REPLICATIONS`` replications, outside a
    pool's workers (:func:`_mark_pool_worker`) and on a process that may
    run on more than one CPU, one helper thread draws the next steps'
    blocks while the caller works on the current one (numpy releases the
    GIL while it fills a block); otherwise each block is drawn when it is
    asked for.  Both paths call the one draw function in the same order,
    so they yield the same bits.  The helper starts at the first ``next`` and
    keeps at most ``_DRAW_AHEAD_BLOCKS`` blocks waiting, plus the one it
    is filling, so memory stays O(replications) whatever the horizon.
    Closing the generator, or dropping its last reference, stops and
    joins the helper; an exception raised while drawing is re-raised by
    ``next``.
    """
    rep_lo = _as_int(rep_lo, "bad_parameter", "rep_lo", 0)
    rep_hi = _as_int(rep_hi, "bad_parameter", "rep_hi", rep_lo + 1, 2**64)
    import numpy as np

    n_reps = rep_hi - rep_lo
    bit_generator = np.random.Philox(key=experiment_key(master_seed), counter=(1 << 64) + rep_lo)
    draw = functools.partial(
        _draw_block, np.random.Generator(bit_generator), n_reps, bit_generator.advance,
        2**64 - n_reps,
    )
    if n_reps >= _DRAW_AHEAD_REPLICATIONS and not _pool_worker and _usable_cpus() > 1:
        return _drawn_ahead(draw)
    return _drawn_inline(draw)


def _draw_block(generator, n_reps: int, advance, skip: int) -> np.ndarray:
    """The current step's block; then move the counter to the next step's."""
    block = generator.random((n_reps, DRAWS_PER_STEP))
    advance(skip)
    return block


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _mark_pool_worker() -> None:
    """Make this pool worker's streams draw inline."""
    global _pool_worker
    _pool_worker = True


def _drawn_inline(draw) -> Generator[np.ndarray, None, None]:
    while True:
        yield draw()


def _drawn_ahead(draw) -> Generator[np.ndarray, None, None]:
    """Blocks drawn on a helper thread, at most ``_DRAW_AHEAD_BLOCKS``
    ahead of the consumer.  On exit the helper is told to stop, and the
    queue is drained so that a helper blocked on a full queue wakes up:
    after the drain it can put at most one block before it sees the stop,
    so it never blocks again and the join returns without a timeout.
    While the interpreter shuts down, the daemon helper is left alone: it
    may already be stopped without being marked as done, and the modules
    that the stop, drain and join read may already be cleared."""
    import queue
    import threading

    is_finalizing = sys.is_finalizing  # module globals may be gone by then

    blocks = queue.Queue(maxsize=_DRAW_AHEAD_BLOCKS)
    stop = threading.Event()

    def produce():
        try:
            while not stop.is_set():
                blocks.put(draw())
        except BaseException as exc:  # handed to the consumer, never lost
            blocks.put(exc)

    helper = threading.Thread(target=produce, name="cbandits.step_uniforms", daemon=True)
    helper.start()
    try:
        while True:
            block = blocks.get()
            if isinstance(block, BaseException):
                raise block
            yield block
    finally:
        if not is_finalizing():
            stop.set()
            try:
                while True:
                    blocks.get_nowait()
            except queue.Empty:
                pass
            helper.join()
