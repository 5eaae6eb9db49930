from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import yaml
from scipy.special import digamma

from cbandits.analysis import exact_selection_probability
from cbandits.core import (
    Arm,
    Bernoulli,
    Discrete,
    PointMass,
    ProblemInstance,
    ValidationError,
    step_uniforms,
)
import cbandits.harness as harness
import cbandits.strategies as strategies
from cbandits.harness import ExperimentConfig, run_chunk
from cbandits.strategies import (
    POLICY_UNCONSTRAINED,
    POLICY_UNIFORM,
    TIE_LOWEST_INDEX,
    TIE_UNIFORM,
    ConstantSchedule,
    ExplicitSchedule,
    InverseTimeSchedule,
    greedy_ties,
    schedule_from_config,
)


def bern_instance(mu=(0.7, 0.5), costs=(0.3, 0.7), level=0.5) -> ProblemInstance:
    return ProblemInstance(
        arms=tuple(Arm(Bernoulli(m), Bernoulli(c)) for m, c in zip(mu, costs)),
        constraint_level=level,
    )


def played(num_arms, *plays):
    """(counts, reward_sums, cost_sums) after the (arm, reward, cost) plays."""
    counts, reward_sums, cost_sums = [0] * num_arms, [0.0] * num_arms, [0.0] * num_arms
    for arm, reward, cost in plays:
        counts[arm] += 1
        reward_sums[arm] += reward
        cost_sums[arm] += cost
    return counts, reward_sums, cost_sums


def point_mass_instance(*arms) -> ProblemInstance:
    """Arms with the given (reward, cost) point masses, level 0.5."""
    return ProblemInstance(
        arms=tuple(Arm(PointMass(r), PointMass(c)) for r, c in arms), constraint_level=0.5
    )


def example_instance() -> ProblemInstance:
    # Arm 0 pays 1 at cost 0 and looks feasible; arm 1 pays 0 at cost 1.
    return point_mass_instance((1.0, 0.0), (0.0, 1.0))


def pull(arm, n=2):
    """A step's uniforms that play ``arm`` of ``n`` on the random branch."""
    return (0.0, (arm + 0.5) / n, 0.5, 0.5)


def scripted_chunk(monkeypatch, instance, blocks, **strategy):
    """``run_chunk`` with eps = 0.5 over ``len(blocks[0])`` replications,
    reported at every step, where replication r draws ``blocks[t - 1][r]``
    at step t."""
    blocks = np.array(blocks, dtype=float)
    monkeypatch.setattr(harness, "step_uniforms", lambda seed, lo, hi: (b for b in blocks))
    config = ExperimentConfig(
        instance=instance,
        schedule=ConstantSchedule(0.5),
        checkpoints=range(1, len(blocks) + 1),
        deltas=(0.0,),
        replications=blocks.shape[1],
        master_seed=0,
        **strategy,
    )
    return run_chunk(config, 0, blocks.shape[1])


def kernel_arms(monkeypatch, instance, steps, **strategy):
    """The arm one replication selects at each step when it draws the
    (branch, arm, reward, cost) uniforms ``steps``."""
    chunk = scripted_chunk(monkeypatch, instance, [[row] for row in steps], **strategy)
    return [int(np.flatnonzero(hits)[0]) for hits in chunk.arm_hits]


def trial_config(instance, schedule, checkpoints, master_seed, **kwargs) -> ExperimentConfig:
    return ExperimentConfig(
        instance=instance,
        schedule=schedule,
        checkpoints=tuple(checkpoints),
        deltas=(0.0,),
        replications=8,
        master_seed=master_seed,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_constant_schedule_bounds():
    ConstantSchedule(1.0)
    ConstantSchedule(1e-9)
    for bad in (0.0, -0.2, 1.0000001, float("nan")):
        with pytest.raises(ValidationError) as err:
            ConstantSchedule(bad)
        assert err.value.code == "bad_schedule"
        assert "(0, 1]" in str(err.value) or "finite" in str(err.value)


def test_inverse_time_requires_k_above_one():
    InverseTimeSchedule(1.0000001)
    for bad in (1.0, 0.5, -3.0):
        with pytest.raises(ValidationError) as err:
            InverseTimeSchedule(bad)
        assert err.value.code == "bad_schedule"


def test_explicit_schedule_validation():
    ExplicitSchedule((0.5, 1.0, 0.25))
    with pytest.raises(ValidationError):
        ExplicitSchedule(())
    with pytest.raises(ValidationError):
        ExplicitSchedule((0.5, 1.2))
    with pytest.raises(ValidationError):
        ExplicitSchedule((0.5, 0.0))


def test_inverse_time_values():
    sched = InverseTimeSchedule(2.0)
    assert sched.epsilon(1) == 1.0
    assert sched.epsilon(2) == 1.0
    assert sched.epsilon(3) == pytest.approx(2.0 / 3.0, abs=0)
    assert sched.epsilon(100) == 0.02


def test_cumulative_frozen_values():
    # 1 + 1 + 2/3
    assert InverseTimeSchedule(2.0).cumulative(3) == pytest.approx(8.0 / 3.0, abs=1e-15)
    assert ConstantSchedule(0.25).cumulative(10) == pytest.approx(2.5, abs=0)
    sched = ExplicitSchedule((0.5, 0.25, 1.0))
    assert sched.cumulative(2) == pytest.approx(0.75, abs=0)


def test_constant_cumulative_is_correctly_rounded():
    # value * t rounds t to a double first, which differs above 2**53.
    assert ConstantSchedule(0.3).cumulative(2**53 + 1) == 2702159776422298.0
    rng = random.Random(20261020)
    for _ in range(2000):
        v = rng.choice([rng.random(), 0.1, 0.3, 1 / 3, 1.0])
        t = rng.randrange(2**53, 2**60)
        assert ConstantSchedule(v).cumulative(t) == float(Fraction(v) * t), (v, t)
    assert ConstantSchedule(0.5).cumulative(10**309) == math.inf
    assert ConstantSchedule(0.5).cumulative(np.int64(2**62 + 1)) == 2**61


def test_inverse_time_epsilon_is_correctly_rounded():
    # k / t rounds t to a double first, which differs above 2**53.
    k, t = 477.0723072431449, 159374444711811914
    assert k / t != float(Fraction(k) / t)
    assert InverseTimeSchedule(k).epsilon(t) == float(Fraction(k) / t)
    rng = random.Random(20261020)
    for _ in range(2000):
        k = rng.uniform(1.5, 2000.0)
        t = rng.randrange(2**53, 2**60)
        assert InverseTimeSchedule(k).epsilon(t) == float(Fraction(k) / t), (k, t)
    # Up to 2**53, t is a double, so k / t is correctly rounded too.
    for _ in range(500):
        k = rng.uniform(1.5, 2000.0)
        t = rng.choice((rng.randrange(1, 10**4), rng.randrange(1, 2**53 + 1)))
        expected = min(1.0, float(Fraction(k) / t))
        assert InverseTimeSchedule(k).epsilon(t) == expected == min(1.0, k / t), (k, t)
    assert InverseTimeSchedule(2.0).epsilon(10**400) == 0.0
    assert InverseTimeSchedule(1e300).epsilon(2**60) == 1.0


def test_cumulative_matches_digamma_identity():
    # Independent closed form: sum_{n=m+1}^{t} 1/n = psi(t+1) - psi(m+1).
    k, t = 41.3, 100_000
    m = math.floor(k)
    expected = m + k * float(digamma(t + 1) - digamma(m + 1))
    assert InverseTimeSchedule(k).cumulative(t) == pytest.approx(expected, rel=1e-12)


def test_cumulative_small_equals_direct_sum():
    sched = InverseTimeSchedule(3.7)
    for t in (1, 2, 3, 4, 10, 57):
        direct = math.fsum(sched.epsilon(n) for n in range(1, t + 1))
        assert sched.cumulative(t) == pytest.approx(direct, rel=1e-14)


# Exact H_n for n <= 1001.
_EXACT_HARMONIC = tuple(
    itertools.accumulate((Fraction(1, n) for n in range(1, 1002)), initial=Fraction(0))
)


def _inverse_time_reference(k: float, t: int) -> float:
    """Nearest double to sum_{n<=t} min(1, k/n), k taken as the stored double."""
    flat = math.floor(k)
    if t <= flat:
        return float(t)
    if t <= 1001:
        # Exact rationals: k = 3.7, t = 4 is an exact rounding tie, where a
        # 60-digit mpmath value lands on the wrong side of the midpoint.
        return float(flat + Fraction(k) * (_EXACT_HARMONIC[t] - _EXACT_HARMONIC[flat]))
    with mpmath.workdps(60):
        return float(flat + mpmath.mpf(k) * (mpmath.harmonic(t) - mpmath.harmonic(flat)))


@pytest.mark.parametrize("k", [2.0, 3.7, 40.0, 41.3, 99.5, 100.0, 812.3, 1e6 + 0.5])
def test_cumulative_is_correctly_rounded(k):
    # From k = 99.5 on, H_floor(k) also comes from the expansion.
    flat = math.floor(k)
    grid = {1, flat, flat + 1, 99, 100, 101, 999, 1000, 1001, 10**5, 10**7, 10**8}
    for t in sorted(grid):
        assert InverseTimeSchedule(k).cumulative(t) == _inverse_time_reference(k, t), t


def test_cumulative_is_correctly_rounded_across_the_bound_grid():
    # k log-uniform in (1, 2000], integer, or just above an integer; t
    # log-uniform up to 1e8, at the edges c = j 2^e and (j + 1) 2^e - 1 of
    # _ln's table, or where the direct sums hand over to the expansion.
    rng = random.Random(20261021)
    for _ in range(2000):
        j = rng.randint(2, 2000)
        k = rng.choice([10 ** rng.uniform(0.0, math.log10(2000)), float(j), j + 2.0**-40])
        if k <= 1.0:
            continue
        draw = rng.random()
        if draw < 0.6:
            t = round(10 ** rng.uniform(0.0, 8.0))
        elif draw < 0.95:
            lead, e = rng.randrange(64, 128), rng.randint(0, 20)
            t = rng.choice([lead << e, ((lead + 1) << e) - 1])
        else:
            t = rng.choice([99, 100, 101])
        assert InverseTimeSchedule(k).cumulative(t) == _inverse_time_reference(k, t), (k, t)


# The Euler-Maclaurin coefficients in units, term by term.
_SERIES = tuple(itertools.chain.from_iterable(strategies._HARMONIC_SERIES))


def _series_terms(n: int) -> int:
    """How many Euler-Maclaurin terms _harmonic adds at n >= 100."""
    terms = (c // n ** (2 * j) for j, c in enumerate(_SERIES, 1))
    return sum(1 for _ in itertools.takewhile(bool, terms))


def _stop_edges() -> list[int]:
    """The n >= 100 on either side of each point where a series term
    starts to floor to 0."""
    edges = {100}
    for j, c in enumerate(_SERIES, 1):
        # The least n with n^2j > c, by bisection.
        lo, hi = 1, 1 << (c.bit_length() // (2 * j) + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if mid ** (2 * j) <= c else (lo, mid)
        edges |= {lo - 1, lo} - set(range(100))
    return sorted(edges)


def _harmonic_bound(n: int) -> int:
    """The proven error of _harmonic(n), in units."""
    return max(n, 1) if n < 100 else 165 * (n.bit_length() - 7) + 3628


def test_fixed_point_harmonic_within_documented_error():
    # |_harmonic(n) - 2^P H_n| is below n units under 100 and below
    # 165 e + 3628 from 100 on, both under 2^12 + 2^8 n.bit_length(),
    # against exact rationals; n = 100 and up go through the expansion.
    one = strategies._FIXED_ONE
    for n, exact in enumerate(_EXACT_HARMONIC[:1001]):
        error = abs(strategies._harmonic(n) - exact * one)
        assert error < _harmonic_bound(n) <= 2**12 + 2**8 * n.bit_length(), n
    assert _series_terms(100) == 9  # the tenth term floors to 0


def test_fixed_point_harmonic_at_the_series_edges():
    # On either side of each n where a term starts to floor to 0, from
    # n = 100 (all ten terms run) to about 2**62.2 (the first one does).
    edges = _stop_edges()
    assert [_series_terms(n) for n in edges[:3]] == [9, 9, 8]
    assert _series_terms(edges[-2]) == 1 and _series_terms(edges[-1]) == 0
    assert edges[-1] > 2**62
    for n in edges + [2**64, 3**100]:
        with mpmath.workprec(2 * strategies._FIXED_BITS + n.bit_length()):
            exact = mpmath.harmonic(n) * strategies._FIXED_ONE
            error = abs(strategies._harmonic(n) - exact)
            assert error < _harmonic_bound(n) <= 2**12 + 2**8 * n.bit_length(), n


@pytest.mark.parametrize(
    "n",
    [64, 100, 127, 128, 129, 1000, 12345, 10**5, 10**8, 2**40 + 12345, 2**64 - 1,
     pytest.param(3**200, id="3**200")],
)
def test_fixed_point_ln_within_documented_error(n):
    # _ln(n) is below 2^P ln n by less than 165 e + 3614 units,
    # e = n.bit_length() - 7.
    e = n.bit_length() - 7
    with mpmath.workprec(2 * strategies._FIXED_BITS + n.bit_length()):
        gap = mpmath.log(n) * strategies._FIXED_ONE - strategies._ln(n)
        assert 0 <= gap < 165 * e + 3614


def test_cumulative_past_the_largest_double_is_inf():
    assert InverseTimeSchedule(1e308).cumulative(10**309) == math.inf


def test_cumulative_rounds_exact_ties_to_even():
    # With k = 3j / 2^50, j odd and 5 < k < 6, the sum 5 + k/6 lies exactly
    # halfway between two doubles, and 1/6 has no finite decimal expansion.
    first = math.ceil(5 * 2**50 / 3) | 1
    for j in range(first, first + 40, 2):
        k = 3 * j / 2**50
        exact = 5 + Fraction(3 * j, 2**50) / 6
        tiny = Fraction(1, 2**80)
        assert float(exact - tiny) != float(exact + tiny)
        assert InverseTimeSchedule(k).cumulative(6) == float(exact)


def test_explicit_schedule_horizon_errors():
    sched = ExplicitSchedule((0.5, 0.5))
    with pytest.raises(ValidationError):
        sched.epsilon(3)
    with pytest.raises(ValidationError):
        sched.epsilon(0)


ROUND_TRIP_SCHEDULES = [
    ConstantSchedule(0.3),
    ConstantSchedule(1.0),
    InverseTimeSchedule(40.0),
    InverseTimeSchedule(3.7),
    ExplicitSchedule((0.5, 0.25)),
    ExplicitSchedule((1.0,)),
]


@pytest.mark.parametrize("sched", ROUND_TRIP_SCHEDULES)
def test_schedule_config_round_trip(sched):
    # The echo writes the keys of the kind's table entry, as YAML lists.
    assert {s.kind for s in ROUND_TRIP_SCHEDULES} == set(strategies._SCHEDULE_KINDS)
    echo = sched.to_config()
    _, keys, _ = strategies._SCHEDULE_KINDS[sched.kind]
    assert set(echo) == {"kind", *keys}
    assert schedule_from_config(yaml.safe_load(yaml.safe_dump(echo))) == sched


def test_schedule_config_errors():
    with pytest.raises(ValidationError) as err:
        schedule_from_config({"kind": "linear", "slope": 1})
    assert err.value.code == "unknown_kind"
    with pytest.raises(ValidationError) as err:
        schedule_from_config({"kind": "constant", "epsilon": 0.5, "k": 2})
    assert err.value.code == "unknown_key"


# ---------------------------------------------------------------------------
# greedy set
# ---------------------------------------------------------------------------


def test_feasible_estimate_boundary_is_inclusive():
    state = played(2, (0, 0.5, 0.5), (1, 0.5, 0.5), (1, 0.5, 0.5))
    # Mean cost exactly at the level counts as feasible.
    assert greedy_ties(*state, 0.5, TIE_UNIFORM) == [0, 1]
    assert greedy_ties(*state, 0.4999, TIE_UNIFORM) == []


def test_feasible_estimate_requires_a_play():
    state = played(3, (2, 0.9, 0.0))
    assert greedy_ties(*state, 0.5, TIE_UNIFORM) == [2]


def test_greedy_ties_in_exact_arithmetic():
    # Two plays each: 0.1 + 0.2 against 0.3 + 0.0.  In rationals the means
    # tie; the float sum 0.1 + 0.2 rounds up, so floats put arm 0 ahead.
    plays = ((0, 0.1, 0.0), (0, 0.2, 0.0), (1, 0.3, 0.0), (1, 0.0, 0.0))
    assert greedy_ties(*played(2, *plays), 0.5, TIE_UNIFORM) == [0]
    exact = [Fraction(1, 10) + Fraction(1, 5), Fraction(3, 10)]
    zero = [Fraction(0)] * 2
    half = Fraction(1, 2)
    assert greedy_ties([2, 2], exact, zero, half, TIE_UNIFORM) == [0, 1]
    assert greedy_ties([2, 2], exact, zero, half, TIE_LOWEST_INDEX) == [0]


def test_greedy_ties_on_integer_keys():
    # Means 3/2 and 4/3: floor division would tie them; the exact keys
    # 3 * (6 // 2) = 9 and 4 * (6 // 3) = 8 do not.
    assert greedy_ties([2, 3], [3, 4], [0, 0], 1, TIE_UNIFORM, 6) == [0]
    # Equal means 1 and 1 tie; the level test is on the integers too.
    assert greedy_ties([2, 3], [2, 3], [2, 3], 1, TIE_UNIFORM, 6) == [0, 1]
    assert greedy_ties([2, 3], [2, 3], [2, 4], 1, TIE_UNIFORM, 6) == [0]


# ---------------------------------------------------------------------------
# selection, on the kernel with scripted uniforms
# ---------------------------------------------------------------------------
# After pull(0) and pull(1) on the example instance, arm 0 is the greedy
# arm and arm 1 looks infeasible.  The uniforms of each step under test
# are chosen so that the random and the greedy branch pick different arms.


def test_select_arm_scripted_branches(monkeypatch):
    steps = [
        pull(0), pull(1),
        (0.6, 0.9, 0.5, 0.5),  # greedy: arm 0, where the random branch gives 1
        (0.4, 0.3, 0.5, 0.5),  # random: floor(2 * 0.3) = 0
        (0.4, 0.6, 0.5, 0.5),  # random: floor(2 * 0.6) = 1, where greedy gives 0
    ]
    assert kernel_arms(monkeypatch, example_instance(), steps) == [0, 1, 0, 0, 1]


def test_select_arm_probability_by_exact_enumeration(monkeypatch):
    # With eps = 0.5, quadrant midpoints of the two uniforms carry equal
    # probability 1/4 each; arm 0 wins three of four.
    quadrants = [(b, a, 0.5, 0.5) for b in (0.25, 0.75) for a in (0.25, 0.75)]
    blocks = [[pull(0)] * 4, [pull(1)] * 4, quadrants]
    chunk = scripted_chunk(monkeypatch, example_instance(), blocks)
    assert chunk.arm_hits[2].tolist() == [3, 1]  # probability 0.75


def test_select_arm_probability_by_frequency(monkeypatch):
    n = 40_000
    draws = np.random.default_rng(42).random((n, 4))
    blocks = [[pull(0)] * n, [pull(1)] * n, draws]
    wins = scripted_chunk(monkeypatch, example_instance(), blocks).arm_hits[2, 0]
    # Four-sigma band around 0.75.
    assert abs(wins / n - 0.75) <= 4.0 * math.sqrt(0.75 * 0.25 / n)


def test_exploration_floor_exact(monkeypatch):
    # P{arm 1} = eps/2 = 0.25: only the random branch with u_arm >= 0.5.
    grid = 20
    midpoints = [(i + 0.5) / grid for i in range(grid)]
    cells = [(b, a, 0.5, 0.5) for b in midpoints for a in midpoints]
    blocks = [[pull(0)] * grid**2, [pull(1)] * grid**2, cells]
    hits = scripted_chunk(monkeypatch, example_instance(), blocks).arm_hits[2, 1]
    assert hits / grid**2 == 0.25


def test_fallback_branch_when_nothing_played(monkeypatch):
    # floor(2 * 0.7) = 1; a greedy pick among no arms would give 0.
    assert kernel_arms(monkeypatch, example_instance(), [(0.9, 0.7, 0.5, 0.5)]) == [1]


def test_fallback_branch_when_all_look_infeasible(monkeypatch):
    # Arms 0 and 1 look infeasible and arm 2 is unplayed: floor(3 * 0.9)
    # = 2, where a greedy pick among no arms would give 0.
    instance = point_mass_instance((0.5, 1.0), (0.5, 0.9), (0.5, 0.0))
    steps = [pull(0, 3), pull(1, 3), (0.9, 0.9, 0.5, 0.5)]
    assert kernel_arms(monkeypatch, instance, steps)[-1] == 2


def test_greedy_stays_inside_feasible_estimate():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        plays = []
        for a in range(n):
            for _ in range(int(rng.integers(0, 4))):
                plays.append((a, float(rng.random()), float(rng.random())))
        counts, reward_sums, cost_sums = state = played(n, *plays)
        feasible = [
            a for a in range(n) if counts[a] > 0 and cost_sums[a] <= 0.5 * counts[a]
        ]
        ties = greedy_ties(*state, 0.5, TIE_UNIFORM)
        assert set(ties) <= set(feasible)
        assert bool(ties) == bool(feasible)


def test_tie_breaking_lowest_index_default(monkeypatch):
    instance = point_mass_instance((0.5, 0.0), (0.5, 0.0), (0.5, 0.0))
    steps = [pull(0, 3), pull(1, 3), pull(2, 3), (0.9, 0.99, 0.5, 0.5)]
    assert kernel_arms(monkeypatch, instance, steps)[-1] == 0


def test_tie_breaking_uniform_uses_arm_draw(monkeypatch):
    # Ties are {0, 1}: u_arm = 0.7 selects index 1 of the tie list, where
    # the random branch gives arm 2, and 0.4 index 0, where it gives 1.
    instance = point_mass_instance((0.5, 0.0), (0.5, 0.0), (0.2, 0.0))
    steps = [pull(0, 3), pull(1, 3), pull(2, 3), (0.9, 0.7, 0.5, 0.5), (0.9, 0.4, 0.5, 0.5)]
    arms = kernel_arms(monkeypatch, instance, steps, tie_rule=TIE_UNIFORM)
    assert arms[-2:] == [1, 0]


def test_selection_is_scale_invariant():
    rng = np.random.default_rng(11)
    for _ in range(100):
        plays, scaled = [], []
        for a in range(3):
            for _ in range(int(rng.integers(1, 4))):
                r, c = float(rng.random()), float(rng.random())
                plays.append((a, r, c))
                scaled.append((a, 0.25 * r, c))
        ties = greedy_ties(*played(3, *plays), 0.5, TIE_UNIFORM)
        assert ties == greedy_ties(*played(3, *scaled), 0.5, TIE_UNIFORM)


def test_select_arm_rejects_bad_tie_rule():
    # The rule trusts its caller; the experiment config and the oracle check.
    with pytest.raises(ValidationError) as err:
        trial_config(bern_instance(), ConstantSchedule(0.5), (1,), 0, tie_rule="coin")
    assert err.value.code == "bad_config"
    with pytest.raises(ValidationError) as err:
        exact_selection_probability(bern_instance(), ConstantSchedule(0.5), 1, tie_rule="coin")
    assert err.value.code == "bad_config"


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_uniform_baseline_ignores_state(monkeypatch):
    steps = [pull(0), pull(1), (0.99, 0.7, 0.5, 0.5)]
    arms = kernel_arms(monkeypatch, example_instance(), steps, policy=POLICY_UNIFORM)
    assert arms[-1] == 1


def test_unconstrained_baseline_ignores_costs(monkeypatch):
    # Arm 1 has the best empirical reward but is infeasible.
    instance = point_mass_instance((0.2, 0.0), (0.9, 1.0))
    steps = [pull(0), pull(1), (0.99, 0.3, 0.5, 0.5)]
    unconstrained = kernel_arms(monkeypatch, instance, steps, policy=POLICY_UNCONSTRAINED)
    assert unconstrained[-1] == 1
    assert kernel_arms(monkeypatch, instance, steps)[-1] == 0


def test_baseline_select_rejects_unknown_policy():
    with pytest.raises(ValidationError) as err:
        trial_config(bern_instance(), ConstantSchedule(0.5), (1,), 0, policy="thompson")
    assert err.value.code == "bad_config"
    with pytest.raises(ValidationError) as err:
        exact_selection_probability(bern_instance(), ConstantSchedule(0.5), 1, policy="thompson")
    assert err.value.code == "bad_config"


# ---------------------------------------------------------------------------
# one-replication trajectories
# ---------------------------------------------------------------------------


def test_step_point_mass_composition():
    # Each step reads four uniforms in order: branch, arm, reward, cost.
    # Point masses leave the last two unused, so a step that read fewer
    # would pick its arm from the wrong uniform after the first step.
    instance = example_instance()
    horizon = 30
    config = trial_config(instance, ConstantSchedule(0.5), range(1, horizon + 1), 5)
    chunk = run_chunk(config, 0, 1)
    stream = step_uniforms(5, 0, 1)
    counts = [0, 0]
    for t in range(horizon):
        u_branch, u_arm, _, _ = next(stream)[0].tolist()
        # Once arm 0 is played it is the greedy arm; before, the greedy
        # branch falls back to floor(2 u_arm), as the random branch does.
        arm = int(2 * u_arm) if u_branch < 0.5 or counts[0] == 0 else 0
        assert chunk.arm_hits[t, arm] == 1
        counts[arm] += 1
        assert chunk.cum_rewards[t, 0] == counts[0]
        assert chunk.cum_costs[t, 0] == counts[1]
    assert sum(counts) == horizon


def test_simulate_count_conservation_and_replay():
    horizon = 10_000
    every = trial_config(bern_instance(), InverseTimeSchedule(20.0), range(1, horizon + 1), 77)
    chunk = run_chunk(every, 0, 1)
    # One pull, one Bernoulli reward and one cost per step.
    assert (chunk.arm_hits.sum(axis=1) == 1).all()
    for totals in (chunk.cum_rewards[:, 0], chunk.cum_costs[:, 0]):
        assert set(np.diff(totals, prepend=0.0).tolist()) <= {0.0, 1.0}
    # Reporting every step does not change the trajectory.
    last = run_chunk(trial_config(bern_instance(), InverseTimeSchedule(20.0), (horizon,), 77), 0, 1)
    assert last.arm_hits.tolist() == chunk.arm_hits[-1:].tolist()
    assert last.cum_rewards.tolist() == chunk.cum_rewards[-1:].tolist()
    assert last.cum_costs.tolist() == chunk.cum_costs[-1:].tolist()


def test_simulate_is_bit_reproducible():
    config = trial_config(bern_instance(), ConstantSchedule(0.5), range(1, 501), 5)

    def trajectory(rep):
        chunk = run_chunk(config, rep, rep + 1)
        return chunk.arm_hits.tolist(), chunk.cum_rewards.tolist(), chunk.cum_costs.tolist()

    a = trajectory(3)
    assert a == trajectory(3)
    assert a != trajectory(4)


def test_simulate_mixed_kind_instance_runs():
    instance = ProblemInstance(
        arms=(
            Arm(Bernoulli(0.7), Discrete((0.0, 0.5), (0.5, 0.5))),
            Arm(Discrete((0.2, 0.9), (0.5, 0.5)), PointMass(0.8)),
        ),
        constraint_level=0.5,
    )
    horizon = 200
    config = trial_config(instance, ConstantSchedule(1.0), range(1, horizon + 1), 1)
    chunk = run_chunk(config, 0, 1)
    assert (chunk.arm_hits.sum(axis=0) > 0).all()
    # eps = 1: every step takes the random branch, floor(2 u_arm), and
    # draws its reward and cost from the step's third and fourth uniforms.
    stream = step_uniforms(1, 0, 1)
    totals = (0.0, 0.0)
    for t in range(horizon):
        _, u_arm, u_reward, u_cost = next(stream)[0].tolist()
        arm = int(2 * u_arm)
        assert chunk.arm_hits[t, arm] == 1
        reward = instance.arms[arm].reward.quantile(u_reward)
        cost = instance.arms[arm].cost.quantile(u_cost)
        assert 0.0 <= reward <= 1.0 and 0.0 <= cost <= 1.0
        totals = (totals[0] + reward, totals[1] + cost)
        assert (chunk.cum_rewards[t, 0], chunk.cum_costs[t, 0]) == totals
