from __future__ import annotations

import math
import re
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
import yaml
from numpy.random import Generator, Philox
from scipy import integrate, stats

import cbandits.core as core
from cbandits.harness import _sampler
from cbandits.core import (
    DRAWS_PER_STEP,
    Arm,
    Bernoulli,
    Beta,
    Discrete,
    PointMass,
    ProblemInstance,
    ValidationError,
    distribution_from_config,
    experiment_key,
    instance_from_config,
    step_uniforms,
)

# Frozen exact moments, computed by hand from the closed forms.
EXPECTED_MOMENTS = [
    (PointMass(0.3), 0.3, 0.0),
    (Bernoulli(0.25), 0.25, 0.1875),
    (Discrete((0.0, 0.5, 1.0), (0.2, 0.3, 0.5)), 0.65, 0.1525),
    (Beta(2.0, 3.0), 0.4, 0.04),
]


def two_point_instance() -> ProblemInstance:
    return ProblemInstance(
        arms=(
            Arm(PointMass(1.0), PointMass(0.0)),
            Arm(PointMass(0.0), PointMass(1.0)),
        ),
        constraint_level=0.5,
    )


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dist,mean,_v", EXPECTED_MOMENTS)
def test_closed_form_moments(dist, mean, _v):
    assert dist.mean == pytest.approx(mean, abs=1e-12)


def test_beta_mean_matches_numerical_integration():
    # Independent check of the closed form against direct quadrature.
    dist = Beta(2.0, 3.0)
    pdf = stats.beta(2.0, 3.0).pdf
    mean_quad, err = integrate.quad(lambda x: x * pdf(x), 0.0, 1.0)
    assert err < 1e-10
    assert dist.mean == pytest.approx(mean_quad, abs=1e-9)


# ---------------------------------------------------------------------------
# quantile maps
# ---------------------------------------------------------------------------


def test_point_mass_quantile_is_constant():
    dist = PointMass(0.7)
    assert dist.quantile(0.0) == 0.7
    assert dist.quantile(0.999) == 0.7
    assert dist.quantile(np.nextafter(1.0, 0.0)) == 0.7


def test_bernoulli_quantile_threshold():
    dist = Bernoulli(0.25)
    assert dist.quantile(0.0) == 1.0
    assert dist.quantile(0.2499) == 1.0
    assert dist.quantile(0.25) == 0.0
    assert dist.quantile(0.9) == 0.0
    assert [dist.quantile(u) for u in (0.1, 0.25, 0.3)] == [1.0, 0.0, 0.0]


def test_discrete_quantile_cells():
    dist = Discrete((0.0, 0.5, 1.0), (0.2, 0.3, 0.5))
    # Cells: [0, 0.2) -> 0.0, [0.2, 0.5) -> 0.5, [0.5, 1) -> 1.0.
    assert dist.quantile(0.0) == 0.0
    assert dist.quantile(0.1999) == 0.0
    assert dist.quantile(0.2) == 0.5
    assert dist.quantile(0.4999) == 0.5
    assert dist.quantile(0.5) == 1.0
    assert dist.quantile(0.9999) == 1.0


def test_beta_quantile_inverts_cdf():
    dist = Beta(2.0, 3.0)
    u = np.linspace(0.01, 0.99, 23)
    x = [dist.quantile(float(v)) for v in u]
    assert all(type(v) is float for v in x)
    np.testing.assert_allclose(stats.beta.cdf(x, 2.0, 3.0), u, atol=1e-12)
    assert dist.quantile(0.5) == pytest.approx(stats.beta.ppf(0.5, 2.0, 3.0), abs=1e-14)


def draw(dist, u):
    """Variates of ``dist`` at the uniforms ``u``, through the lockstep
    kernel's sampler."""
    return _sampler([dist])(np.zeros(len(u), dtype=np.int64), u)


@pytest.mark.parametrize("dist,_m,_v", EXPECTED_MOMENTS)
def test_samples_stay_in_unit_interval(dist, _m, _v):
    values = draw(dist, np.random.default_rng(7).random(20_000))
    assert values.min() >= 0.0
    assert values.max() <= 1.0


@pytest.mark.parametrize("dist,mean,variance", EXPECTED_MOMENTS)
def test_law_of_large_numbers(dist, mean, variance):
    n = 1_000_000
    values = draw(dist, np.random.default_rng(20260819).random(n))
    # Four-sigma band around the exact mean, plus float-summation slack.
    tol = 4.0 * math.sqrt(variance / n) + 1e-12
    assert abs(values.mean() - mean) <= tol
    if variance > 0.0:
        sample_var = values.var()
        assert abs(sample_var - variance) <= 12.0 * variance / math.sqrt(n) + 1e-12


def test_exact_support_law_sums_to_one():
    def law(dist, exact=False):
        return tuple(p for _, p in dist.atoms(exact))

    # 1.0 - 0.3 rounds, so the float complement is not the law of quantile(U).
    assert law(Bernoulli(0.3), exact=True) == (1 - Fraction(0.3), Fraction(0.3))
    assert sum(law(Bernoulli(0.3), exact=True)) == 1
    assert Bernoulli(0.3).atoms() == ((0.0, 1.0 - 0.3), (1.0, 0.3))
    dist = Discrete((0.0, 1.0), (0.3, 0.7))
    assert law(dist, exact=True) == (Fraction(0.3), 1 - Fraction(0.3))
    assert dist.atoms() == ((0.0, 0.3), (1.0, 0.7))
    assert sum(Fraction(p) for p in law(dist)) != 1
    # Atoms are the cells of quantile: [0, _cum[0]), [_cum[0], _cum[1]), ...
    # 0.1 + 0.2 rounds up, so the float law is the cell width, not 0.2.
    dist = Discrete((0.0, 0.5, 1.0), (0.1, 0.2, 0.7))
    exact = law(dist, exact=True)
    assert exact[1] == Fraction(0.1 + 0.2) - Fraction(0.1)
    assert law(dist) == (0.1, 0.20000000000000004, 0.7)
    assert PointMass(0.4).atoms(exact=True) == ((0.4, 1),)
    for dist in (
        Discrete((1.0, 0.0, 0.5, 0.0), (0.25, 0.125, 0.375, 0.25)),
        Discrete((0, 0.5, 1), (0.1, 0.2, 0.7)),
        Bernoulli(0.3),
        PointMass(0.4),
    ):
        values = [v for v, _ in dist.atoms(exact=True)]
        assert values == sorted(values) == [v for v, _ in dist.atoms()]
        assert sum(law(dist, exact=True)) == 1
        assert law(dist) == tuple(float(p) for p in law(dist, exact=True))
    # The sort is stable: equal values keep their cells' order.
    assert Discrete((1.0, 0.0, 0.5, 0.0), (0.25, 0.125, 0.375, 0.25)).atoms() == (
        (0.0, 0.125), (0.0, 0.25), (0.5, 0.375), (1.0, 0.25)
    )


@pytest.mark.parametrize(
    "dist",
    [
        PointMass(0.3),
        Bernoulli(0.25),
        Bernoulli(0.0),
        Bernoulli(1.0),
        Discrete((0.0, 0.5, 1.0), (0.2, 0.3, 0.5)),
        Discrete((0.0, 0.25, 1.0), (0.4, 0.0, 0.6)),
        Discrete((0.0, 0.5, 1.0, 0.75), (0.6, 0.3, 0.1, 0.0)),
        Discrete((1.0, 0.0, 0.5, 0.0), (0.25, 0.125, 0.375, 0.25)),
        Discrete((0, 0.5, 1), (0.1, 0.2, 0.7)),
        Bernoulli(0.3),
        PointMass(1.0),
    ],
)
def test_quantile_table_gives_quantile(dist):
    cuts, values = dist.quantile_table()
    assert len(values) == len(cuts) + 1
    assert list(cuts) == sorted(cuts)
    probes = [0.0, np.nextafter(1.0, 0.0), 0.5] + [float(c) for c in cuts]
    for u in probes:
        if 0.0 <= u < 1.0:
            assert dist.quantile(u) == values[sum(c <= u for c in cuts)]


def test_quantile_table_literals():
    assert Bernoulli(0.25).quantile_table() == ((0.25,), (1.0, 0.0))
    assert PointMass(0.3).quantile_table() == ((), (0.3,))
    with pytest.raises(ValidationError) as err:
        Beta(2.0, 3.0).quantile_table()
    assert err.value.code == "continuous_support"


def test_discrete_tables_match_numpy_cumsum():
    # _cum is a running sum in plain Python; the tables, the exact atoms,
    # the kernel's sampler and quantile are those of np.cumsum's cuts, bit
    # for bit.
    rng = np.random.default_rng(20261019)
    for i in range(1000):
        n = int(rng.integers(1, 9))
        weights = rng.random(n) * (rng.random(n) < 0.8)
        weights[rng.integers(n)] += 0.5
        probs = weights / weights.sum()
        if i % 3:
            # Sums just inside 1 - PROBABILITY_TOL or 1 + PROBABILITY_TOL.
            probs *= 1.0 + (-1) ** i * 0.999 * core.PROBABILITY_TOL
        values = tuple(rng.random(n).tolist())
        dist = Discrete(values, tuple(probs.tolist()))
        cum = np.cumsum(probs)
        assert [c.hex() for c in dist._cum] == [c.hex() for c in cum.tolist()]
        assert dist.quantile_table() == (tuple(cum[:-1].tolist()), values)
        cuts = [Fraction(0), *(min(Fraction(c), Fraction(1)) for c in cum[:-1]), Fraction(1)]
        exact = zip(values, (hi - lo for lo, hi in zip(cuts, cuts[1:])))
        assert dist.atoms(exact=True) == tuple(sorted(exact, key=lambda atom: atom[0]))
        u = np.concatenate([rng.random(8), cum[:-1], [0.0, np.nextafter(1.0, 0.0)]])
        expected = np.asarray(values)[cum[:-1].searchsorted(u, side="right")]
        assert np.array_equal(draw(dist, u), expected)
        assert [dist.quantile(float(x)) for x in u] == expected.tolist()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build,code",
    [
        (lambda: PointMass(1.2), "out_of_support"),
        (lambda: PointMass(-0.1), "out_of_support"),
        (lambda: PointMass(float("nan")), "bad_parameter"),
        (lambda: Bernoulli(1.5), "bad_parameter"),
        (lambda: Discrete((0.2, 1.3), (0.5, 0.5)), "out_of_support"),
        (lambda: Discrete((0.2, 0.3), (0.6, 0.6)), "bad_probabilities"),
        (lambda: Discrete((0.2, 0.3), (-0.1, 1.1)), "bad_probabilities"),
        (lambda: Discrete((0.2, 0.3), (0.5,)), "bad_parameter"),
        (lambda: Discrete((), ()), "bad_parameter"),
        (lambda: Discrete(0.5, 1.0), "bad_parameter"),
        (lambda: Discrete((0.5,), "1"), "bad_parameter"),
        (lambda: Discrete(np.array(0.5), np.array(1.0)), "bad_parameter"),
        (lambda: Beta(0.0, 2.0), "bad_parameter"),
        (lambda: Beta(2.0, -1.0), "bad_parameter"),
    ],
)
def test_distribution_validation_codes(build, code):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.code == code


# (value, result) of the number validators; a string result is the
# ValidationError message.
AS_FLOAT_CASES = [
    (1.5, 1.5),
    (np.float64(1.5), 1.5),
    (np.float32(0.5), 0.5),
    (np.int64(2), 2.0),
    (Fraction(3, 2), 1.5),
    (2, 2.0),
    (True, "x must be a real number, got True"),
    ("1", "x must be a real number, got '1'"),
    (0.0, "x must lie in (0, 2], got 0.0"),
    (2.5, "x must lie in (0, 2], got 2.5"),
    (math.inf, "x must lie in (0, 2], got inf"),
    (math.nan, "x must lie in (0, 2], got nan"),
    (np.float64(math.nan), "x must lie in (0, 2], got nan"),
    (10**309, "x must lie in (0, 2], got inf"),
    (-(10**309), "x must lie in (0, 2], got -inf"),
    (Fraction(10**400, 3), "x must lie in (0, 2], got inf"),
]
AS_INT_CASES = [
    (3, 3),
    (np.int64(3), 3),
    (np.uint8(10), 10),
    (True, "n must be an integer in [1, 10], got True"),
    (0, "n must be an integer in [1, 10], got 0"),
    (11, "n must be an integer in [1, 10], got 11"),
    (3.0, "n must be an integer in [1, 10], got 3.0"),
    (np.float64(3.0), "n must be an integer in [1, 10], got np.float64(3.0)"),
    (Fraction(3, 1), "n must be an integer in [1, 10], got Fraction(3, 1)"),
    (math.inf, "n must be an integer in [1, 10], got inf"),
    (math.nan, "n must be an integer in [1, 10], got nan"),
]


def check_validator(call, result):
    if isinstance(result, str):
        with pytest.raises(ValidationError, match=f"^{re.escape(result)}$"):
            call()
    else:
        out = call()
        assert type(out) is type(result) and out == result


@pytest.mark.parametrize(("value", "result"), AS_FLOAT_CASES)
def test_as_float_accepts_and_rejects(value, result):
    check_validator(lambda: core._as_float(value, "c", "x", 0.0, strict=True, maximum=2.0), result)


@pytest.mark.parametrize(("value", "result"), AS_INT_CASES)
def test_as_int_accepts_and_rejects(value, result):
    check_validator(lambda: core._as_int(value, "c", "n", 1, 10), result)


def test_as_int_without_maximum():
    assert core._as_int(2**70, "c", "n", 1) == 2**70
    with pytest.raises(ValidationError, match=r"^n must be an integer >= 1, got 0$"):
        core._as_int(0, "c", "n", 1)


def test_discrete_takes_lists_and_arrays():
    expected = Discrete((0.0, 0.5), (0.25, 0.75))
    assert Discrete([0.0, 0.5], [0.25, 0.75]) == expected
    assert Discrete(np.array([0.0, 0.5]), np.array([0.25, 0.75])) == expected


def test_discrete_probability_sum_tolerance():
    # Within 1e-12 of one is accepted.
    Discrete((0.0, 1.0), (0.5, 0.5 + 4e-13))


def test_instance_requires_two_arms():
    with pytest.raises(ValidationError) as err:
        ProblemInstance(arms=(Arm(Bernoulli(0.5), Bernoulli(0.5)),), constraint_level=0.5)
    assert err.value.code == "too_few_arms"


def test_instance_requires_nonempty_feasible_set():
    with pytest.raises(ValidationError) as err:
        ProblemInstance(
            arms=(
                Arm(Bernoulli(0.5), PointMass(0.8)),
                Arm(Bernoulli(0.5), PointMass(0.9)),
            ),
            constraint_level=0.5,
        )
    assert err.value.code == "empty_feasible_set"


def test_instance_boundary_cost_is_feasible():
    ProblemInstance(
        arms=(
            Arm(Bernoulli(0.5), PointMass(0.5)),
            Arm(Bernoulli(0.5), PointMass(0.9)),
        ),
        constraint_level=0.5,
    )


def test_instance_mean_vectors():
    instance = two_point_instance()
    assert instance.reward_means() == (1.0, 0.0)
    assert instance.cost_means() == (0.0, 1.0)
    assert {type(m) for m in instance.reward_means() + instance.cost_means()} == {float}
    assert instance.num_arms == 2


# ---------------------------------------------------------------------------
# config round trips
# ---------------------------------------------------------------------------


ROUND_TRIP_DISTRIBUTIONS = [dist for dist, _, _ in EXPECTED_MOMENTS] + [
    PointMass(1.0),
    Discrete((0.25,), (1.0,)),
]


@pytest.mark.parametrize("dist", ROUND_TRIP_DISTRIBUTIONS)
def test_distribution_config_round_trip(dist):
    # The echo writes the keys of the kind's table entry, as YAML lists.
    assert {d.kind for d in ROUND_TRIP_DISTRIBUTIONS} == set(core._DISTRIBUTION_KINDS)
    echo = dist.to_config()
    _, keys, _ = core._DISTRIBUTION_KINDS[dist.kind]
    assert set(echo) == {"kind", *keys}
    assert distribution_from_config(yaml.safe_load(yaml.safe_dump(echo))) == dist


def test_distribution_config_unknown_kind():
    with pytest.raises(ValidationError) as err:
        distribution_from_config({"kind": "cauchy", "scale": 2.0})
    assert err.value.code == "unknown_kind"


def test_distribution_config_unknown_key():
    with pytest.raises(ValidationError) as err:
        distribution_from_config({"kind": "bernoulli", "p": 0.5, "q": 0.5})
    assert err.value.code == "unknown_key"
    assert "q" in str(err.value)


def test_instance_config_round_trip():
    instance = ProblemInstance(
        arms=(
            Arm(Bernoulli(0.7), Discrete((0.0, 1.0), (0.7, 0.3))),
            Arm(Beta(2.0, 3.0), PointMass(0.2)),
        ),
        constraint_level=0.5,
    )
    again = instance_from_config(instance.to_config())
    assert again == instance


def test_instance_config_rejects_unknown_key():
    config = two_point_instance().to_config()
    config["extra"] = 1
    with pytest.raises(ValidationError) as err:
        instance_from_config(config)
    assert err.value.code == "unknown_key"


# ---------------------------------------------------------------------------
# uniform streams
# ---------------------------------------------------------------------------


def steps(stream, count):
    return [next(stream) for _ in range(count)]


def test_trial_streams_row_is_independent_of_block(draw_path):
    # The scalar reference draws one replication, the kernel a block: a
    # replication's uniforms must not depend on which block it is in.
    block = steps(step_uniforms(11, 3, 10), 25)
    for offset, rep in enumerate(range(3, 10)):
        alone = steps(step_uniforms(11, rep, rep + 1), 25)
        for t in range(25):
            assert np.array_equal(block[t][offset], alone[t][0])
    assert all(b.shape == (7, DRAWS_PER_STEP) for b in block)


def test_step_block_is_keyed_by_step_and_replication(draw_path):
    # Row r of step t is the first Philox block after counter (t << 64) + r,
    # built here without the stream's skip-ahead between steps.
    key = experiment_key(123)
    lo, hi = 5, 12
    for t, block in enumerate(steps(step_uniforms(123, lo, hi), 40), start=1):
        expected = Generator(Philox(key=key, counter=(t << 64) + lo)).random((hi - lo, 4))
        assert np.array_equal(block, expected), t


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1,
# 2, 3", SC 2011) in plain Python: the reference for step_uniforms that
# does not go through numpy's Philox.
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
MASK64 = 2**64 - 1


def philox4x64_10(counter: int, key: tuple[int, int]) -> tuple[int, ...]:
    """The four 64-bit words of the block at a 256-bit counter (word 0
    lowest) under a two-word key."""
    x = [(counter >> (64 * i)) & MASK64 for i in range(4)]
    k0, k1 = key
    for _ in range(10):
        p0, p1 = PHILOX_M[0] * x[0], PHILOX_M[1] * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & MASK64, (p0 >> 64) ^ x[3] ^ k1, p0 & MASK64]
        k0, k1 = (k0 + PHILOX_W[0]) & MASK64, (k1 + PHILOX_W[1]) & MASK64
    return tuple(x)


def reference_row(master_seed: int, t: int, r: int) -> list[float]:
    """Row r of step t: the block at counter (t << 64) + r + 1, each word
    w read as (w >> 11) * 2**-53."""
    key = tuple(int(k) for k in experiment_key(master_seed))
    return [(w >> 11) * 2.0**-53 for w in philox4x64_10((t << 64) + r + 1, key)]


def test_philox_reference_known_answer():
    # Random123's kat_vectors entry for philox4x64_10 at counter and key pi.
    counter = sum(w << (64 * i) for i, w in enumerate(
        (0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89)
    ))
    assert philox4x64_10(counter, (0x452821E638D01377, 0xBE5466CF34E90C6C)) == (
        0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6
    )


@pytest.mark.parametrize("seed", [7, 2**64 - 1])
def test_step_uniforms_match_pure_python_philox(seed, draw_path):
    # Replications 0..8 at steps 1..5, drawn as one block and as three
    # blocks, two of them with rep_lo > 0.
    for layout in (((0, 9),), ((0, 2), (2, 6), (6, 9))):
        for lo, hi in layout:
            for t, block in enumerate(steps(step_uniforms(seed, lo, hi), 5), start=1):
                assert block.tolist() == [reference_row(seed, t, r) for r in range(lo, hi)]


def test_trial_stream_is_deterministic(draw_path):
    first = steps(step_uniforms(123, 4, 6), 50)
    assert np.array_equal(first, steps(step_uniforms(123, 4, 6), 50))


def test_trial_streams_differ_across_replications_and_seeds():
    base = np.concatenate(steps(step_uniforms(123, 0, 1), 50))
    assert not np.array_equal(base, np.concatenate(steps(step_uniforms(123, 1, 2), 50)))
    assert not np.array_equal(base, np.concatenate(steps(step_uniforms(124, 0, 1), 50)))


def test_trial_streams_are_disjoint_windows(draw_path):
    # Every (step, replication) pair reads its own counter block.
    tiled = np.concatenate(steps(step_uniforms(9, 0, 5), 13)).ravel()
    assert tiled.size == 13 * 5 * DRAWS_PER_STEP
    assert np.unique(tiled).size == tiled.size


def test_experiment_key_validation():
    with pytest.raises(ValidationError):
        experiment_key(-1)
    with pytest.raises(ValidationError):
        experiment_key(2**64)
    with pytest.raises(ValidationError):
        experiment_key("seed")
    assert experiment_key(7).shape == (2,)
    assert np.array_equal(experiment_key(np.uint64(7)), experiment_key(7))


def test_trial_stream_validation():
    # Bad ranges fail at the call, before any step is drawn.
    for seed, lo, hi in ((1, -1, 0), (1, 2, 2), (1, 0, 2**64 + 1), (-1, 0, 1)):
        with pytest.raises(ValidationError):
            step_uniforms(seed, lo, hi)
    assert next(step_uniforms(1, 2**64 - 1, 2**64)).shape == (1, DRAWS_PER_STEP)


# ---------------------------------------------------------------------------
# drawing ahead on a helper thread
# ---------------------------------------------------------------------------


def helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("cbandits.step_uniforms")]


def test_draw_ahead_is_chosen_by_size_and_cpus(monkeypatch):
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    small = step_uniforms(3, 0, core._DRAW_AHEAD_REPLICATIONS - 1)
    next(small)
    assert not helper_threads()
    large = step_uniforms(3, 0, core._DRAW_AHEAD_REPLICATIONS)
    next(large)
    assert len(helper_threads()) == 1
    large.close()
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    one_cpu = step_uniforms(3, 0, core._DRAW_AHEAD_REPLICATIONS)
    next(one_cpu)
    assert not helper_threads()
    # A pool's workers draw inline, whatever CPUs are left over.
    monkeypatch.setattr(core, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(core, "_pool_worker", True)
    pool_worker = step_uniforms(3, 0, core._DRAW_AHEAD_REPLICATIONS)
    next(pool_worker)
    assert not helper_threads()
    monkeypatch.undo()
    assert core._usable_cpus() >= 1


def test_blocks_held_are_not_overwritten(draw_path):
    # The helper runs ahead of the consumer; no block it hands over is
    # written again, whatever the consumer still holds.
    stream = step_uniforms(17, 0, 6)
    held = steps(stream, 3)
    copies = [block.copy() for block in held]
    later = steps(stream, 20)
    assert all(np.array_equal(block, copy) for block, copy in zip(held, copies))
    blocks = held + later
    assert not any(
        np.shares_memory(a, b) for i, a in enumerate(blocks) for b in blocks[i + 1:]
    )
    stream.close()


def test_drawing_ahead_keeps_memory_bounded(monkeypatch):
    # However long the consumer pauses, the helper draws at most
    # _DRAW_AHEAD_BLOCKS blocks past those taken: memory stays
    # O(replications) whatever the horizon.
    monkeypatch.setattr(core, "_DRAW_AHEAD_REPLICATIONS", 1)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    draw_block = core._draw_block
    calls = []

    def counted(*args):
        calls.append(None)
        return draw_block(*args)

    monkeypatch.setattr(core, "_draw_block", counted)
    stream = step_uniforms(5, 0, 8)
    taken = 0
    for m in (1, 4, 20):
        steps(stream, m - taken)
        taken = m
        time.sleep(0.1)
        assert m <= len(calls) <= m + core._DRAW_AHEAD_BLOCKS, (m, len(calls))
    stream.close()


def test_closing_or_dropping_a_stream_stops_its_helper(draw_path):
    before = threading.enumerate()
    stream = step_uniforms(5, 0, 8)
    steps(stream, 4)
    assert len(helper_threads()) == (draw_path == "ahead")
    stream.close()
    assert set(threading.enumerate()) <= set(before)
    dropped = step_uniforms(5, 0, 8)
    steps(dropped, 4)
    del dropped
    assert set(threading.enumerate()) <= set(before)
    # A stream never advanced has started no helper.
    step_uniforms(5, 0, 8).close()
    assert set(threading.enumerate()) <= set(before)


class DrawFailed(Exception):
    pass


def test_helper_failure_reaches_the_consumer(monkeypatch, draw_path):
    draw_block = core._draw_block
    calls = []

    def failing(*args):
        calls.append(threading.current_thread())
        if len(calls) == 4:
            raise DrawFailed("step 4")
        return draw_block(*args)

    monkeypatch.setattr(core, "_draw_block", failing)
    before = threading.enumerate()
    stream = step_uniforms(5, 0, 8)
    outcome = []

    def consume():
        try:
            steps(stream, 10)
        except DrawFailed as exc:
            outcome.append(exc)

    consumer = threading.Thread(target=consume, daemon=True)
    started = time.perf_counter()
    consumer.start()
    consumer.join(timeout=10.0)
    assert not consumer.is_alive(), "the consumer hangs on a failed draw"
    assert time.perf_counter() - started < 10.0
    assert [str(exc) for exc in outcome] == ["step 4"]
    assert (calls[0] is consumer) == (draw_path == "inline")
    assert set(threading.enumerate()) <= set(before)


def test_streams_under_thread_switching_stress(monkeypatch):
    # Six helpers on at most two CPUs, with the interpreter switching
    # threads every microsecond and the streams closed at different
    # steps: every block is still the inline one, and no helper is left.
    monkeypatch.setattr(core, "_DRAW_AHEAD_REPLICATIONS", 1)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 2)
    before = threading.enumerate()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        streams = [step_uniforms(seed, 0, 16) for seed in range(6)]
        drawn = [[] for _ in streams]
        for t in range(40):
            for seed, stream in enumerate(streams):
                if t < 10 + 5 * seed:
                    drawn[seed].append(next(stream))
        for stream in streams:
            stream.close()
    finally:
        sys.setswitchinterval(interval)
    assert set(threading.enumerate()) <= set(before)
    monkeypatch.setattr(core, "_usable_cpus", lambda: 1)
    for seed, blocks in enumerate(drawn):
        inline = steps(step_uniforms(seed, 0, 16), len(blocks))
        assert all(np.array_equal(a, b) for a, b in zip(blocks, inline))
